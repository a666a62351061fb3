"""Command-line front end.

Subcommands: enumerate, map, stat, distribution, verify, moments.  Exit
codes: 0 success, 1 failed verification claim, 2 bad arguments, 3 parse
failure, 4 invariant violation of the input object, 5 unknown statistic or
claim name.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Callable, Sequence, TypeVar

from .bijections import (
    conjugated_map,
    kreweras,
    phi_csz,
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
    theta,
)
from .claims import UnknownClaim, claim_ids, run_claim
from .genfun import joint_distribution, laguerre_moments
from .histories import (
    LaguerreHistory,
    PathBelowAxis,
    PathNotClosed,
    WeightOutOfBounds,
    enumerate_histories,
)
from .involution import xi
from .mfs_action import mfs_full
from .multiset import IntMultiset
from .perm_stats import (
    NotAPermutation,
    Permutation,
    UnknownStatistic,
    cyclic_family,
    iter_perms,
    linear_family,
    shifted_family,
    statistic,
    trivial_bijection,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_UNKNOWN_NAME = 5

# Input that parses but breaks a structural invariant of its object.
_INVARIANT_ERRORS = (NotAPermutation, PathBelowAxis, PathNotClosed,
                     WeightOutOfBounds)

DEFAULT_MAX_N = 10
# The last moment is at most (count + alpha)!, which has 2,568 digits at
# 1000: within Python's 4,300-digit limit on int-to-str conversion.
MAX_MOMENTS_SIZE = 1000


class _Exit(Exception):
    """Ends a subcommand with an error message and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _max_n() -> int:
    raw = os.environ.get("LAGUERRE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise _Exit(EXIT_BAD_ARGS,
                    f"LAGUERRE_MAX_N must be an integer, got {raw!r}") from None


def _check_size(name: str, value: int) -> None:
    limit = _max_n()
    if not 1 <= value <= limit:
        raise _Exit(EXIT_BAD_ARGS, f"{name} must be in 1..{limit}")


_T = TypeVar("_T")


def _parse(parse: Callable[[str], _T], text: str) -> _T:
    """``parse(text)``: an invariant violation exits 4, any other ValueError 3."""
    try:
        return parse(text)
    except _INVARIANT_ERRORS as exc:
        raise _Exit(EXIT_INVARIANT, str(exc)) from None
    except ValueError as exc:
        raise _Exit(EXIT_PARSE, str(exc)) from None


def _perm_text(pi: Permutation, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(pi.to_json())
    return pi.to_text()


def _history_text(h: LaguerreHistory, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(h.to_json())
    if fmt == "csv":
        word, weights = h.to_text().split("/")
        return f"{word},{weights.replace(',', ' ')}"
    return h.to_text()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_size("n", args.n)
    count = 0
    if args.kind == "perms":
        for pi in iter_perms(args.n):
            print(_perm_text(pi, args.format))
            count += 1
    else:
        for h in enumerate_histories(args.n):
            print(_history_text(h, args.format))
            count += 1
    if args.format == "json":
        print(json.dumps({"count": count}))
    elif args.format == "csv":
        print(f"count,{count}")
    else:
        print(f"count: {count}")
    return EXIT_OK


_PERM_MAPS = {
    "fv": phi_fv,
    "fz": phi_fz,
    "yzl": phi_yzl,
    "csz": phi_csz,
    "phi": lambda pi: conjugated_map(pi, "phi"),
    "eta": lambda pi: conjugated_map(pi, "eta"),
    "rho": lambda pi: conjugated_map(pi, "rho"),
    "theta": theta,
    "kreweras": kreweras,
    "mfs": mfs_full,
    "r": lambda pi: trivial_bijection(pi, "r"),
    "c": lambda pi: trivial_bijection(pi, "c"),
    "i": lambda pi: trivial_bijection(pi, "i"),
    "rci": lambda pi: trivial_bijection(pi, "rci"),
}

_HISTORY_MAPS = {
    "fv-inv": phi_fv_inv,
    "fz-inv": phi_fz_inv,
    "yzl-inv": phi_yzl_inv,
    "xi": xi,
}


def cmd_map(args: argparse.Namespace) -> int:
    via = args.via
    if via in _PERM_MAPS:
        image = _PERM_MAPS[via](_parse(Permutation.from_text, args.input))
    else:
        image = _HISTORY_MAPS[via](_parse(LaguerreHistory.from_text, args.input))
    if isinstance(image, Permutation):
        print(_perm_text(image, args.format))
    else:
        print(_history_text(image, args.format))
    return EXIT_OK


def _record_fields(record, multiset: Callable, sequence: Callable):
    """(name, value) per field, multisets and tuples rendered by the given
    functions."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, IntMultiset):
            value = multiset(value)
        elif isinstance(value, tuple):
            value = sequence(value)
        yield field.name, value


def _record_json(record) -> dict:
    return dict(_record_fields(record, IntMultiset.to_json, list))


def _record_csv_rows(family: str, record):
    """One (family, field, value) row per field: multisets in their text
    form, tuples comma-joined."""
    for name, value in _record_fields(record, IntMultiset.to_text,
                                      lambda t: ",".join(map(str, t))):
        yield family, name, value


def cmd_stat(args: argparse.Namespace) -> int:
    pi = _parse(Permutation.from_text, args.perm)
    if args.stat == "all":
        records = {
            "linear": linear_family(pi),
            "cyclic": cyclic_family(pi),
            "shifted": shifted_family(pi),
        }
        if args.format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            for family, record in records.items():
                writer.writerows(_record_csv_rows(family, record))
        else:
            print(json.dumps({family: _record_json(record)
                              for family, record in records.items()}))
        return EXIT_OK
    value = statistic(args.stat)(pi)
    if args.format == "json":
        print(json.dumps({"stat": args.stat, "value": value}))
    elif args.format == "csv":
        print(f"{args.stat},{value}")
    else:
        print(value)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    _check_size("n", args.n)
    stats = [s for s in args.stats.split(",") if s] if args.stats else []
    pattern = _parse(Permutation.from_text, args.filter).word if args.filter else None
    poly = joint_distribution(args.n, stats, pattern)
    if args.format == "json":
        print(json.dumps(poly.to_json()))
    elif args.format == "csv":
        for term in poly.to_json():
            exps = " ".join(f"{k}={v}" for k, v in term["exps"].items())
            print(f"{term['coeff']},{exps}")
    else:
        print(poly.to_text())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    ids = claim_ids() if args.claim == "all" else (args.claim,)
    _check_size("n-max", args.n_max)
    failed = False
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for claim_id in ids:
        for n in range(1, args.n_max + 1):
            outcome = run_claim(claim_id, n)
            if args.format == "json":
                print(json.dumps(outcome.to_json()))
            elif args.format == "csv":
                writer.writerow((outcome.claim, outcome.n, outcome.status,
                                 outcome.checked, outcome.millis,
                                 outcome.counterexample or ""))
            else:
                line = (
                    f"{outcome.claim} n={outcome.n}: {outcome.status}"
                    f" (checked {outcome.checked}, {outcome.millis} ms)"
                )
                if outcome.counterexample:
                    line += f" counterexample: {outcome.counterexample}"
                print(line)
            if outcome.status != "pass":
                failed = True
    return EXIT_CLAIM_FAILED if failed else EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    if args.count < 1 or args.alpha < 0:
        raise _Exit(EXIT_BAD_ARGS,
                    "count must be positive and alpha nonnegative")
    if args.count + args.alpha > MAX_MOMENTS_SIZE:
        raise _Exit(EXIT_BAD_ARGS,
                    f"count + alpha must be at most {MAX_MOMENTS_SIZE}")
    values = laguerre_moments(args.alpha, args.count)
    if args.format == "json":
        print(json.dumps(values))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    else:
        for k, v in enumerate(values):
            print(f"mu_{k} = {v}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlaguerre",
        description="Weighted bicolored Motzkin paths, permutation"
        " statistics, and the bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")

    p = sub.add_parser("enumerate", help="list all objects of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("perms", "histories"), default="perms")
    add_format(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection or involution")
    p.add_argument("--via", required=True,
                   choices=sorted(_PERM_MAPS) + sorted(_HISTORY_MAPS))
    p.add_argument("input", help="permutation or path in canonical text form")
    add_format(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("stat", help="evaluate a statistic on a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--stat", required=True,
                   help="a statistic name, a vincular pattern literal,"
                   " or 'all'")
    add_format(p)
    p.set_defaults(fn=cmd_stat)

    p = sub.add_parser("distribution",
                       help="joint distribution polynomial over S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stats", default="",
                   help="comma-separated statistic names")
    p.add_argument("--filter", default=None,
                   help="classical pattern to avoid, e.g. 312")
    add_format(p)
    p.set_defaults(fn=cmd_distribution)

    p = sub.add_parser("verify", help="run a registered claim exhaustively")
    p.add_argument("--claim", required=True,
                   help="a claim id or 'all'")
    p.add_argument("--n-max", type=int, default=6)
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("moments",
                       help="continued-fraction moment sequence")
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_moments)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (UnknownStatistic, UnknownClaim) as exc:
        kind = "statistic" if isinstance(exc, UnknownStatistic) else "claim"
        print(f"error: unknown {kind} {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME


if __name__ == "__main__":
    sys.exit(main())
