"""The benchmark workloads, as lists of timed operations ("ops").

An op is one call a user of the library makes (one claim at one size, one
polynomial, one distribution, one round-trip sweep, one permutation pushed
through the per-object pipeline) or one block of a statistic sweep.  An op
returns its raw result; checking it against an independent expectation
happens outside the timed call.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import srlaguerre as S

HISTORY_CLAIMS = ("thm3.2-involution", "cor3.3", "cor3.6", "cor1.1")
ENCODING_CLAIMS = (
    "prop4.3", "cor4.4", "prop4.10", "csz-corollary", "eta-corollary",
    "prop4.17", "lem4.14", "rho-corollary", "thm4.6", "fact4.8",
    "thm4.23-eq35", "thm4.23-eq36", "eq14", "eq17", "eq18", "eq19",
    "eq19-restricted", "lem4.21", "lem4.22",
)
MAHONIAN_CLAIMS = ("tab3-mahonian", "thm4.20", "eq34")
# Claims that check one whole-size distribution instead of one item each.
WHOLE_SIZE_CLAIMS = frozenset(
    ("eq14", "eq17", "eq18", "eq19", "eq19-restricted", "tab3-mahonian")
)
PIPELINE_CLAIMS = ("thm4.20", "eq34", "lem4.21")

# Term counts of A_n as the code computed them when this benchmark was
# written; the coefficient sum n! is checked independently.
A_POLYNOMIAL_TERMS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 91, 6: 382, 7: 1462, 8: 4878}

ENCODINGS = (
    ("phi_fv", "phi_fv_inv"),
    ("phi_fz", "phi_fz_inv"),
    ("phi_yzl", "phi_yzl_inv"),
)


@dataclass(frozen=True)
class Sizes:
    """Sizes of the exhaustive workloads; ``SMOKE`` shrinks them for tests."""

    histories_n: int
    encodings_n: int
    mahonian_n: int


FULL = Sizes(histories_n=7, encodings_n=6, mahonian_n=7)
SMOKE = Sizes(histories_n=4, encodings_n=4, mahonian_n=4)
ENCODING_THREADS = 2
SWEEP_BLOCKS = 10


@dataclass
class Op:
    label: str  # claim id or operation name, as recorded in failures
    n: int
    items: int  # objects swept
    call: Callable[[], object]
    # Returns (checks attempted, [(item, check label) for each failed check]).
    check: Callable[[object], tuple[int, list[tuple[str, str]]]]
    digest: Callable[[object], str]


# -- independent expectations ----------------------------------------------

def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def q_factorial(n: int) -> Counter:
    """Coefficients of [n]_q! = prod_{k<=n} (1 + q + ... + q^(k-1))."""
    coeffs = Counter({0: 1})
    for k in range(1, n + 1):
        new: Counter = Counter()
        for e, c in coeffs.items():
            for j in range(k):
                new[e + j] += c
        coeffs = new
    return coeffs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- ops ----------------------------------------------------------------------

def _claim_items(claim_id: str, n: int) -> int:
    return catalan(n) if claim_id == "eq19-restricted" else math.factorial(n)


def claim_op(claim_id: str, n: int, threads: int = 1) -> Op:
    expected = 1 if claim_id in WHOLE_SIZE_CLAIMS else math.factorial(n)

    def check(outcome) -> tuple[int, list[tuple[str, str]]]:
        bad = []
        if outcome.status != "pass":
            bad.append((outcome.counterexample or "", "status is pass"))
        if outcome.checked != expected:
            bad.append((f"checked {outcome.checked}", f"checked == {expected}"))
        return 2, bad

    return Op(
        claim_id, n, _claim_items(claim_id, n),
        lambda: S.run_claim(claim_id, n, threads=threads),
        check,
        lambda o: f"{o.status}|{o.checked}|{o.counterexample}",
    )


def _poly_digest(poly) -> str:
    return _sha(repr(sorted(poly.terms.items())))


def a_polynomial_op(n: int) -> Op:
    def check(poly) -> tuple[int, list[tuple[str, str]]]:
        bad = []
        if len(poly.terms) != A_POLYNOMIAL_TERMS[n]:
            bad.append((f"{len(poly.terms)} terms", f"terms == {A_POLYNOMIAL_TERMS[n]}"))
        if sum(poly.terms.values()) != math.factorial(n):
            bad.append((f"sum {sum(poly.terms.values())}", "coefficient sum == n!"))
        return 2, bad

    return Op("a_polynomial", n, math.factorial(n), lambda: S.a_polynomial(n), check, _poly_digest)


def qt_catalan_op(n: int) -> Op:
    def check(poly) -> tuple[int, list[tuple[str, str]]]:
        total = sum(poly.terms.values())
        if total != catalan(n):
            return 1, [(f"value {total}", "value at t=q=1 == Catalan(n)")]
        return 1, []

    return Op("qt_catalan", n, math.factorial(n), lambda: S.qt_catalan(n), check, _poly_digest)


def distribution_op(n: int, names: tuple[str, ...]) -> Op:
    """joint_distribution over S_n; every one-variable marginal is [n]_q!."""
    expected = q_factorial(n)

    def check(poly) -> tuple[int, list[tuple[str, str]]]:
        bad = []
        for k, name in enumerate(names):
            marginal: Counter = Counter()
            for exps, coeff in poly.terms.items():
                marginal[exps[k]] += coeff
            if marginal != expected:
                bad.append((name, "marginal == [n]_q!"))
        return len(names), bad

    return Op("joint_distribution", n, math.factorial(n),
              lambda: S.joint_distribution(n, list(names)), check, _poly_digest)


def round_trip_op(encode: str, decode: str, n: int) -> Op:
    def call():
        enc, dec = getattr(S, encode), getattr(S, decode)
        wrong = []
        for word in permutations(range(1, n + 1)):
            pi = S.Permutation(word)
            if dec(enc(pi)) != pi:
                wrong.append(pi.to_text())
        return wrong

    return Op(
        f"round_trip:{encode}", n, math.factorial(n), call,
        lambda wrong: (math.factorial(n), [(w, f"{decode}({encode}(pi)) == pi") for w in wrong]),
        lambda wrong: repr(wrong),
    )


def pipeline(word: tuple[int, ...]) -> tuple:
    """One permutation through every per-object kernel, as `stat`/`map` use them."""
    pi = S.Permutation(word)
    n = pi.n
    histories = tuple(getattr(S, enc)(pi) for enc, _ in ENCODINGS)
    decoded = tuple(getattr(S, dec)(h) for (_, dec), h in zip(ENCODINGS, histories))
    twice = S.xi(S.xi(histories[0]))
    record = S.history_statistics(histories[0])
    rho = S.conjugated_map(pi, "rho")
    families = (S.linear_family(pi), S.cyclic_family(pi), S.shifted_family(pi))
    patterns = S.pattern_multisets(pi)
    mahonian = tuple(S.mahonian(pi, name) for name in S.MAHONIAN_NAMES)
    hop = S.mfs_full(pi)
    identities = tuple(S.get_claim(c).test(n, pi) for c in PIPELINE_CLAIMS)
    return pi, histories, decoded, twice, record, rho, families, patterns, mahonian, hop, identities


def pipeline_op(word: tuple[int, ...], index: int) -> Op:
    def check(out) -> tuple[int, list[tuple[str, str]]]:
        pi, histories, decoded, twice, *_, identities = out
        item = f"#{index}:{_sha(repr(word))}"
        bad = []
        for (enc, dec), back in zip(ENCODINGS, decoded):
            if back != pi:
                bad.append((item, f"{dec}({enc}(pi)) == pi"))
        if twice != histories[0]:
            bad.append((item, "xi(xi(h)) == h"))
        for claim_id, problem in zip(PIPELINE_CLAIMS, identities):
            if problem is not None:
                bad.append((item, f"{claim_id} holds"))
        return len(ENCODINGS) + 1 + len(PIPELINE_CLAIMS), bad

    def digest(out) -> str:
        return _sha(repr(out[1:]))

    return Op("pipeline", len(word), 1, lambda: pipeline(word), check, digest)


# -- workloads ----------------------------------------------------------------

def histories_ops(sizes: Sizes, inputs: dict) -> list[Op]:
    top = sizes.histories_n
    ops = [claim_op(c, n) for c in HISTORY_CLAIMS for n in range(1, top + 1)]
    return ops + [a_polynomial_op(top), qt_catalan_op(top)]


def encodings_ops(sizes: Sizes, inputs: dict) -> list[Op]:
    top = sizes.encodings_n
    ops = [
        claim_op(c, n, threads=ENCODING_THREADS)
        for c in ENCODING_CLAIMS
        for n in range(1, top + 1)
    ]
    return ops + [round_trip_op(enc, dec, top) for enc, dec in ENCODINGS]


def sweep_ops(label: str, perms: list, n: int, names: tuple[str, ...]) -> list[Op]:
    """Evaluate the named statistics on each permutation, in blocks.

    One name is one name's pass of the names-outside loop of the Mahonian
    claims; all names at once is the permutations-outside loop of
    joint_distribution.  Blocks keep each timed op short.  The last block
    checks that every name's values over S_n are Mahonian.
    """
    size = -(-math.factorial(n) // SWEEP_BLOCKS)
    expected = q_factorial(n)
    seen: list[tuple[int, ...]] = []

    def op(lo: int) -> Op:
        last = lo + size >= math.factorial(n)

        def call():
            fns = [S.statistic(name) for name in names]
            return [tuple(fn(pi) for fn in fns) for pi in perms[lo:lo + size]]

        def check(values):
            seen.extend(values)
            if not last:
                return 0, []
            bad = [
                (name, "values over S_n are Mahonian")
                for k, name in enumerate(names)
                if Counter(v[k] for v in seen) != expected
            ]
            return len(names), bad

        items = min(size, math.factorial(n) - lo)
        return Op(label, n, items, call, check, lambda values: _sha(repr(values)))

    return [op(lo) for lo in range(0, math.factorial(n), size)]


def mahonian_ops(sizes: Sizes, inputs: dict) -> list[Op]:
    top = sizes.mahonian_n
    # tab3 sweeps names outside and permutations inside; at the top size it
    # takes 20 s, so the claims run up to one size lower, where S_n fits the
    # 4,096-entry ingredient cache.  At the top size, where it does not, both
    # loop orders are driven here over the same permutations: two seeded
    # names one after the other, then all names per permutation.
    ops = [claim_op(c, n) for c in MAHONIAN_CLAIMS for n in range(1, top)]
    ops.append(distribution_op(top - 1, tuple(S.MAHONIAN_NAMES)))
    perms: list = []
    ops.append(Op(
        "iter_perms", top, math.factorial(top),
        lambda: perms.extend(S.iter_perms(top)) or len(perms),
        lambda count: (1, [] if count == math.factorial(top) else [(str(count), "n! permutations")]),
        repr,
    ))
    for name in inputs["names"]:
        ops += sweep_ops(f"names_outside:{name}", perms, top, (name,))
    ops += sweep_ops("perms_outside", perms, top, tuple(S.MAHONIAN_NAMES))
    return ops


def large_ops(sizes: Sizes, inputs: dict) -> list[Op]:
    return [pipeline_op(tuple(word), k) for k, word in enumerate(inputs["words"])]


WORKLOADS: dict[str, Callable[[Sizes, dict], list[Op]]] = {
    "histories-n7": histories_ops,
    "encodings-n6": encodings_ops,
    "mahonian-n7": mahonian_ops,
    "large-n300": large_ops,
}
