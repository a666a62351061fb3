"""Tests for the claim runner: pinned counterexample strings, threads, and
mutations of the encoders, the letter-class rule, the shared sweeps, the
family loops, the encoding-claim table, its formulas, its conjugation
pairs and the csz rows that the claims must catch, and mutations of xi's
contract and of cor3.6's Nde/Asc pass that its record oracle must notice."""
from __future__ import annotations

import ast
import copy
import inspect
import sys
import textwrap
import threading
import types
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from test_kernel_oracles import (
    _old_cyclic_family,
    _old_linear_family,
    _old_shifted_family,
    record_outcomes,
)

from srlaguerre import bijections, claims, genfun, histories, mfs_action, perm_stats
from srlaguerre.bijections import (
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
)
from srlaguerre.claims import claim_ids, run_claim
from srlaguerre.cli import main
from srlaguerre.histories import NDE_STEPS, NE_STEPS, LaguerreHistory, StepType
from srlaguerre.involution import verify_xi_contract
from srlaguerre.mfs_action import StarredClasses
from srlaguerre.multiset import IntMultiset, OutOfRange
from srlaguerre.perm_stats import Permutation, iter_perms, trivial_bijection


def _first_failure(claim_id: str) -> tuple:
    for n in range(1, 6):
        outcome = run_claim(claim_id, n)
        if outcome.status == "fail":
            return (claim_id, n, outcome.checked, outcome.counterexample)
    return (claim_id, None, None, None)


# (patched claims dependency, replacement, expected first failures).  Each
# expected row is (claim, first failing n in 1..5, checked, counterexample);
# the counterexample text is part of the verify report format.
PINNED = [
    ("xi", lambda history: history, [
        ("thm3.2-involution", 2, 0, "NS/0,1: defining conditions violated"),
        ("cor3.3", 2, 0, "NS/0,1: (0, 0, 0, 0, 1) != (0, 1, 0, 0, 0)"),
        ("cor3.6", 2, 0, "NS/0,1: Neb: {} != {1}"),
        ("cor1.1", 2, 0, "NS/0,1: exponent relations violated"),
    ]),
    ("phi_fv", phi_fz, [
        ("prop4.3", 3, 3, "2,3,1: Dta: {3} != {2,3}"),
    ]),
    ("phi_fz", phi_fv, [
        ("prop4.10", 3, 3, "2,3,1: Exca: {2,3} != {3}"),
    ]),
    ("phi_yzl", phi_fz, [
        ("prop4.17", 2, 0, "1,2: Vnepa: {2} != {}"),
    ]),
    ("trivial_bijection", lambda pi, which: pi, [
        ("thm4.20", 2, 0, "1,2: mad_p/sist_pp: 1 != 0"),
        ("eq34", 3, 1, "1,3,2: yzl2 != inv_p of reverse-complement-inverse"),
    ]),
    ("conjugated_map", lambda pi, which: pi, [
        ("cor4.4", 2, 0, "1,2: Dta: {} != {2}"),
        ("eta-corollary", 2, 0, "1,2: Exc: {} != {2}"),
        ("rho-corollary", 2, 0, "1,2: Vnepa: {2} != {}"),
    ]),
    # The complement passes cor4.4's first row at n = 3, so the text of a
    # later row is pinned too.
    ("conjugated_map", lambda pi, which: trivial_bijection(pi, "c"), [
        ("cor4.4", 3, 1, "1,3,2: 31-2: {} != {2}"),
    ]),
    ("phi_csz", lambda pi: pi, [
        ("csz-corollary", 3, 3, "2,3,1: Dt/Exc: {3} != {2,3}"),
    ]),
    ("coordinate_counts_by_extrema",
     lambda pi: dict.fromkeys(("2-13", "2-31", "31-2"), (0,) * pi.n), [
        ("fact4.8", 2, 0, "1,2: 2-31 at 1: 1 != 0"),
    ]),
]


def _pin_ids(rows) -> list[str]:
    """Each row's patched name; a name patched again is suffixed with the
    first claim its row pins."""
    seen: set[str] = set()
    ids = []
    for name, _, expected in rows:
        ids.append(f"{name}-{expected[0][0]}" if name in seen else name)
        seen.add(name)
    return ids


@pytest.mark.parametrize("name, replacement, expected", PINNED,
                         ids=_pin_ids(PINNED))
def test_counterexample_strings_are_pinned(monkeypatch, name, replacement,
                                           expected):
    monkeypatch.setattr(claims, name, replacement)
    assert [_first_failure(row[0]) for row in expected] == expected


@pytest.mark.parametrize("n", [0, -1])
def test_sizes_below_one_are_rejected_before_any_sweep(monkeypatch, n):
    def refuse(size):
        raise AssertionError("a sweep started")

    for source in claims._ITEMS:
        monkeypatch.setitem(claims._ITEMS, source, refuse)
    for claim in claim_ids():
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            run_claim(claim, n)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
def test_non_integer_sizes_are_rejected_before_any_sweep(monkeypatch, n):
    # 2.5 used to pass with checked = 0 and True to run as n = 1.
    def refuse(size):
        raise AssertionError("a sweep started")

    for source in claims._ITEMS:
        monkeypatch.setitem(claims._ITEMS, source, refuse)
    for claim in claim_ids():
        with pytest.raises(ValueError, match="claim sizes must be integers"):
            run_claim(claim, n)


def test_valley_hopping_reports_only_containment_failures(monkeypatch):
    """thm4.6 turns a starred class that does not fit into a counterexample,
    but lets a programming error propagate."""
    big = IntMultiset(range(1, 9))
    monkeypatch.setattr(claims, "starred_classes",
                        lambda pi: StarredClasses(big, big, big, IntMultiset()))
    outcome = run_claim("thm4.6", 3)
    assert (outcome.status, outcome.checked, outcome.counterexample) == (
        "fail", 0, "1,2,3: difference would give value 3 a negative multiplicity")
    monkeypatch.setattr(claims, "starred_classes",
                        lambda pi: StarredClasses(None, None, None, None))
    with pytest.raises(AttributeError):
        run_claim("thm4.6", 3)


def test_threads_option_starts_no_thread(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_claim("prop4.3", 4, threads=4).status == "pass"
    assert main(["verify", "--claim", "cor3.3", "--n-max", "4"]) == 0
    assert "fail" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "cor3.3", "--n-max", "4", "--threads", "4"])
    assert exc.value.code == 2


def _patch_everywhere(monkeypatch, original, mutant) -> None:
    """Rebind ``original`` to ``mutant`` in every srlaguerre namespace,
    since the modules import each other's functions by name."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("srlaguerre"):
            for name, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, name, mutant)


def _swapping(classifier, a: StepType, b: StepType):
    swap = {a: b, b: a}

    def mutant(*args):
        out = classifier(*args)
        return [swap.get(s, s) for s in out] if isinstance(out, list) else swap.get(out, out)

    return mutant


def _first_catch() -> str | None:
    """The first claim or round trip at n <= 5 that fails or raises."""
    for n in range(1, 6):
        for claim in ("prop4.3", "prop4.10", "prop4.17", "lem4.14"):
            try:
                if run_claim(claim, n).status == "fail":
                    return f"{claim} at n={n}"
            except ValueError as exc:
                return f"{claim} at n={n}: {exc!r}"
        for pi in iter_perms(n):
            for encode, decode in ((phi_fv, phi_fv_inv), (phi_fz, phi_fz_inv),
                                   (phi_yzl, phi_yzl_inv)):
                try:
                    if decode(encode(pi)) != pi:
                        return f"{encode.__name__} round trip at {pi.to_text()}"
                except ValueError as exc:
                    return f"{encode.__name__} round trip at {pi.to_text()}: {exc!r}"
    return None


_CLASSIFIERS = (perm_stats.linear_classes, perm_stats.cyclic_classes,
                perm_stats.shifted_classes)
_MUTANTS = [("weight rule", bijections._history,
             lambda steps, counts: LaguerreHistory(steps, list(counts)))] + [
    (f"{f.__name__} {a.name}<->{b.name}", f, _swapping(f, a, b))
    for f in _CLASSIFIERS for a, b in combinations(StepType, 2)]


# Every mutant is caught today at n <= 3, by the encoded history failing
# LaguerreHistory's own validation (a path or weight bound) inside a claim.
@pytest.mark.parametrize("label, original, mutant", _MUTANTS,
                         ids=[row[0] for row in _MUTANTS])
def test_encoder_mutants_are_caught(monkeypatch, label, original, mutant):
    _patch_everywhere(monkeypatch, original, mutant)
    assert _first_catch() is not None, f"mutant survives: {label}"


def test_phi_yzl_reads_the_shifted_classifier(monkeypatch):
    # So the shifted_classes mutants above reach the encoding as well as the
    # shifted family.
    calls = []
    shifted_classes = perm_stats.shifted_classes

    def recording(*args):
        calls.append(args)
        return shifted_classes(*args)

    _patch_everywhere(monkeypatch, shifted_classes, recording)
    phi_yzl(Permutation([2, 3, 1]))
    assert calls == [((2, 3, 4), (1, 2, 3))]


# Every swap of two entries of the one rule that maps a letter's two
# comparisons to its step, ``perm_stats._STEPS``: each changes the linear,
# cyclic and shifted classes at once.
@pytest.mark.parametrize("a, b", list(combinations(StepType, 2)),
                         ids=lambda step: step.name)
def test_letter_rule_swaps_are_caught(monkeypatch, a, b):
    steps = list(perm_stats._STEPS)
    steps[a], steps[b] = steps[b], steps[a]
    monkeypatch.setattr(perm_stats, "_STEPS", tuple(steps))
    assert _first_catch() is not None, f"rule swap survives: {a.name}<->{b.name}"


def _lowering_weight(encode):
    """``encode`` with the weight of the last N or E step of weight >= 1
    lowered by one; N and E weights start at 0, so the history stays
    valid."""
    def mutant(steps, counts):
        history = encode(steps, counts)
        c = list(history.c)
        for i in range(len(c) - 1, -1, -1):
            if history.w[i] in NE_STEPS and c[i]:
                c[i] -= 1
                break
        return LaguerreHistory(history.w, c)

    return mutant


# The lowered weight passes LaguerreHistory's validation, so only the claims'
# own comparisons can notice it.
@pytest.mark.parametrize("claim", ["prop4.3", "prop4.10", "prop4.17"])
def test_valid_weight_mutant_fails_the_claims(monkeypatch, claim):
    _patch_everywhere(monkeypatch, bijections._history,
                      _lowering_weight(bijections._history))
    statuses = [run_claim(claim, n).status for n in range(1, 6)]
    assert "fail" in statuses, statuses


def _variant_nesting_without_decrement(word, nest, pone):
    """``perm_stats._variant_nesting`` with its ``i < pone`` rule dropped."""
    vnest = list(nest)
    for i in range(pone + 1, len(word) + 1):
        if word[i - 1] > i:
            vnest[i - 1] += 1
    return tuple(vnest)


def _variant_nesting_without_increment(word, nest, pone):
    """``perm_stats._variant_nesting`` with its ``i > pone`` rule dropped."""
    vnest = list(nest)
    for i in range(1, pone):
        if word[i - 1] <= i:
            vnest[i - 1] -= 1
    return tuple(vnest)


def _side_numbers_of_excedances_only(word):
    """``perm_stats._side_numbers`` without its right-to-left sweep, so
    every non-excedance gets side number 0."""
    side = [0] * len(word)
    seen: list[int] = []
    for p, v in enumerate(word):
        if v > p + 1:
            side[p] = len(seen) - bisect_left(seen, v)
            insort(seen, v)
    return tuple(side)


_one_glue_counts = perm_stats._one_glue_counts


def _one_glue_between_after_off_by_one(word, ranks):
    """``perm_stats._one_glue_counts`` with hi - lo letters, not hi - lo - 1,
    between a pair (lo, hi) in all, so u13_2 and u31_2 gain one per pair."""
    g = _one_glue_counts(word, ranks)
    ascents = sum(1 for a, b in zip(word, word[1:]) if a < b)
    g["u13_2"] += ascents
    g["u31_2"] += len(word) - 1 - ascents
    return g


def _one_glue_before_directions_swapped(word, ranks):
    """``perm_stats._one_glue_counts`` with the rising and falling sums of
    the letters before a pair swapped: 1u23, 2u13, 3u12 trade counts with
    1u32, 2u31, 3u21."""
    g = _one_glue_counts(word, ranks)
    for rising, falling in (("1u23", "1u32"), ("2u13", "2u31"), ("3u12", "3u21")):
        g[rising], g[falling] = g[falling], g[rising]
    return g


def _left_ranks_appended(letters):
    """``perm_stats._left_ranks`` appending each letter to ``seen`` instead
    of inserting it at its sorted place."""
    seen: list[int] = []
    ranks = []
    for v in letters:
        ranks.append(bisect_left(seen, v))
        seen.append(v)
    return ranks


# The shared sweeps feed the families, the encodings, the Mahonian
# ingredients and the pattern-sum claims together; each mutant must fail a
# claim through its comparison (first failure at n <= 5, no exception).  A
# mutant replaces every binding of its function, since claims imports one.
SWEEP_MUTANTS = [
    ("_variant_nesting", _variant_nesting_without_decrement, {
        "eq34": (3, "3,2,1: yzl1 != den_p of reverse-complement-inverse"),
        "tab2-mahonian": (3, "yzl1 is not Mahonian at n=3"),
    }),
    ("_variant_nesting", _variant_nesting_without_increment, {
        "eq34": (3, "1,3,2: yzl1 != den_p of reverse-complement-inverse"),
        "tab2-mahonian": (3, "yzl1 is not Mahonian at n=3"),
    }),
    ("_side_numbers", _side_numbers_of_excedances_only, {
        "eq34": (3, "3,2,1: yzl1 != den_p of reverse-complement-inverse"),
        "tab3-mahonian": (3, "den is not Mahonian at n=3"),
    }),
    ("_one_glue_counts", _one_glue_between_after_off_by_one, {
        "tab3-mahonian": (2, "inv is not Mahonian at n=2"),
        "eq14": (2, "distributions differ near ((0, 0, 0, 0, 0), 1)"),
        "lem4.22": (2, "1,2: 2 != 1"),
    }),
    # Swapping 2-13 with 2-31 on both sides of eq14 leaves it true, so only
    # the identities that read the before-side counts one by one see it.
    ("_one_glue_counts", _one_glue_before_directions_swapped, {
        "tab3-mahonian": (3, "maj is not Mahonian at n=3"),
        "eq14": (None, None),
        "lem4.22": (3, "1,2,3: 2 != 3"),
    }),
    # prop4.17 is not listed: under this mutant phi_yzl builds an
    # out-of-range weight, which raises instead of failing a comparison.
    ("_left_ranks", _left_ranks_appended, {
        "tab3-mahonian": (3, "bast is not Mahonian at n=3"),
        "eq34": (3, "3,1,2: yzl1 != den_p of reverse-complement-inverse"),
        "lem4.21": (3, "3,1,2: 2 != 1"),
    }),
]


@pytest.fixture
def fresh_ingredients():
    """An empty Mahonian ingredient cache before and after the test, so no
    value computed by a mutant outlives it."""
    perm_stats._ingredients.cache_clear()
    yield
    perm_stats._ingredients.cache_clear()


@pytest.mark.parametrize("name, mutant, expected", SWEEP_MUTANTS,
                         ids=[row[1].__name__.lstrip("_") for row in SWEEP_MUTANTS])
def test_shared_sweep_mutants_fail_the_claims(fresh_ingredients, monkeypatch,
                                              name, mutant, expected):
    _patch_everywhere(monkeypatch, getattr(perm_stats, name), mutant)
    got = {claim: _first_failure(claim)[1::2] for claim in expected}
    assert got == expected


def _rewritten(name: str, edits, module=perm_stats) -> types.FunctionType:
    """``module.<name>`` compiled from its source with, for each (old, new)
    edit, the one statement or expression that unparses to ``old``
    replaced by ``new``.  It runs in a copy of the module's namespace."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(module, name))))
    for old, new in edits:
        sites = [(parent, field, node) for parent in ast.walk(tree)
                 for field, value in ast.iter_fields(parent)
                 for node in (value if isinstance(value, list) else [value])
                 if isinstance(node, ast.AST) and ast.unparse(node) == old]
        assert len(sites) == 1, f"{name}: {len(sites)} sites read {old!r}"
        parent, field, node = sites[0]
        replacement = ast.parse(new).body[0]
        if isinstance(node, ast.expr):
            replacement = replacement.value
        value = getattr(parent, field)
        if isinstance(value, list):
            value[value.index(node)] = replacement
        else:
            setattr(parent, field, replacement)
    namespace = dict(vars(module))
    exec(compile(ast.fix_missing_locations(tree), module.__file__, "exec"), namespace)
    return namespace[name]


# Single-token mutants of the letter and pair loops of
# ``perm_stats._ingredients`` and of ``perm_stats._sorting_index``, each an
# AST rewrite of the function's source: (label, function, edits, the first
# failure (n, counterexample) at n <= 5 of each claim that reads the
# Mahonian ingredients).  Each must fail one of them by n = 4.  A survivor
# is a gap in the claims, not a reason to loosen this test.
_MAHONIAN_CLAIMS = ("tab2-mahonian", "tab3-mahonian", "thm4.20", "eq34")
INGREDIENT_MUTANTS = [
    ("vbot sums v", "_ingredients", [("vbot += v - 1", "vbot += v")], {
        "tab2-mahonian": (1, "yzl1 is not Mahonian at n=1"),
        "tab3-mahonian": (None, None),
        "thm4.20": (None, None),
        "eq34": (1, "1: yzl1 != den_p of reverse-complement-inverse"),
    }),
    ("excedance test v >= i", "_ingredients", [("v > i", "v >= i")], {
        "tab2-mahonian": (1, "fz4 is not Mahonian at n=1"),
        "tab3-mahonian": (1, "den is not Mahonian at n=1"),
        "thm4.20": (None, None),
        "eq34": (1, "1: yzl1 != den_p of reverse-complement-inverse"),
    }),
    ("ebot adds v", "_ingredients", [("ebot += i", "ebot += v")], {
        "tab2-mahonian": (2, "fz4 is not Mahonian at n=2"),
        "tab3-mahonian": (2, "den is not Mahonian at n=2"),
        "thm4.20": (None, None),
        "eq34": (2, "2,1: yzl1 != den_p of reverse-complement-inverse"),
    }),
    ("descent top and bottom swapped", "_ingredients",
     [("dtop += a", "dtop += b"), ("dbot += b", "dbot += a")], {
        "tab2-mahonian": (2, "mak_p is not Mahonian at n=2"),
        "tab3-mahonian": (2, "mak is not Mahonian at n=2"),
        "thm4.20": (2, "1,2: makl_p/makl: 1 != 2"),
        "eq34": (None, None),
    }),
    # Only tab3 reads sor.
    ("sor swap length off by one", "_sorting_index",
     [("total += v - 1 - i", "total += v - i")], {
        "tab2-mahonian": (None, None),
        "tab3-mahonian": (2, "sor is not Mahonian at n=2"),
        "thm4.20": (None, None),
        "eq34": (None, None),
    }),
]


@pytest.mark.parametrize("label, name, edits, expected", INGREDIENT_MUTANTS,
                         ids=[row[0] for row in INGREDIENT_MUTANTS])
def test_ingredient_loop_mutants_fail_the_claims(fresh_ingredients, monkeypatch,
                                                 label, name, edits, expected):
    monkeypatch.setattr(perm_stats, name, _rewritten(name, edits))
    got = {claim: _first_failure(claim)[1::2] for claim in _MAHONIAN_CLAIMS}
    assert any(n is not None and n <= 4 for n, _ in got.values()), f"{label} survives"
    assert got == expected


def test_unmutated_rewrite_passes_the_claims(fresh_ingredients, monkeypatch):
    for name in ("_ingredients", "_sorting_index"):
        monkeypatch.setattr(perm_stats, name, _rewritten(name, []))
    assert [_first_failure(claim)[1] for claim in _MAHONIAN_CLAIMS] == [None] * 4


_history_statistics = histories.history_statistics


def _asc_strict_for_every_step(history):
    """``history_statistics`` with the NE rule c_i < c_{i+1} for every step,
    as if its loop kept ``low = weight`` for SdE steps too."""
    c = history.c
    return replace(_history_statistics(history),
                   Asc=IntMultiset(i for i in range(1, history.n) if c[i - 1] < c[i]))


def _cs_step_left_out_of_nde(history):
    """``history_statistics`` without its branch that puts an N step at cs
    into Nde."""
    record = _history_statistics(history)
    return replace(record, Nde=IntMultiset(i for i in record.Nde if i != record.cs))


def _step_after_cs_counted_before(history):
    """``history_statistics`` with its before-side test ``i < cs`` widened
    to ``i < cs or i == cs + 1``."""
    record = _history_statistics(history)
    j = record.cs + 1
    if j > history.n:
        return record
    step = history.step(j)

    def moved(before, after, joins):
        kept = IntMultiset(i for i in after if i != j)
        return (before | IntMultiset([j]) if joins else before), kept

    neb, nea = moved(record.Neb, record.Nea, step in NE_STEPS)
    sdeb, sdea = moved(record.Sdeb, record.Sdea, step not in NE_STEPS)
    ndeb, ndea = moved(record.Ndeb, record.Ndea, step in NDE_STEPS)
    return replace(record, Neb=neb, Nea=nea, Sdeb=sdeb, Sdea=sdea, Ndeb=ndeb, Ndea=ndea)


def _last_weight_dropped_from_wt(history):
    """``history_statistics`` with its Wt entry skipped at i = n."""
    record = _history_statistics(history)
    return replace(record, Wt=IntMultiset(i for i in record.Wt if i != history.n))


def _first_failure_or_raise(claim_id: str) -> tuple:
    """(first failing n in 1..5, counterexample), with the exception's
    name in place of the text when the claim raises instead."""
    for n in range(1, 6):
        try:
            outcome = run_claim(claim_id, n)
        except ValueError as exc:
            return (n, f"raises {type(exc).__name__}")
        if outcome.status == "fail":
            return (n, outcome.counterexample)
    return (None, None)


# Mutants of the one-pass ``history_statistics``, each written as a wrapper
# with the output of the code mutation it names.  Every claim on histories
# is pinned: Props 4.3, 4.10 and 4.17 on the encodings read the record.
# (None, None) marks a claim that reads no mutated entry, so it is no gap:
# cor3.3 and cor1.1 count A_n's exponents in ``genfun._a_exponents``
# (whose mutants are ``A_EXPONENT_MUTANTS``), cor3.6 reads W and xi(W) in
# ``verify_xi_contract`` and the Nde/Asc pass of ``claims._reflects`` and
# builds records only to name a failure (the mutants of both are
# ``REFLECT_MUTANTS``), and only the linear view reads Asc.
_HISTORY_CLAIMS = ("cor3.3", "cor3.6", "cor1.1", "prop4.3", "prop4.10", "prop4.17")
HISTORY_STAT_MUTANTS = [
    (_asc_strict_for_every_step, [
        (None, None),
        (None, None),
        (None, None),
        (3, "3,2,1: Ides: {1,2} != {1}"),
        (None, None),
        (None, None),
    ]),
    (_cs_step_left_out_of_nde, [
        (None, None),
        (None, None),
        (None, None),
        (2, "2,1: Db: {1} != {}"),
        (2, "2,1: Ep: {1} != {}"),
        (2, "1,2: Vnex: {1} != {}"),
    ]),
    (_step_after_cs_counted_before, [
        (None, None),
        (None, None),
        (None, None),
        (2, "2,1: Dtb: {} != {2}"),
        (2, "2,1: Excb: {} != {2}"),
        (2, "1,2: Vnepb: {} != {2}"),
    ]),
    # The encoding claims subtract Nea and Sdea from Wt, so the short Wt
    # raises there instead of failing a comparison.
    (_last_weight_dropped_from_wt, [
        (None, None),
        (None, None),
        (None, None),
        (2, "raises ContainmentViolation"),
        (2, "raises ContainmentViolation"),
        (2, "raises ContainmentViolation"),
    ]),
]


@pytest.mark.parametrize("mutant, expected", HISTORY_STAT_MUTANTS,
                         ids=[row[0].__name__.lstrip("_") for row in HISTORY_STAT_MUTANTS])
def test_history_statistics_mutants_fail_the_claims(monkeypatch, mutant, expected):
    _patch_everywhere(monkeypatch, _history_statistics, mutant)
    assert claims.history_statistics is mutant
    got = [_first_failure_or_raise(claim) for claim in _HISTORY_CLAIMS]
    assert any(first != (None, None) for first in got), f"{mutant.__name__} survives"
    assert got == expected


# The same four mutations made in the counting pass ``genfun._a_exponents``,
# each an AST rewrite of its source: (label, edits, the first failure
# (n, counterexample) at n <= 5 of cor3.3 and cor1.1).  Each must fail one
# of them.  cor3.3 reads neither Asc nor Nde, so (None, None) there is no
# gap; a survivor is a gap in the claims, not a reason to loosen this test.
_EXPONENT_CLAIMS = ("cor3.3", "cor1.1")
A_EXPONENT_MUTANTS = [
    ("asc strict for every step", [("low = weight if ne else weight - 1", "low = weight")], [
        (None, None),
        (3, "NDS/0,1,1: exponent relations violated"),
    ]),
    ("cs step left out of nde", [("step in NDE_STEPS", "step in NDE_STEPS and i != cs")], [
        (None, None),
        (2, "NS/0,1: exponent relations violated"),
    ]),
    ("step after cs counted before", [("i < cs", "i < cs or i == cs + 1")], [
        (2, "NS/0,1: (0, 0, 1, 0, 0) != (0, 0, 0, 0, 1)"),
        (2, "NS/0,1: exponent relations violated"),
    ]),
    ("last weight dropped from wt", [("sum(c)", "sum(c[:-1])")], [
        (2, "NS/0,1: (1, 0, 0, 0, 1) != (0, 0, 0, 0, 1)"),
        (2, "NS/0,1: exponent relations violated"),
    ]),
]


@pytest.mark.parametrize("label, edits, expected", A_EXPONENT_MUTANTS,
                         ids=[row[0] for row in A_EXPONENT_MUTANTS])
def test_a_exponent_mutants_fail_the_claims(monkeypatch, label, edits, expected):
    _patch_everywhere(monkeypatch, genfun._a_exponents,
                      _rewritten("_a_exponents", edits, genfun))
    got = [_first_failure_or_raise(claim) for claim in _EXPONENT_CLAIMS]
    assert any(n is not None for n, _ in got), f"{label} survives"
    assert got == expected


def test_unmutated_a_exponents_rewrite_passes_the_claims(monkeypatch):
    _patch_everywhere(monkeypatch, genfun._a_exponents, _rewritten("_a_exponents", [], genfun))
    assert [_first_failure_or_raise(claim) for claim in _EXPONENT_CLAIMS] == [(None, None)] * 2


def test_exponent_claims_build_no_statistic_record(monkeypatch):
    # cor3.3 and cor1.1 read A_n's exponents off one counting pass; a claim
    # that goes back to ``history_statistics`` raises here.
    def refuse(history):
        raise AssertionError("history_statistics called")

    _patch_everywhere(monkeypatch, _history_statistics, refuse)
    for n in range(1, 6):
        for claim in _EXPONENT_CLAIMS:
            assert run_claim(claim, n).status == "pass", (claim, n)


def test_multiset_symmetry_builds_no_record_on_a_passing_history(monkeypatch):
    # cor3.6 reads W and xi(W) in one pass and builds the two records only
    # to name a failure; a claim that builds them on every history raises here.
    def refuse(history):
        raise AssertionError("history_statistics called")

    _patch_everywhere(monkeypatch, _history_statistics, refuse)
    for n in range(1, 7):
        assert run_claim("cor3.6", n).status == "pass", n


def _first_disagreement(function, edits) -> int | None:
    """The first n <= 5 at which ``function`` rewritten by ``edits`` and the
    record oracle differ, pass or fail, on some pair (W, V) of histories of
    length n.  ``verify_xi_contract`` is called on (W, V), ``_reflects`` on
    (n, W, V)."""
    mutant = _rewritten(function.__name__, edits, inspect.getmodule(function))
    verdict = (mutant if function is claims._reflects
               else lambda n, w_hist, v_hist: mutant(w_hist, v_hist))
    for n in range(0, 6):
        if any(verdict(n, w_hist, v_hist) != (text is None)
               for w_hist, v_hist, text in record_outcomes(n)):
            return n
    return None


# Single-token mutants of cor3.6's two checks, each an AST rewrite of its
# source: (label, function, edits, the first n <= 5 at which it disagrees
# with the record oracle on a pair of histories).  ``_reflects`` accepts a
# pair only if ``involution.verify_xi_contract`` does, which checks xi's
# conditions 1-4 (Cor 3.6's class, Ht and Wt identities) and which the
# thm3.2 claim calls too; its own pass then tests the Nde and Asc
# identities.  At n <= 5 the record oracle accepts exactly the pairs with
# V = xi(W), so a contract row is pinned where the contract first accepts
# other than xi's images.  A rewrite that makes a check stricter leaves
# cor3.6's outcome as it is, since the records then find no mismatch, so
# the pins compare the checks' own verdicts.  Equivalent rewrites are left
# out: ``j > crit`` -> ``j >= crit`` in the contract changes nothing, since
# step crit of V must be NE.
REFLECT_MUTANTS = [
    ("cs test run at n = 0", verify_xi_contract, [("n == 0", "False")], 0),
    ("crit off by one", verify_xi_contract, [("n + 1 - m", "n - m")], 1),
    ("class test run at cs", verify_xi_contract,
     [("if not ne:\n    return False",
       "if not ne or ne == (w_hist.w[n - j] in NE_STEPS):\n    return False")], 1),
    ("class test dropped", verify_xi_contract,
     [("ne == (w_hist.w[n - j] in NE_STEPS)", "False")], 3),
    ("Neb shift at cs", verify_xi_contract, [("j < crit and ne", "j <= crit and ne")], 1),
    ("Neb shift dropped", verify_xi_contract, [("j < crit and ne", "False")], 2),
    ("Sdea shift dropped", verify_xi_contract, [("j > crit and (not ne)", "False")], 2),
    ("height shift dropped", verify_xi_contract, [("g[j - 1] != expected", "g[j - 1] != hj")], 2),
    ("height not compared", verify_xi_contract, [("g[j - 1] != expected", "False")], 4),
    ("weight shift dropped", verify_xi_contract,
     [("b[j - 1] != g[j - 1] - hj + c[n - j]", "b[j - 1] != c[n - j]")], 2),
    ("weight not compared", verify_xi_contract,
     [("b[j - 1] != g[j - 1] - hj + c[n - j]", "False")], 4),
    ("Nde of V read off W", claims._reflects,
     [("nde = image in NDE_STEPS", "nde = step in NDE_STEPS")], 2),
    ("Nde of W read off V", claims._reflects,
     [("nde_before = step in NDE_STEPS", "nde_before = image in NDE_STEPS")], 2),
    ("b_{j+1} read off W", claims._reflects, [("weight_after = b_j", "weight_after = weight")], 2),
    ("ascent of V strict for every step", claims._reflects,
     [("low = b_j if image in NE_STEPS else b_j - 1", "low = b_j")], 3),
    ("ascent of W strict for every step", claims._reflects,
     [("low_before = weight if step in NE_STEPS else weight - 1", "low_before = weight")], 3),
    ("ascent of V not strict", claims._reflects, [("low < weight_after", "low <= weight_after")], 2),
    ("ascent of W not strict", claims._reflects,
     [("low_before < weight", "low_before <= weight")], 2),
]


@pytest.mark.parametrize("label, function, edits, expected", REFLECT_MUTANTS,
                         ids=[row[0] for row in REFLECT_MUTANTS])
def test_reflect_mutants_disagree_with_the_record_oracle(label, function, edits, expected):
    assert _first_disagreement(function, edits) == expected


def test_unmutated_reflect_rewrite_agrees_with_the_record_oracle():
    for function in (verify_xi_contract, claims._reflects):
        assert _first_disagreement(function, []) is None, function.__name__


# Rewrites of cor3.6's two checks that agree with the record oracle on
# every pair of histories with n <= 5 (and on all 518,400 pairs at n = 6,
# too many for this suite): (label, function, edits, what implies the
# weakened test).  They are a gap in what can catch a wrong xi, not a
# reason to loosen a check.  The Nde and Asc tests reject no pair that the
# contract accepts at these sizes, so weakening them changes no verdict.
REFLECT_SURVIVORS = [
    ("cs test dropped", verify_xi_contract, [("critical_step(v_hist) != crit", "False")],
     "condition 4 makes b_crit = 0 and, with condition 2, every b_j after crit positive"),
    ("Nde test dropped", claims._reflects, [("nde == nde_before", "False")],
     "the contract fixes V as xi(W)"),
    ("Asc test dropped", claims._reflects,
     [("(low < weight_after) == (low_before < weight)", "False")],
     "the contract fixes V as xi(W)"),
    ("index n-1 skipped", claims._reflects, [("j < n", "1 < j < n")],
     "the contract fixes V as xi(W)"),
    ("index 1 skipped", claims._reflects, [("j < n", "j < n - 1")],
     "the contract fixes V as xi(W)"),
]


@pytest.mark.parametrize("label, function, edits, reason", REFLECT_SURVIVORS,
                         ids=[row[0] for row in REFLECT_SURVIVORS])
def test_reflect_survivors_agree_with_the_record_oracle(label, function, edits, reason):
    assert _first_disagreement(function, edits) is None, label


# Single-token mutants of the one-pass family builders
# ``perm_stats.linear_family``, ``cyclic_family`` and ``shifted_family``,
# each an AST rewrite of the function's source: (label, function, edits,
# the first failure (n, counterexample) at n <= 5 of each encoding claim
# that notices it; every claim of ``_FAMILY_CLAIMS`` not listed reads
# (None, None)).  A claim that raises reads "raises <error>".  Each must
# fail one of them by n = 4.  Equivalent rewrites are left out: ``a <
# last`` -> ``a <= last`` changes nothing, since a descent top or ascent
# bottom is never the last letter.
_FAMILY_CLAIMS = ("prop4.3", "cor4.4", "prop4.10", "csz-corollary", "eta-corollary",
                  "prop4.17", "rho-corollary")
FAMILY_LOOP_MUTANTS = [
    ("Ides reads the ascents", "linear_family", [("p > q", "p < q")], {
        "prop4.3": (2, "1,2: Ides: {1} != {}"),
    }),
    ("descent range from the bottom", "linear_family", [("diff[b + 1] += 1", "diff[b] += 1")], {
        "prop4.3": (2, "2,1: Ddif: {1,2} != {2}"),
        "csz-corollary": (2, "2,1: Ddif/Edif: {1,2} != {2}"),
    }),
    ("descent top filed after last", "linear_family",
     [("(dtb if a < last else dta)[a] = 1", "(dta if a < last else dta)[a] = 1")], {
        "prop4.3": (3, "2,1,3: Dtb: {} != {2}"),
        "cor4.4": (3, "2,1,3: Dtb: {} != {2}"),
    }),
    ("last letter filed in Dba", "linear_family", [("b > last", "b >= last")], {
        "prop4.3": (2, "2,1: Dba: {1} != {}"),
    }),
    ("descent bottom filed as the top", "linear_family",
     [("des[i] = dt[a] = db[b] = 1", "des[i] = dt[a] = db[a] = 1")], {
        "prop4.3": (2, "2,1: Db: {2} != {1}"),
        "cor4.4": (2, "raises OutOfRange"),
        "csz-corollary": (2, "2,1: Db/Ep: {2} != {1}"),
    }),
    ("ascent bottom filed as the top", "linear_family", [("ab[a] = 1", "ab[b] = 1")], {
        "csz-corollary": (2, "1,2: Ab/Nexc: {2} != {1}"),
    }),
    ("cyclic excedance test v >= i", "cyclic_family", [("v > i", "v >= i")], {
        "prop4.10": (1, "raises ContainmentViolation"),
        "csz-corollary": (1, "raises ContainmentViolation"),
        "eta-corollary": (1, "raises ContainmentViolation"),
    }),
    ("side number filed under the position", "cyclic_family", [("ine[v] = s", "ine[i] = s")], {
        "prop4.10": (4, "raises ContainmentViolation"),
        "csz-corollary": (4, "3,1,4,2: 2-13: {3} != {2}"),
        "eta-corollary": (4, "raises ContainmentViolation"),
    }),
    ("Ebot weighted by the value", "cyclic_family", [("ebot[i] = i", "ebot[i] = v")], {
        "csz-corollary": (2, "2,1: Dbot/Ebot: {1} != {1^2}"),
    }),
    ("last filed in Epb", "cyclic_family", [("i < last", "i <= last")], {
        "prop4.10": (2, "2,1: Epb: {1} != {}"),
    }),
    ("excedance range from the position", "cyclic_family", [("diff[i + 1] += 1", "diff[i] += 1")], {
        "prop4.10": (2, "2,1: Edif: {1,2} != {2}"),
        "csz-corollary": (2, "2,1: 31-2: {} != {1}"),
        "eta-corollary": (2, "1,2: Edif-Exc-Ine: {} != {2}"),
    }),
    ("excedance value filed after last", "cyclic_family",
     [("(excb if v < last else exca)[v] = 1", "(exca if v < last else exca)[v] = 1")], {
        "prop4.10": (3, "2,1,3: Excb: {} != {2}"),
        "csz-corollary": (3, "2,1,3: 2-13: {2} != {}"),
        "eta-corollary": (3, "2,1,3: Ine+Excb-Nexca: {} != {2}"),
    }),
    ("shifted excedance test v >= i", "shifted_family", [("v > i", "v >= i")], {
        "prop4.17": (1, "raises ContainmentViolation"),
        "rho-corollary": (1, "raises ContainmentViolation"),
    }),
    ("pone's range from pone", "shifted_family", [("diff[pone + 1] += 1", "diff[pone] += 1")], {
        "prop4.17": (1, "1: Vedif: {1} != {}"),
    }),
    ("pone filed in Vnexb", "shifted_family", [("j < pone", "j <= pone")], {
        "prop4.17": (2, "1,2: Vnexb: {1} != {}"),
    }),
    ("non-excedance position filed after pone", "shifted_family",
     [("vnepb[i] = 1", "vnepa[i] = 1")], {
        "prop4.17": (3, "3,2,1: Vnepb: {} != {2}"),
        "rho-corollary": (3, "1,3,2: Vepb: {} != {2}"),
    }),
    ("vnest filed under the letter", "shifted_family",
     [("vnest_entries[i] = m", "vnest_entries[v] = m")], {
        "prop4.17": (3, "raises ContainmentViolation"),
        "rho-corollary": (3, "raises ContainmentViolation"),
    }),
    ("Vnex takes the letter", "shifted_family", [("j = v - 1", "j = v")], {
        "prop4.17": (2, "1,2: Vnexa: {2} != {}"),
        "rho-corollary": (2, "raises ContainmentViolation"),
    }),
]


@pytest.mark.parametrize("label, name, edits, expected", FAMILY_LOOP_MUTANTS,
                         ids=[row[0] for row in FAMILY_LOOP_MUTANTS])
def test_family_loop_mutants_fail_the_claims(monkeypatch, label, name, edits, expected):
    _patch_everywhere(monkeypatch, getattr(perm_stats, name), _rewritten(name, edits))
    got = {claim: _first_failure_or_raise(claim) for claim in _FAMILY_CLAIMS}
    assert any(n is not None and n <= 4 for n, _ in got.values()), f"{label} survives"
    assert {claim: first for claim, first in got.items() if first != (None, None)} == expected


def test_unmutated_family_rewrites_pass_the_claims(monkeypatch):
    for name in ("linear_family", "cyclic_family", "shifted_family"):
        _patch_everywhere(monkeypatch, getattr(perm_stats, name), _rewritten(name, []))
    assert [_first_failure_or_raise(claim) for claim in _FAMILY_CLAIMS] == [(None, None)] * 7


# Mutants of the family loops that no encoding claim notices to n = 5,
# because no claim reads the entry they change: Des, Nep, Vbot and the
# class buckets Cpk/Cval/Cda/Cdd and Scval/Scpk/Scda/Scdd.  They are a gap
# in the claims; only the differential oracles of ``test_kernel_oracles``
# catch them.
FAMILY_LOOP_SURVIVORS = [
    ("Des filed under the top", "linear_family",
     [("des[i] = dt[a] = db[b] = 1", "des[a] = dt[a] = db[b] = 1")]),
    ("cyclic buckets N and E swapped", "cyclic_family",
     [("cval, cdd, cda, cpk = buckets = ({}, {}, {}, {})",
       "cdd, cval, cda, cpk = buckets = ({}, {}, {}, {})")]),
    ("shifted buckets N and E swapped", "shifted_family",
     [("scval, scda, scdd, scpk = buckets = ({}, {}, {}, {})",
       "scda, scval, scdd, scpk = buckets = ({}, {}, {}, {})")]),
    ("Nep filed under the letter", "shifted_family", [("nep[i] = 1", "nep[v] = 1")]),
    ("Vbot weighted by the letter", "shifted_family", [("vbot[j] = j", "vbot[j] = v")]),
]


@pytest.mark.parametrize("label, name, edits", FAMILY_LOOP_SURVIVORS,
                         ids=[row[0] for row in FAMILY_LOOP_SURVIVORS])
def test_family_loop_survivors_are_caught_only_by_the_oracles(monkeypatch, label, name, edits):
    oracle = {"linear_family": _old_linear_family, "cyclic_family": _old_cyclic_family,
              "shifted_family": _old_shifted_family}[name]
    mutant = _rewritten(name, edits)
    assert any(mutant(pi) != oracle(pi) for n in range(1, 5) for pi in iter_perms(n)), label
    _patch_everywhere(monkeypatch, getattr(perm_stats, name), mutant)
    assert [_first_failure_or_raise(claim) for claim in _FAMILY_CLAIMS] == [(None, None)] * 7


# Every swap of two entries within one family column of ``claims._KEYS``:
# 78 linear, 66 cyclic and 66 shifted mutants.  Each rebuilds the claims
# that read its column as CLAIM_REGISTRY builds them.
_CSZ_PATTERN_ROWS = slice(3, 6)


def _keys_swaps(column: int):
    labels = claims._COLUMNS[column]
    for a, b in combinations(labels, 2):
        yield f"{a}/{b}", {**labels, a: labels[b], b: labels[a]}


def _claims_reading(column: int, labels: dict) -> tuple[list, list]:
    """The claim tests that read ``labels`` as the family column, and the
    rows ``_CSZ_ROWS`` takes under it (its pattern rows read the linear and
    cyclic columns)."""
    linear, cyclic = claims._COLUMNS[1], claims._COLUMNS[2]
    csz_rows = list(claims._CSZ_ROWS)
    if column == 3:
        return [claims._correspondence("phi_yzl", (labels, claims._SHIFTED[1]),
                                       last_is_critical=False),
                claims._conjugate("rho", (labels, claims._SHIFTED[1]))], csz_rows
    if column == 1:
        linear = labels
        tests = [claims._correspondence("phi_fv", (labels, claims._linear)),
                 claims._conjugate("phi", (labels, claims._linear))]
    else:
        cyclic = labels
        tests = [claims._correspondence("phi_fz", (labels, claims._CYCLIC[1])),
                 claims._conjugate("eta", (labels, claims._CYCLIC[1]), claims._ETA_HEAD,
                                   claims._KAPPA_PAIRS[4:])]
    csz_rows[_CSZ_PATTERN_ROWS] = claims._rows(
        (key, linear[key], cyclic[key]) for key in ("2-13", "2-31", "31-2"))
    return tests + [claims._test_csz_transport], csz_rows


def _first_comparison_failure(tests, n_max: int = 4) -> int | None:
    """The least n at which some test returns a counterexample.  A test
    that raises ``OutOfRange`` skips the rest of S_n: a raise is no failed
    comparison."""
    for n in range(1, n_max + 1):
        for test in tests:
            for pi in iter_perms(n):
                try:
                    if test(n, pi) is not None:
                        return n
                except OutOfRange:
                    break
    return None


def test_unmutated_keys_rebuild_passing_claims(monkeypatch):
    for column in (1, 2, 3):
        tests, csz_rows = _claims_reading(column, claims._COLUMNS[column])
        assert [row[0] for row in csz_rows] == [row[0] for row in claims._CSZ_ROWS]
        monkeypatch.setattr(claims, "_CSZ_ROWS", csz_rows)
        assert _first_comparison_failure(tests) is None, column


@pytest.mark.parametrize("column, mutants", [(1, 78), (2, 66), (3, 66)],
                         ids=["linear", "cyclic", "shifted"])
def test_every_keys_swap_fails_a_comparison_by_n4(monkeypatch, column, mutants):
    # 137 of the 210 fail at n = 2, 67 at n = 3 and 6 at n = 4.  A survivor
    # is a gap in the encoding claims, not a reason to loosen this test.
    survivors = []
    count = 0
    for label, labels in _keys_swaps(column):
        tests, csz_rows = _claims_reading(column, labels)
        monkeypatch.setattr(claims, "_CSZ_ROWS", csz_rows)
        if _first_comparison_failure(tests) is None:
            survivors.append(label)
        count += 1
    assert not survivors, f"_KEYS swaps no claim notices: {survivors}"
    assert count == mutants


# Every swap of the right-hand keys of two ``claims._KAPPA_PAIRS`` rows (21
# mutants), each rebuilt into the three claims that read the table as
# CLAIM_REGISTRY builds them, and every swap of the right-hand readers of
# two ``claims._CSZ_ROWS`` rows (28 mutants).  A survivor is a gap in the
# claims, not a reason to loosen these tests.
def _kappa_claims(pairs) -> list:
    return [claims._conjugate("phi", claims._LINEAR, pairs=pairs),
            claims._conjugate("eta", claims._CYCLIC, claims._ETA_HEAD, pairs[4:]),
            claims._conjugate("rho", claims._SHIFTED, pairs=pairs)]


def _right_hand_swaps(rows):
    for a, b in combinations(range(len(rows)), 2):
        mutant = list(rows)
        mutant[a], mutant[b] = (*rows[a][:-1], rows[b][-1]), (*rows[b][:-1], rows[a][-1])
        yield mutant


def test_every_kappa_pairs_swap_fails_a_comparison_by_n4():
    assert _first_comparison_failure(_kappa_claims(claims._KAPPA_PAIRS)) is None
    first_failures = Counter(_first_comparison_failure(_kappa_claims(tuple(mutant)))
                             for mutant in _right_hand_swaps(claims._KAPPA_PAIRS))
    assert first_failures == {2: 11, 3: 8, 4: 2}


def test_every_csz_rows_swap_fails_a_comparison_by_n3(monkeypatch):
    assert _first_comparison_failure([claims._test_csz_transport]) is None
    first_failures = Counter()
    for mutant in _right_hand_swaps(claims._CSZ_ROWS):
        monkeypatch.setattr(claims, "_CSZ_ROWS", mutant)
        first_failures[_first_comparison_failure([claims._test_csz_transport])] += 1
    assert first_failures == {2: 23, 3: 5}


def _first_claim_failure(claim: str, n_max: int = 3) -> int | None:
    """The least n <= n_max at which ``claim`` fails, or None."""
    return next((n for n in range(1, n_max + 1)
                 if run_claim(claim, n).status == "fail"), None)


# Every swap of two ``claims._EQ34_RHS`` entries (28 mutants) must fail
# eq34, and every ``mfs_action._BRACKETS`` mutant (each row's two classes
# swapped, each row's side flipped, each two rows swapped: 9 mutants) must
# fail fact4.8.  A survivor is a gap in the claims, not a reason to loosen
# these tests.
def test_every_eq34_rhs_swap_fails_eq34_by_n3(monkeypatch):
    assert _first_claim_failure("eq34") is None
    rows = claims._EQ34_RHS
    first_failures = Counter()
    for a, b in combinations(range(len(rows)), 2):
        mutant = list(rows)
        mutant[a], mutant[b] = rows[b], rows[a]
        monkeypatch.setattr(claims, "_EQ34_RHS", tuple(mutant))
        first_failures[_first_claim_failure("eq34")] += 1
    assert first_failures == {2: 16, 3: 12}


def _brackets_mutants(rows):
    for key, (first, second, right) in rows.items():
        yield {**rows, key: (second, first, right)}
        yield {**rows, key: (first, second, not right)}
    for a, b in combinations(rows, 2):
        yield {**rows, a: rows[b], b: rows[a]}


def test_every_brackets_mutant_fails_fact48_by_n3(monkeypatch):
    assert _first_claim_failure("fact4.8") is None
    first_failures = Counter()
    for mutant in _brackets_mutants(mfs_action._BRACKETS):
        monkeypatch.setattr(mfs_action, "_BRACKETS", mutant)
        first_failures[_first_claim_failure("fact4.8")] += 1
    assert first_failures == {2: 8, 3: 1}


# ``claims._FORMULAS`` mutated in its source: each single ``|``/``-`` swap,
# and each operation replaced by its left operand (its right operand
# dropped).  A mutant module is the claims module compiled from the mutated
# tree, so every claim is rebuilt as CLAIM_REGISTRY builds it.
_FORMULA_CLAIMS = ("prop4.3", "prop4.10", "prop4.17", "cor4.4", "eta-corollary",
                   "rho-corollary", "csz-corollary")


def _formula_table(tree: ast.Module) -> ast.Dict:
    return next(node.value for node in tree.body
                if isinstance(node, ast.AnnAssign) and node.target.id == "_FORMULAS")


def _operations(formula: ast.Lambda) -> list[ast.BinOp]:
    return [node for node in ast.walk(formula.body) if isinstance(node, ast.BinOp)]


def _formula_mutants():
    tree = ast.parse(inspect.getsource(claims))
    for f, formula in enumerate(_formula_table(tree).values):
        for k in range(len(_operations(formula))):
            for kind in ("swap", "drop"):
                mutant = copy.deepcopy(tree)
                formula_copy = _formula_table(mutant).values[f]
                node = _operations(formula_copy)[k]
                if kind == "swap":
                    node.op = ast.Sub() if isinstance(node.op, ast.BitOr) else ast.BitOr()
                else:
                    for parent in ast.walk(formula_copy):
                        for field, value in ast.iter_fields(parent):
                            if value is node:
                                setattr(parent, field, node.left)
                yield ast.unparse(formula_copy.body), mutant


def _first_catch_by(module) -> str | None:
    """How the first claim of ``_FORMULA_CLAIMS`` at n <= 5 that notices
    ``module``'s mutant does so: "fail", or the name of the error it
    raises; None if none does."""
    for n in range(1, 6):
        for claim in _FORMULA_CLAIMS:
            try:
                if module.run_claim(claim, n).status == "fail":
                    return "fail"
            except ValueError as exc:
                return type(exc).__name__
    return None


def test_every_formula_mutant_is_caught_by_n5(monkeypatch):
    # A survivor is a gap in the encoding claims, not a reason to loosen
    # this test.  The six that raise subtract a multiset that is not
    # contained in the other, a ContainmentViolation.
    outcomes = Counter()
    survivors = []
    for label, tree in _formula_mutants():
        module = types.ModuleType("srlaguerre._claims_mutant")
        module.__package__ = "srlaguerre"
        # dataclasses look their module up by name.
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(tree, claims.__file__, "exec"), module.__dict__)
        outcome = _first_catch_by(module)
        outcomes[outcome] += 1
        if outcome is None:
            survivors.append(label)
    assert not survivors, f"_FORMULAS mutants no claim notices: {survivors}"
    assert outcomes == {"fail": 32, "ContainmentViolation": 6}
