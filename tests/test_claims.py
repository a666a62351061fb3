"""Tests for the claim runner: pinned counterexample strings, threads, and
mutations of the encoders, the shared sweeps and the encoding-claim table
that the claims must catch."""
from __future__ import annotations

import sys
import threading
from bisect import bisect_left, insort
from dataclasses import replace
from itertools import combinations

import pytest

from srlaguerre import bijections, claims, genfun, histories, perm_stats
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
from srlaguerre.mfs_action import StarredClasses
from srlaguerre.multiset import IntMultiset, OutOfRange
from srlaguerre.perm_stats import iter_perms, trivial_bijection


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


_CLASSIFIERS = (perm_stats.linear_class, perm_stats.cyclic_classes,
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
# with the output of the code mutation it names.  Every claim that reads a
# history's statistic record is pinned: cor3.3, cor3.6 and cor1.1 on xi,
# and Props 4.3, 4.10 and 4.17 on the encodings.  (None, None) marks a
# claim that reads no mutated entry, so it is no gap: cor3.3 reads neither
# Asc nor Nde, no encoding claim reads the history's Nde (``_KEYS`` has no
# history column for it), and only the linear view reads Asc.
_HISTORY_CLAIMS = ("cor3.3", "cor3.6", "cor1.1", "prop4.3", "prop4.10", "prop4.17")
HISTORY_STAT_MUTANTS = [
    (_asc_strict_for_every_step, [
        (None, None),
        (3, "NDS/0,1,1: Asc: {2} != {}"),
        (3, "NDS/0,1,1: exponent relations violated"),
        (3, "3,2,1: Ides: {1,2} != {1}"),
        (None, None),
        (None, None),
    ]),
    (_cs_step_left_out_of_nde, [
        (None, None),
        (2, "NS/0,1: Nde: {1} != {}"),
        (2, "NS/0,1: exponent relations violated"),
        (None, None),
        (None, None),
        (None, None),
    ]),
    (_step_after_cs_counted_before, [
        (2, "NS/0,1: (0, 0, 1, 0, 0) != (0, 0, 0, 0, 1)"),
        (2, "NS/0,1: Sdeb: {2} != {}"),
        (2, "NS/0,1: exponent relations violated"),
        (2, "2,1: Dtb: {} != {2}"),
        (2, "2,1: Excb: {} != {2}"),
        (2, "1,2: Vnepb: {} != {2}"),
    ]),
    # The encoding claims subtract Nea and Sdea from Wt, so the short Wt
    # raises there instead of failing a comparison.
    (_last_weight_dropped_from_wt, [
        (2, "NS/0,1: (1, 0, 0, 0, 1) != (0, 0, 0, 0, 1)"),
        (2, "NS/0,1: Wt: {} != {2}"),
        (2, "NS/0,1: exponent relations violated"),
        (2, "raises ContainmentViolation"),
        (2, "raises ContainmentViolation"),
        (2, "raises ContainmentViolation"),
    ]),
]


@pytest.mark.parametrize("mutant, expected", HISTORY_STAT_MUTANTS,
                         ids=[row[0].__name__.lstrip("_") for row in HISTORY_STAT_MUTANTS])
def test_history_statistics_mutants_fail_the_claims(monkeypatch, mutant, expected):
    # claims and genfun (through cor1.1's exponents) each import the kernel.
    _patch_everywhere(monkeypatch, _history_statistics, mutant)
    assert claims.history_statistics is mutant and genfun.history_statistics is mutant
    assert [_first_failure_or_raise(claim) for claim in _HISTORY_CLAIMS] == expected


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
