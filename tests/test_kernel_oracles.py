"""The sweep kernels against the quadratic code they replaced.

Each ``_old_*`` function below is the implementation that ``src/`` held
before the coordinate, side and nesting counts became Fenwick sweeps, the
inversions and the twelve one-glue counts (each its own sorted-list sweep)
became readers of the one left-rank table ``_left_ranks``, the family
multisets were built from (value, count) pairs, the column placement found
its slot in a list of open slots, the shifted-cyclic decoder went through
the cyclic one and the Kreweras complement, the linear decoder
and valley hopping became a pass over a binary tree, ``history_statistics``
became one pass that fills its ten entry dicts, and the XI_TABLE row of a
position was found by
a branch chain instead of the table's own key columns.  They are kept
verbatim, renamed with an ``_old_`` prefix, as differential oracles: the
kernels must agree with them on all of S_n for n <= 7 and on seeded random
permutations of size 50, 300 and 1000, the tree kernels and the
left-rank readers (nesting numbers included) also on monotone words of
size 3000, the left-rank readers on random words of size 3000, and the
decoders, the history statistics and the row lookup on every history with
n <= 7 and on random histories of size up to 200.  ``_old_phi_fv_inv``
rescans the word for empty slots at every letter, and
``_old_mfs_full_list`` hops one letter at a time on a list.
``_old_phi_yzl_inv`` is the semi-arc construction, so it also witnesses
the identity phi_yzl = phi_fz o kreweras from the decoding side.
``_old_mfs_full`` is the fold of the single-letter hop ``mfs_phi_x``, which
is still the definition in ``src/``.  The last tests check that no family
builds a multiset from more than n items, and that a history's statistics
build exactly ten multisets.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter
from functools import partial
from typing import Sequence

import pytest
from hypothesis import given, settings
from test_large_properties import large_histories

from srlaguerre.bijections import (
    PlacementImpossible,
    SlotIndexOutOfRange,
    _place,
    phi_fv,
    phi_fv_inv,
    phi_yzl_inv,
)
from srlaguerre.histories import (
    NDE_STEPS,
    NE_STEPS,
    HistoryStatRecord,
    LaguerreHistory,
    StepType,
    critical_step,
    enumerate_histories,
    history_statistics,
)
from srlaguerre.involution import _table_rows, xi
from srlaguerre.mfs_action import (
    coordinate_counts_zero_boundary,
    mfs_full,
    mfs_phi_x,
    pattern_multisets_zero_boundary,
)
from srlaguerre.multiset import IntMultiset
from srlaguerre.perm_stats import (
    CyclicStatRecord,
    LinearStatRecord,
    Permutation,
    ShiftedStatRecord,
    _ingredients,
    _left_ranks,
    _one_glue_counts,
    _variant_nesting,
    coordinate_counts,
    cyclic_family,
    iter_perms,
    linear_family,
    nesting_numbers,
    pattern_multisets,
    shifted_family,
    side_numbers,
    vincular_count,
)

_WHICH = ("2-13", "2-31", "31-2")


def _old_coordinate_stat(pi: Permutation, which: str, i: int) -> int:
    """Coordinate pattern statistic at position i.

    ``2-13`` counts j with i < j < n and pi(j) < pi(i) < pi(j+1);
    ``2-31`` counts j with i < j < n and pi(j+1) < pi(i) < pi(j);
    ``31-2`` counts j with j < i－1 and pi(j+1) < pi(i) < pi(j).
    """
    word = pi.word
    n = len(word)
    if not 1 <= i <= n:
        raise IndexError(i)
    v = word[i - 1]
    if which == "2-13":
        return sum(1 for j in range(i + 1, n) if word[j - 1] < v < word[j])
    if which == "2-31":
        return sum(1 for j in range(i + 1, n) if word[j] < v < word[j - 1])
    if which == "31-2":
        return sum(1 for j in range(1, i - 1) if word[j] < v < word[j - 1])
    raise ValueError(f"unknown coordinate statistic: {which!r}")


def _old_pattern_multisets(pi: Permutation) -> tuple[IntMultiset, IntMultiset, IntMultiset]:
    """The multisets 2-13, 2-31, 31-2: value pi(i) with its coordinate count."""
    results = []
    for which in ("2-13", "2-31", "31-2"):
        items: list[int] = []
        for i in range(1, pi.n + 1):
            items.extend([pi.value(i)] * _old_coordinate_stat(pi, which, i))
        results.append(IntMultiset(items))
    return results[0], results[1], results[2]


def _old_coordinate_stat_zero_boundary(pi: Permutation, which: str, i: int) -> int:
    """Coordinate pattern statistic with the zero boundary in force.

    The virtual letters pi(0) = pi(n+1) = 0 take part in the adjacent pairs,
    so the final pair (pi(n), 0) is always a descent.  Only ``2-31`` is
    affected: position i < n gains one occurrence when pi(i) < pi(n).  The
    ``2-13`` and ``31-2`` counts coincide with the plain ones, since the
    virtual pairs can never serve them.
    """
    base = _old_coordinate_stat(pi, which, i)
    if which == "2-31" and i < pi.n and pi.value(i) < pi.value(pi.n):
        base += 1
    return base


def _old_pattern_multisets_zero_boundary(
    pi: Permutation,
) -> tuple[IntMultiset, IntMultiset, IntMultiset]:
    """The three coordinate multisets under the zero boundary."""
    results = []
    for which in ("2-13", "2-31", "31-2"):
        items: list[int] = []
        for i in range(1, pi.n + 1):
            items.extend([pi.value(i)] * _old_coordinate_stat_zero_boundary(pi, which, i))
        results.append(IntMultiset(items))
    return results[0], results[1], results[2]


def _old_side_numbers(pi: Permutation) -> tuple[int, ...]:
    """Side number of each position.

    An excedance value gets the number of larger letters to its left inside
    the excedance subword; a non-excedance value gets the number of smaller
    letters to its right inside the non-excedance subword.
    """
    word = pi.word
    n = len(word)
    exc_sub = [word[i] for i in range(n) if word[i] > i + 1]
    nexc_sub = [word[i] for i in range(n) if word[i] <= i + 1]
    side = []
    for i in range(n):
        v = word[i]
        if v > i + 1:
            k = exc_sub.index(v)
            side.append(sum(1 for u in exc_sub[:k] if u > v))
        else:
            k = nexc_sub.index(v)
            side.append(sum(1 for u in nexc_sub[k + 1:] if u < v))
    return tuple(side)


def _old_nesting_numbers(pi: Permutation) -> tuple[int, ...]:
    """nest_i: nestings with i as the inner endpoint."""
    word = pi.word
    n = len(word)
    nest = []
    for i in range(1, n + 1):
        v = word[i - 1]
        if v > i:
            count = sum(1 for j in range(1, i) if v < word[j - 1])
        else:
            count = sum(1 for j in range(i + 1, n + 1) if word[j - 1] < v)
        nest.append(count)
    return tuple(nest)


def _old_inversions(letters: Sequence[int]) -> int:
    """Inversions of a sequence of distinct letters, by one sweep over a
    sorted list of the letters seen so far: O(n log n) comparisons plus
    insertions whose moves are O(n^2) in the worst case, done in C."""
    seen: list[int] = []
    total = 0
    for v in letters:
        total += len(seen) - bisect_left(seen, v)
        insort(seen, v)
    return total


def _old_one_glue_counts(word: tuple[int, ...]) -> dict[str, int]:
    """The twelve length-3 patterns with one glued pair, in one sweep.

    For the pair at host positions j, j+1, two bisections of a sorted list
    of the letters before j count those below, between and above it; the
    letters of a rank after the pair are all letters of that rank less
    those before it.  A pattern glued at 2 (``1u23``) takes its free letter
    before the pair, one glued at 1 (``u23_1``) after it.
    """
    n = len(word)
    # Over the rising pairs, then the falling ones: the letters before a
    # pair below, between and above it, the pairs, and their low and high
    # letters summed.
    r1 = r2 = r3 = rises = r_lo = r_hi = 0
    f1 = f2 = f3 = falls = f_lo = f_hi = 0
    seen: list[int] = []
    for j in range(n - 1):
        x, y = word[j], word[j + 1]
        if x < y:
            below, upto = bisect_left(seen, x), bisect_left(seen, y)
            r1, r2, r3 = r1 + below, r2 + upto - below, r3 + j - upto
            rises, r_lo, r_hi = rises + 1, r_lo + x, r_hi + y
        else:
            below, upto = bisect_left(seen, y), bisect_left(seen, x)
            f1, f2, f3 = f1 + below, f2 + upto - below, f3 + j - upto
            falls, f_lo, f_hi = falls + 1, f_lo + y, f_hi + x
        insort(seen, x)
    # A pair (lo, hi) has lo - 1, hi - lo - 1 and n - hi letters of the
    # three ranks in all.
    return {
        "1u23": r1, "2u13": r2, "3u12": r3, "1u32": f1, "2u31": f2, "3u21": f3,
        "u23_1": r_lo - rises - r1, "u32_1": f_lo - falls - f1,
        "u13_2": r_hi - r_lo - rises - r2, "u31_2": f_hi - f_lo - falls - f2,
        "u12_3": n * rises - r_hi - r3, "u21_3": n * falls - f_hi - f3,
    }


def _old_linear_family(pi: Permutation) -> LinearStatRecord:
    word = pi.word
    n = len(word)
    last = word[-1] if n else 0
    des_pos: list[int] = []
    asc_bottoms: list[int] = []
    ddif: list[int] = []
    dbot: list[int] = []
    for i in range(1, n):
        a, b = word[i - 1], word[i]
        if a > b:
            des_pos.append(i)
            ddif.extend(range(b + 1, a + 1))
            dbot.extend([b] * b)
        else:
            asc_bottoms.append(a)
    dt = [word[i - 1] for i in des_pos]
    db = [word[i] for i in des_pos]
    ides = [i for i in range(1, n) if pi.inverse_word[i - 1] > pi.inverse_word[i]]
    return LinearStatRecord(
        Des=IntMultiset(des_pos),
        Ides=IntMultiset(ides),
        Dt=IntMultiset(dt),
        Db=IntMultiset(db),
        Ab=IntMultiset(asc_bottoms),
        Dtb=IntMultiset(v for v in dt if v < last),
        Dta=IntMultiset(v for v in dt if v > last),
        Dbb=IntMultiset(v for v in db if v < last),
        Dba=IntMultiset(v for v in db if v > last),
        Abb=IntMultiset(v for v in asc_bottoms if v < last),
        Aba=IntMultiset(v for v in asc_bottoms if v > last),
        Ddif=IntMultiset(ddif),
        Dbot=IntMultiset(dbot),
    )


def _old_cyclic_family(pi: Permutation) -> CyclicStatRecord:
    word = pi.word
    n = len(word)
    last = word[-1] if n else 0
    ep = [i for i in range(1, n + 1) if word[i - 1] > i]
    exc = [word[i - 1] for i in ep]
    nexc = [word[i - 1] for i in range(1, n + 1) if word[i - 1] <= i]
    edif: list[int] = []
    ebot: list[int] = []
    for i in ep:
        edif.extend(range(i + 1, word[i - 1] + 1))
        ebot.extend([i] * i)
    side = _old_side_numbers(pi)
    ine: list[int] = []
    for i in range(n):
        ine.extend([word[i]] * side[i])
    cpk, cval, cda, cdd = [], [], [], []
    for v in range(1, n + 1):
        p = pi.position(v)
        q = word[v - 1]
        if p < v and v > q:
            cpk.append(v)
        elif p > v and v < q:
            cval.append(v)
        elif p < v < q:
            cda.append(v)
        else:
            cdd.append(v)
    return CyclicStatRecord(
        Exc=IntMultiset(exc),
        Nexc=IntMultiset(nexc),
        Ep=IntMultiset(ep),
        Excb=IntMultiset(v for v in exc if v < last),
        Exca=IntMultiset(v for v in exc if v > last),
        Nexcb=IntMultiset(v for v in nexc if v < last),
        Nexca=IntMultiset(v for v in nexc if v > last),
        Epb=IntMultiset(i for i in ep if i < last),
        Epa=IntMultiset(i for i in ep if i > last),
        Edif=IntMultiset(edif),
        Ebot=IntMultiset(ebot),
        Ine=IntMultiset(ine),
        side=side,
        Cpk=IntMultiset(cpk),
        Cval=IntMultiset(cval),
        Cda=IntMultiset(cda),
        Cdd=IntMultiset(cdd),
    )


def _old_shifted_family(pi: Permutation) -> ShiftedStatRecord:
    word = pi.word
    n = len(word)
    pone = pi.position(1)
    nest = _old_nesting_numbers(pi)
    vnest = _variant_nesting(word, nest, pone)
    exc_values = {word[i - 1] for i in range(1, n + 1) if word[i - 1] > i}
    ep = [i for i in range(1, n + 1) if word[i - 1] > i]
    nep = [i for i in range(1, n + 1) if word[i - 1] <= i]
    vnex = [i for i in range(1, n) if i + 1 not in exc_values]
    scval, scpk, scda, scdd = [], [], [], []
    for i in range(1, n):
        up_left = word[i - 1] > i
        up_right = i + 1 <= pi.position(i + 1)
        if up_left and up_right:
            scval.append(i)
        elif not up_left and not up_right:
            scpk.append(i)
        elif up_left:
            scda.append(i)
        else:
            scdd.append(i)
    vedif: list[int] = []
    for i in ep:
        vedif.extend(range(i + 1, word[i - 1]))
    vedif.extend(range(pone + 1, n + 1))
    vbot: list[int] = []
    for i in vnex:
        vbot.extend([i] * i)
    vnest_ms: list[int] = []
    for i in range(1, n + 1):
        vnest_ms.extend([i] * vnest[i - 1])
    return ShiftedStatRecord(
        pone=pone,
        nest=nest,
        vnest=vnest,
        Scval=IntMultiset(scval),
        Scpk=IntMultiset(scpk),
        Scda=IntMultiset(scda),
        Scdd=IntMultiset(scdd),
        Nep=IntMultiset(nep),
        Vnex=IntMultiset(vnex),
        Vnepb=IntMultiset(i for i in nep if i < pone),
        Vnepa=IntMultiset(i for i in nep if i > pone),
        Vnexb=IntMultiset(i for i in vnex if i < pone),
        Vnexa=IntMultiset(i for i in vnex if i > pone),
        Vepb=IntMultiset(i for i in ep if i < pone),
        Vepa=IntMultiset(i for i in ep if i > pone),
        Vedif=IntMultiset(vedif),
        Vbot=IntMultiset(vbot),
        Vnest=IntMultiset(vnest_ms),
    )


def _old_place_left(values: list[int], weights: dict[int, int], size: int) -> list[int]:
    """Place values smallest-first; value x lands in the c_x-th empty slot
    counted from the left (1-based)."""
    row: list[int | None] = [None] * size
    for x in sorted(values):
        empties = [p for p, v in enumerate(row) if v is None]
        k = weights[x] - 1
        if not 0 <= k < len(empties):
            raise PlacementImpossible(f"value {x} wants empty slot {k + 1}")
        row[empties[k]] = x
    return [v for v in row if v is not None]


def _old_place_right(values: list[int], weights: dict[int, int], size: int) -> list[int]:
    """Place values largest-first; value x keeps c_x empty slots to its
    right."""
    row: list[int | None] = [None] * size
    for x in sorted(values, reverse=True):
        empties = [p for p, v in enumerate(row) if v is None]
        k = weights[x]
        if not 0 <= k < len(empties):
            raise PlacementImpossible(f"value {x} wants {k} empty slots right")
        row[empties[len(empties) - 1 - k]] = x
    return [v for v in row if v is not None]


class ArcMismatch(ValueError):
    """Semi-arc inversion produced an inconsistent diagram."""


def _old_phi_yzl_inv(history: LaguerreHistory) -> Permutation:
    """Invert the shifted-cyclic encoding via a semi-arc diagram.

    Every node gets one outward stub (AR above for an excedance left
    endpoint, BL below for a weak-deficiency right endpoint) and one inward
    stub (AL above right endpoint, BR below left endpoint).  Nesting
    numbers recovered from the weights dictate how stubs are paired.
    The empty history decodes to the empty permutation.
    """
    n = history.n
    if not n:
        return Permutation(())
    k = critical_step(history)

    ar: list[int] = []
    al: list[int] = []
    bl: list[int] = []
    br: list[int] = [1]
    bl.extend({k, n})
    for i, step in enumerate(history.w[:-1], start=1):
        if i != k:
            (ar if step in NE_STEPS else bl).append(i)
        (br if step in NDE_STEPS else al).append(i + 1)
    if len(ar) != len(al) or len(bl) != len(br):
        raise ArcMismatch("stub counts disagree")

    # nest_i is c_i less one on S and dE steps, plus one on the S and dE
    # steps before k, less one on the N and E steps after k: c_i up to k
    # and c_i - 1 after it.  Index 0 is padding.
    c = history.c
    nest = (0,) + c[:k] + tuple(x - 1 for x in c[k:])

    sigma: dict[int, int] = {}
    remaining_al = sorted(al, reverse=True)
    for i in sorted(ar, reverse=True):
        if not 0 <= nest[i] < len(remaining_al):
            raise ArcMismatch(f"node {i} wants upper partner {nest[i]}")
        j = remaining_al.pop(nest[i])
        if j <= i:
            raise ArcMismatch(f"upper arc {i}->{j} points backwards")
        sigma[i] = j
    remaining_br = sorted(br)
    for j in sorted(bl):
        if not 0 <= nest[j] < len(remaining_br):
            raise ArcMismatch(f"node {j} wants lower partner {nest[j]}")
        i = remaining_br.pop(nest[j])
        if i > j:
            raise ArcMismatch(f"lower arc {j}->{i} points forwards")
        sigma[j] = i
    word = [sigma.get(i, 0) for i in range(1, n + 1)]
    if sorted(word) != list(range(1, n + 1)):
        raise ArcMismatch("diagram does not read as a permutation")
    return Permutation(word)


def _old_mfs_full(pi: Permutation) -> Permutation:
    """Every letter hopped by the single-letter action, one Permutation per hop."""
    result = pi
    for x in range(1, pi.n + 1):
        result = mfs_phi_x(result, x)
    return result


def _old_mfs_full_list(pi: Permutation) -> Permutation:
    """The involution that hops every letter that can hop.

    Applies the single-letter action of ``mfs_phi_x`` for every x in [n];
    the single-letter actions commute, so the order of application does not
    matter.  The hops run on one list, each in O(n), and the result is
    validated as a permutation once.
    """
    word = list(pi.word)
    n = len(word)
    for x in range(1, n + 1):
        p = word.index(x)
        if 0 < p < n - 1 and word[p - 1] > x < word[p + 1]:
            continue  # a valley stays
        lo = p
        while lo > 0 and word[lo - 1] > x:
            lo -= 1
        hi = p + 1
        while hi < n and word[hi] > x:
            hi += 1
        word[lo:hi] = word[p + 1:hi] + [x] + word[lo:p]
    return Permutation(word)


def _old_phi_fv_inv(history: LaguerreHistory) -> Permutation:
    """Invert the linear encoding by slot insertion.

    Starting from a single empty slot, letter i replaces the c_i-th empty
    slot counted from the right starting at 0: an S step inserts ``i``, an
    N step ``slot i slot``, an E step ``i slot``, a dE step ``slot i``.
    The one leftover slot at the far right is erased.
    """
    word: list[int | None] = [None]
    for i, (step, c) in enumerate(zip(history.w, history.c), start=1):
        empties = [p for p, v in enumerate(word) if v is None]
        if c >= len(empties):
            raise SlotIndexOutOfRange(
                f"step {i} wants empty slot {c} of {len(empties)}"
            )
        p = empties[len(empties) - 1 - c]
        if step is StepType.S:
            word[p:p + 1] = [i]
        elif step is StepType.N:
            word[p:p + 1] = [None, i, None]
        elif step is StepType.E:
            word[p:p + 1] = [i, None]
        else:
            word[p:p + 1] = [None, i]
    if word[-1] is not None or any(v is None for v in word[:-1]):
        raise SlotIndexOutOfRange("leftover slot is not the trailing one")
    return Permutation(word[:-1])


def _random_perms(n: int, count: int, seed: int) -> list[Permutation]:
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        words.append(Permutation(word))
    return words


def _small_perms(top: int = 7):
    for n in range(1, top + 1):
        yield from iter_perms(n)


_LARGE = [
    *_random_perms(50, 20, 4101),
    *_random_perms(300, 3, 4102),
    *_random_perms(1000, 1, 4103),
    # Monotone and near-monotone words give the longest ranges and blocks,
    # and put every sorted-list insertion at one end of its list.
    Permutation(range(1, 301)),
    Permutation(range(300, 0, -1)),
    Permutation([*range(2, 301), 1]),
    Permutation(range(1, 1001)),
    Permutation(range(1000, 0, -1)),
]


def _check_counts(pi: Permutation) -> None:
    n = pi.n
    for which in _WHICH:
        old = tuple(_old_coordinate_stat(pi, which, i) for i in range(1, n + 1))
        assert coordinate_counts(pi, which) == old, (pi, which)
    assert side_numbers(pi) == _old_side_numbers(pi), pi
    assert nesting_numbers(pi) == _old_nesting_numbers(pi), pi


def _check_families(pi: Permutation) -> None:
    assert linear_family(pi) == _old_linear_family(pi), pi
    assert cyclic_family(pi) == _old_cyclic_family(pi), pi
    assert shifted_family(pi) == _old_shifted_family(pi), pi
    assert pattern_multisets(pi) == _old_pattern_multisets(pi), pi
    assert pattern_multisets_zero_boundary(pi) == _old_pattern_multisets_zero_boundary(pi), pi


def test_counts_match_oracles_on_small_perms():
    for pi in _small_perms():
        _check_counts(pi)


def test_per_position_readers_match_oracles():
    for pi in _small_perms(6):
        for which in _WHICH:
            counts = coordinate_counts(pi, which)
            zero_boundary = coordinate_counts_zero_boundary(pi, which)
            for i in range(1, pi.n + 1):
                assert counts[i - 1] == _old_coordinate_stat(pi, which, i)
                assert zero_boundary[i - 1] == \
                    _old_coordinate_stat_zero_boundary(pi, which, i)


def test_families_match_oracles_on_small_perms():
    for pi in _small_perms():
        _check_families(pi)


def test_mfs_full_matches_fold_of_single_hops_on_small_perms():
    for pi in _small_perms():
        assert mfs_full(pi) == _old_mfs_full(pi) == _old_mfs_full_list(pi), pi


def _check_tree_kernels(pi: Permutation) -> None:
    assert mfs_full(pi) == _old_mfs_full_list(pi), pi
    h = phi_fv(pi)
    assert phi_fv_inv(h) == _old_phi_fv_inv(h) == pi, pi


@pytest.mark.parametrize("pi", _LARGE, ids=lambda pi: f"n{pi.n}-{hash(pi.word) % 1000}")
def test_kernels_match_oracles_on_large_perms(pi):
    _check_counts(pi)
    _check_families(pi)
    assert mfs_full(pi) == _old_mfs_full(pi)
    _check_tree_kernels(pi)


@pytest.mark.parametrize("pi", [
    Permutation(range(1, 3001)),
    Permutation(range(3000, 0, -1)),
    Permutation([*range(2, 3001), 1]),
], ids=("increasing", "decreasing", "rotated"))
def test_tree_kernels_match_list_oracles_on_monotone_perms(pi):
    # The longest one-child chains: every node of the Cartesian tree and of
    # the slot-insertion tree has at most one child.
    _check_tree_kernels(pi)


def _check_left_rank_readers(word: tuple[int, ...]) -> None:
    pi = Permutation(word)
    assert _one_glue_counts(word, _left_ranks(word)) == _old_one_glue_counts(word), word
    inversions = _old_inversions(word)
    assert _ingredients.__wrapped__(word)["inv"] == inversions, word
    assert vincular_count(pi, "21") == inversions, word
    assert nesting_numbers(pi) == _old_nesting_numbers(pi), word


def test_left_rank_readers_match_oracles_on_small_perms():
    for pi in _small_perms():
        _check_left_rank_readers(pi.word)


@pytest.mark.parametrize("pi", [
    *_random_perms(50, 20, 4104),
    *_random_perms(300, 5, 4105),
    *_random_perms(1000, 2, 4106),
    *_random_perms(3000, 2, 4107),
    Permutation(range(1, 3001)),
    Permutation(range(3000, 0, -1)),
], ids=lambda pi: f"n{pi.n}-{hash(pi.word) % 1000}")
def test_left_rank_readers_match_oracles_on_large_perms(pi):
    _check_left_rank_readers(pi.word)


def test_coordinate_errors_unchanged():
    pi = Permutation.from_text("2413")
    with pytest.raises(IndexError):
        _old_coordinate_stat(pi, "2-31", 0)
    with pytest.raises(IndexError):
        _old_coordinate_stat(pi, "bogus", 5)
    with pytest.raises(ValueError, match="unknown coordinate statistic"):
        _old_coordinate_stat(pi, "bogus", 1)
    for fn in (coordinate_counts, coordinate_counts_zero_boundary):
        for which in ("bogus", "2-21"):
            with pytest.raises(ValueError, match="unknown coordinate statistic"):
                fn(pi, which)


def _placement(place, values, weights, size):
    try:
        return place(values, weights, size)
    except PlacementImpossible as exc:
        return ("PlacementImpossible", str(exc))


def _random_placement_case(rng: random.Random, size: int, spill: int):
    """Distinct values with weights mostly in range; ``spill`` widens the
    weight range and the value count past what the row can hold."""
    count = max(0, size + rng.randint(-2, spill))
    values = rng.sample(range(1, 2 * count + 3), count)
    weights = {x: rng.randint(-spill, size + spill) for x in values}
    return values, weights


def test_placement_matches_oracle_including_impossible_cases():
    rng = random.Random(4104)
    impossible = 0
    for _ in range(4000):
        size = rng.randint(0, 9)
        values, weights = _random_placement_case(rng, size, rng.choice((0, 1, 2)))
        for from_right, old in ((False, _old_place_left), (True, _old_place_right)):
            new = partial(_place, from_right=from_right)
            got = _placement(new, values, weights, size)
            assert got == _placement(old, values, weights, size), (values, weights, size)
            impossible += isinstance(got, tuple)
    assert impossible > 1000


@pytest.mark.parametrize("size", [50, 300, 1000])
def test_placement_matches_oracle_at_large_size(size):
    rng = random.Random(4105 + size)
    values = rng.sample(range(1, 3 * size), size)
    # Weights that always fit, so the whole row is placed.
    left = {x: rng.randint(1, size - k) for k, x in enumerate(sorted(values))}
    right = {x: rng.randint(0, size - 1 - k)
             for k, x in enumerate(sorted(values, reverse=True))}
    assert _place(values, left, size, False) == _old_place_left(values, left, size)
    assert _place(values, right, size, True) == _old_place_right(values, right, size)
    # One value asking for a slot that is gone by its turn.
    last = sorted(values)[-1]
    left[last] = 2
    assert _placement(partial(_place, from_right=False), values, left, size) == \
        _placement(_old_place_left, values, left, size) == \
        ("PlacementImpossible", f"value {last} wants empty slot 2")
    first = sorted(values)[0]
    right[first] = 1
    assert _placement(partial(_place, from_right=True), values, right, size) == \
        _placement(_old_place_right, values, right, size) == \
        ("PlacementImpossible", f"value {first} wants 1 empty slots right")


def test_yzl_decoder_matches_semi_arc_oracle_on_small_histories():
    assert phi_yzl_inv(LaguerreHistory.from_text("/")) == Permutation(())
    assert _old_phi_yzl_inv(LaguerreHistory.from_text("/")) == Permutation(())
    for n in range(1, 8):
        for h in enumerate_histories(n):
            assert phi_yzl_inv(h) == _old_phi_yzl_inv(h), h.to_text()


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_yzl_decoder_matches_semi_arc_oracle_on_large_histories(h):
    assert phi_yzl_inv(h) == _old_phi_yzl_inv(h)


def test_fv_decoder_matches_slot_rescan_oracle_on_small_histories():
    empty = LaguerreHistory.from_text("/")
    assert phi_fv_inv(empty) == _old_phi_fv_inv(empty) == Permutation(())
    for n in range(1, 8):
        for h in enumerate_histories(n):
            assert phi_fv_inv(h) == _old_phi_fv_inv(h), h.to_text()


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_fv_decoder_matches_slot_rescan_oracle_on_large_histories(h):
    assert phi_fv_inv(h) == _old_phi_fv_inv(h)


def _decoded(decode, history):
    try:
        return decode(history)
    except SlotIndexOutOfRange as exc:
        return ("SlotIndexOutOfRange", str(exc))


def test_fv_decoder_fails_like_oracle_on_malformed_histories():
    # Any step word, open or below the axis, with weights from 0 up to two
    # past the height; the oracle lets a negative weight escape as an
    # IndexError, so negative weights are pinned in test_bijections only.
    rng = random.Random(4107)
    steps = tuple(StepType)
    outcomes = Counter()
    for _ in range(4000):
        w = tuple(rng.choice(steps) for _ in range(rng.randint(0, 8)))
        h = []
        height = 0
        for step in w:
            h.append(height)
            height += step.rise
        c = tuple(rng.randint(0, max(0, x) + 2) for x in h)
        history = LaguerreHistory._unchecked(w, tuple(h), c)
        got = _decoded(phi_fv_inv, history)
        assert got == _decoded(_old_phi_fv_inv, history), history.to_text()
        outcomes[got[1].split()[0] if isinstance(got, tuple) else "decoded"] += 1
    # Weight too large, leftover slots misplaced, and decoded: 3354/174/472.
    assert min(outcomes["step"], outcomes["leftover"], outcomes["decoded"]) > 100


# ---------------------------------------------------------------------------
# History layer: the split at the critical step and the XI_TABLE row lookup
# ---------------------------------------------------------------------------

def _old_history_statistics(history: LaguerreHistory) -> HistoryStatRecord:
    w = history.w
    h = history.h
    c = history.c
    n = len(w)
    cs = critical_step(history)

    neb, sdeb, ndeb, nea, sdea, ndea = [], [], [], [], [], []
    for i in range(1, n + 1):
        step = w[i - 1]
        if i < cs:
            if step in NE_STEPS:
                neb.append(i)
            else:
                sdeb.append(i)
            if step in NDE_STEPS:
                ndeb.append(i)
        elif i > cs:
            if step in NE_STEPS:
                nea.append(i)
            else:
                sdea.append(i)
            if step in NDE_STEPS:
                ndea.append(i)

    nde = [i for i in range(1, n) if w[i - 1] in NDE_STEPS]
    asc = []
    for i in range(1, n):
        if w[i - 1] in NE_STEPS:
            if c[i - 1] < c[i]:
                asc.append(i)
        elif c[i - 1] <= c[i]:
            asc.append(i)

    ht = IntMultiset.from_pairs((i, h[i - 1]) for i in range(1, n + 1) if h[i - 1])
    wt = IntMultiset.from_pairs((i, c[i - 1]) for i in range(1, n + 1) if c[i - 1])

    return HistoryStatRecord(
        cs=cs,
        Neb=IntMultiset(neb),
        Sdeb=IntMultiset(sdeb),
        Ndeb=IntMultiset(ndeb),
        Nea=IntMultiset(nea),
        Sdea=IntMultiset(sdea),
        Ndea=IntMultiset(ndea),
        Nde=IntMultiset(nde),
        Asc=IntMultiset(asc),
        Ht=ht,
        Wt=wt,
    )


def _old_table_row_index(n: int, m: int, j: int, vj_ne: bool, vj1_ne: bool | None) -> int:
    """The 1-based XI_TABLE row governing position j of the image."""
    crit = n + 1 - m
    if j == n:
        return 13 if m == 1 else 14
    if j == crit:
        return 1 if vj1_ne else 2
    if j == crit - 1:
        return 3 if vj_ne else 4
    if j < crit - 1:
        if vj_ne:
            return 5 if vj1_ne else 6
        return 7 if vj1_ne else 8
    if vj_ne:
        return 9 if vj1_ne else 10
    return 11 if vj1_ne else 12


def _check_history_layer(w_hist: LaguerreHistory) -> None:
    assert history_statistics(w_hist) == _old_history_statistics(w_hist), w_hist.to_text()
    n = w_hist.n
    m = critical_step(w_hist)
    v_hist = xi(w_hist)
    v = v_hist.w
    picked = [(j, row.row) for j, row in _table_rows(w_hist, v_hist)]
    expected = [
        (j, _old_table_row_index(n, m, j, v[j - 1] in NE_STEPS,
                                 v[j] in NE_STEPS if j < n else None))
        for j in range(1, n + 1)]
    assert picked == expected, w_hist.to_text()


def test_history_layer_matches_oracles_on_small_histories():
    for n in range(0, 8):
        for w_hist in enumerate_histories(n):
            _check_history_layer(w_hist)


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_history_layer_matches_oracles_on_large_histories(w_hist):
    _check_history_layer(w_hist)


# ---------------------------------------------------------------------------
# No quadratic intermediates
# ---------------------------------------------------------------------------

class _ConsumptionMeter:
    """Counts the items each checked IntMultiset constructor call consumes,
    and the entries of each dict handed to ``_unchecked``."""

    def __init__(self, monkeypatch):
        self.sizes: list[int] = []
        init = IntMultiset.__init__
        from_pairs = IntMultiset.from_pairs.__func__
        unchecked = IntMultiset._unchecked.__func__
        meter = self

        def counted(items):
            seen = 0
            for item in items:
                seen += 1
                yield item
            meter.sizes.append(seen)

        def counting_init(self, values=()):
            init(self, counted(values))

        def counting_from_pairs(cls, pairs):
            return from_pairs(cls, counted(pairs))

        def counting_unchecked(cls, entries):
            meter.sizes.append(len(entries))
            return unchecked(cls, entries)

        monkeypatch.setattr(IntMultiset, "__init__", counting_init)
        monkeypatch.setattr(IntMultiset, "from_pairs", classmethod(counting_from_pairs))
        monkeypatch.setattr(IntMultiset, "_unchecked", classmethod(counting_unchecked))


@pytest.mark.parametrize("kernel", [
    linear_family, cyclic_family, shifted_family,
    pattern_multisets, pattern_multisets_zero_boundary,
], ids=lambda f: f.__name__)
def test_no_multiset_consumes_more_than_n_items(kernel, monkeypatch):
    n = 300
    pi = Permutation(range(n, 0, -1))
    spread = _random_perms(n, 1, 4106)[0]
    meter = _ConsumptionMeter(monkeypatch)
    for word in (pi, spread):
        kernel(word)
    assert meter.sizes, "no IntMultiset was built"
    assert max(meter.sizes) <= n


def test_history_statistics_builds_ten_multisets(monkeypatch):
    histories = [LaguerreHistory.from_text("/"), LaguerreHistory.from_text("NEDSE/0,1,1,1,0")]
    meter = _ConsumptionMeter(monkeypatch)
    for w_hist in histories:
        before = len(meter.sizes)
        history_statistics(w_hist)
        assert len(meter.sizes) - before == 10
        assert max(meter.sizes[before:], default=0) <= w_hist.n
