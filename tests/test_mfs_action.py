"""Tests for the descent-complementing involution built from hop moves."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlaguerre.histories import StepType
from srlaguerre.multiset import IntMultiset
from srlaguerre.mfs_action import (
    _extrema_sequence,
    coordinate_counts_by_extrema,
    coordinate_counts_zero_boundary,
    mfs_full,
    mfs_phi_x,
    pattern_multisets_zero_boundary,
    starred_classes,
    x_factorization,
)
from srlaguerre.perm_stats import (
    Permutation,
    iter_perms,
    linear_family,
    pattern_multisets,
)


def test_x_factorization_anchor():
    pi = Permutation.from_text("28531746")
    assert x_factorization(pi, 3) == ((2,), (8, 5), (), (1, 7, 4, 6))


def test_phi_x_anchor():
    pi = Permutation.from_text("28531746")
    assert mfs_phi_x(pi, 3) == Permutation.from_text("23851746")


def test_full_map_anchors():
    assert mfs_full(Permutation.from_text("596137428")) == \
        Permutation.from_text("695147328")
    assert mfs_full(Permutation.from_text("12")) == Permutation.from_text("21")


def test_phi_x_is_involution():
    for n in range(1, 6):
        for pi in iter_perms(n):
            for x in range(1, n + 1):
                assert mfs_phi_x(mfs_phi_x(pi, x), x) == pi


def test_full_map_is_involution():
    for n in range(1, 7):
        for pi in iter_perms(n):
            assert mfs_full(mfs_full(pi)) == pi


def test_full_map_complements_descents():
    for n in range(1, 6):
        for pi in iter_perms(n):
            des = len(linear_family(pi).Des)
            des_image = len(linear_family(mfs_full(pi)).Des)
            assert des + des_image == n - 1


def test_full_map_preserves_side_patterns():
    for n in range(1, 6):
        for pi in iter_perms(n):
            two13, _, three12 = pattern_multisets(pi)
            two13_im, _, three12_im = pattern_multisets(mfs_full(pi))
            assert two13 == two13_im
            assert three12 == three12_im


def test_full_map_shifts_zero_boundary_pattern():
    for n in range(1, 6):
        for pi in iter_perms(n):
            star = starred_classes(pi)
            _, two31_zero, _ = pattern_multisets_zero_boundary(pi)
            _, image_zero, _ = pattern_multisets_zero_boundary(mfs_full(pi))
            expected = (two31_zero | star.Ldd) - star.Lda
            assert image_zero == expected


def test_starred_classes_anchor_and_partition():
    star = starred_classes(Permutation.from_text("618742593"))
    assert star.Lpk == IntMultiset([6, 8, 9])
    assert star.Lval == IntMultiset([1, 2])
    assert star.Lda == IntMultiset([5])
    assert star.Ldd == IntMultiset([3, 4, 7])
    for n in range(1, 6):
        for pi in iter_perms(n):
            s = starred_classes(pi)
            union = s.Lpk | s.Lval | s.Lda | s.Ldd
            assert union == IntMultiset(range(1, n + 1))


def coordinate_stat_by_extrema(pi: Permutation, which: str, i: int) -> int:
    """Zero-boundary coordinate statistic recomputed from consecutive extrema.

    Each occurrence is witnessed by a consecutive valley/peak pair (no other
    extremum strictly between them) bracketing the value pi(i): ``2-13`` uses
    a (valley, peak) pair to the right of i, ``2-31`` a (peak, valley) pair
    to the right, and ``31-2`` a (peak, valley) pair to the left.  This is
    the per-position count that fact4.8 read before
    ``coordinate_counts_by_extrema``; it rebuilds the extrema for each
    position, and its body is kept unchanged as that function's oracle.
    """
    _N, _S = StepType.N, StepType.S
    v = pi.value(i)
    extrema = _extrema_sequence(pi)
    count = 0
    for (j, vj, kind_j), (k, vk, kind_k) in zip(extrema, extrema[1:]):
        if which == "2-13":
            if kind_j is _N and kind_k is _S and i < j:
                if vj < v < vk:
                    count += 1
        elif which == "2-31":
            if kind_j is _S and kind_k is _N and i < j:
                if vk < v < vj:
                    count += 1
        elif which == "31-2":
            if kind_j is _S and kind_k is _N and k < i:
                if vk < v < vj:
                    count += 1
        else:
            raise ValueError(f"unknown coordinate statistic: {which!r}")
    return count


_COORDINATES = ("2-13", "2-31", "31-2")


def _check_extrema_counts(pi: Permutation) -> None:
    by_extrema = coordinate_counts_by_extrema(pi)
    assert list(by_extrema) == list(_COORDINATES)
    for which in _COORDINATES:
        oracle = tuple(coordinate_stat_by_extrema(pi, which, i) for i in range(1, pi.n + 1))
        assert by_extrema[which] == oracle, (pi.to_text(), which)
        assert coordinate_counts_zero_boundary(pi, which) == oracle, (pi.to_text(), which)


def test_zero_boundary_coordinates_match_extrema_oracle():
    for n in range(1, 8):
        for pi in iter_perms(n):
            _check_extrema_counts(pi)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(Permutation))
def test_extrema_counts_match_oracle_on_large_perms(pi):
    _check_extrema_counts(pi)


@pytest.mark.parametrize("pi", [Permutation(range(1, 301)), Permutation(range(300, 0, -1))],
                         ids=["increasing", "decreasing"])
def test_extrema_counts_match_oracle_on_monotone_perms(pi):
    _check_extrema_counts(pi)


def test_extrema_counts_anchor():
    # The counts behind test_zero_boundary_multisets_anchor's multisets.
    counts = coordinate_counts_by_extrema(Permutation.from_text("618742593"))
    assert counts == {"2-13": (2, 0, 1, 1, 1, 0, 0, 0, 0),
                      "2-31": (2, 1, 1, 1, 1, 1, 1, 0, 0),
                      "31-2": (0, 0, 0, 0, 1, 1, 2, 0, 2)}


def test_zero_boundary_multisets_anchor():
    pi = Permutation.from_text("618742593")
    two13, two31, three12 = pattern_multisets_zero_boundary(pi)
    assert two13 == IntMultiset.from_text("{4,6^2,7,8}")
    assert two31 == IntMultiset.from_text("{1,2,4,5,6^2,7,8}")
    assert three12 == IntMultiset.from_text("{2,3^2,4,5^2}")
