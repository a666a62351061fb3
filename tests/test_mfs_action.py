"""Tests for the descent-complementing involution built from hop moves."""
from __future__ import annotations

from srlaguerre.multiset import IntMultiset
from srlaguerre.mfs_action import (
    coordinate_counts_zero_boundary,
    coordinate_stat_by_extrema,
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


def test_zero_boundary_coordinates_match_extrema_oracle():
    for n in range(1, 6):
        for pi in iter_perms(n):
            for which in ("2-13", "2-31", "31-2"):
                counts = coordinate_counts_zero_boundary(pi, which)
                for i in range(1, n + 1):
                    assert counts[i - 1] == coordinate_stat_by_extrema(pi, which, i)


def test_zero_boundary_multisets_anchor():
    pi = Permutation.from_text("618742593")
    two13, two31, three12 = pattern_multisets_zero_boundary(pi)
    assert two13 == IntMultiset.from_text("{4,6^2,7,8}")
    assert two31 == IntMultiset.from_text("{1,2,4,5,6^2,7,8}")
    assert three12 == IntMultiset.from_text("{2,3^2,4,5^2}")
