"""Tests for the integer multiset type."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlaguerre.multiset import (
    ContainmentViolation,
    IntMultiset,
    OutOfRange,
    kappa,
)


def test_basic_construction():
    m = IntMultiset([4, 5, 4])
    assert len(m) == 3
    assert m.multiplicity(4) == 2
    assert m.multiplicity(5) == 1
    assert m.multiplicity(6) == 0
    assert 4 in m and 6 not in m
    assert list(m) == [4, 4, 5]


def test_empty():
    m = IntMultiset()
    assert len(m) == 0
    assert m == IntMultiset([])


def test_from_pairs():
    m = IntMultiset.from_pairs([(3, 2), (7, 1)])
    assert m == IntMultiset([3, 3, 7])


def test_disjoint_union():
    a = IntMultiset([1, 2, 2])
    b = IntMultiset([2, 3])
    assert (a | b) == IntMultiset([1, 2, 2, 2, 3])
    assert (b | a) == (a | b)


def test_strict_difference():
    a = IntMultiset([1, 2, 2, 3])
    b = IntMultiset([2, 3])
    assert (a - b) == IntMultiset([1, 2])


def test_strict_difference_raises_on_missing_value():
    with pytest.raises(ContainmentViolation):
        IntMultiset([1]) - IntMultiset([2])


def test_strict_difference_raises_on_excess_multiplicity():
    with pytest.raises(ContainmentViolation):
        IntMultiset([2]) - IntMultiset([2, 2])


def test_kappa_reflects():
    m = IntMultiset([1, 1, 3])
    assert kappa(4, m) == IntMultiset([3, 3, 1])


def test_kappa_out_of_range():
    with pytest.raises(OutOfRange):
        kappa(4, IntMultiset([4]))
    with pytest.raises(OutOfRange):
        kappa(4, IntMultiset([5]))


def test_text_round_trip():
    m = IntMultiset([4, 4, 5])
    assert m.to_text() == "{4^2,5}"
    assert IntMultiset.from_text(m.to_text()) == m
    assert IntMultiset.from_text("{}") == IntMultiset()
    assert IntMultiset.from_text("{ 2^3 , 5 }") == IntMultiset([2, 2, 2, 5])


def test_json_round_trip():
    m = IntMultiset([9, 9, 9, 2])
    assert IntMultiset.from_json(m.to_json()) == m


@pytest.mark.parametrize("data, bad", [([[1.9, 1]], "1.9"), ([[2, 1.5]], "1.5"),
                                       ([["3", 1]], "'3'"), ([[True, 1]], "True")])
def test_from_json_rejects_non_integers(data, bad):
    # int() would truncate 1.9 to 1 and parse "3".
    with pytest.raises(ValueError, match=f"multiset JSON entries must be integers, got {bad}"):
        IntMultiset.from_json(data)


@pytest.mark.parametrize("text, token", [("{1_0}", "1_0"), ("{١}", "١"), ("{2^+3}", "+3")])
def test_from_text_reads_ascii_digits_only(text, token):
    message = f"invalid literal for int() with base 10: {token!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        IntMultiset.from_text(text)


@given(st.lists(st.integers(min_value=1, max_value=9)))
def test_union_then_difference_is_identity(values):
    a = IntMultiset(values)
    b = IntMultiset([1, 2, 3])
    assert (a | b) - b == a


@given(st.lists(st.integers(min_value=1, max_value=9)))
def test_kappa_is_involution(values):
    m = IntMultiset(values)
    assert kappa(10, kappa(10, m)) == m


@given(st.lists(st.integers(min_value=1, max_value=9)),
       st.lists(st.integers(min_value=1, max_value=9)))
def test_union_cardinality_adds(left, right):
    a, b = IntMultiset(left), IntMultiset(right)
    assert len(a | b) == len(a) + len(b)


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=12).flatmap(
           lambda v: st.tuples(st.just(v), st.permutations(v))),
       st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4))
def test_representation_ignores_insertion_order(pair, extra):
    values, shuffled = pair
    a, b = IntMultiset(values), IntMultiset(shuffled)
    # The same counts split over repeated (value, multiplicity) pairs.
    split = IntMultiset.from_pairs((v, 1) for v in reversed(shuffled))
    for m in (b, split):
        assert m == a
        assert hash(m) == hash(a)
        assert m.to_text() == a.to_text()
        assert m.to_json() == a.to_json()
        assert list(m) == sorted(values)
    # Each value of ``extra`` exceeds its multiplicity in ``a``; the
    # smallest is reported whatever order either side was built in.
    for left, right in ((a, values + extra), (b, extra[::-1] + shuffled[::-1])):
        with pytest.raises(ContainmentViolation) as exc:
            left - IntMultiset(right)
        assert exc.value.value == min(extra)
