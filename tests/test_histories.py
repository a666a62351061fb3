"""Tests for weighted bicolored Motzkin paths."""

import math
import re
from itertools import product

import pytest

from srlaguerre.histories import (
    LaguerreHistory,
    NE_STEPS,
    PathBelowAxis,
    PathNotClosed,
    StepType,
    WeightOutOfBounds,
    critical_step,
    enumerate_histories,
    history_statistics,
)
from srlaguerre.multiset import IntMultiset

N, E, DE, S = StepType.N, StepType.E, StepType.DE, StepType.S


def brute_force_histories(n):
    """Independent oracle: all (word, weights) pairs passing the axioms."""
    found = []
    for word in product((N, E, DE, S), repeat=n):
        h = 0
        heights = []
        ok = True
        for step in word:
            heights.append(h)
            h += step.rise
            if h < 0:
                ok = False
                break
        if not ok or h != 0:
            continue
        ranges = []
        for step, height in zip(word, heights):
            lo = 0 if step in (N, E) else 1
            if lo > height:
                ok = False
                break
            ranges.append(range(lo, height + 1))
        if not ok:
            continue
        for weights in product(*ranges):
            found.append((word, weights))
    return found


def test_anchor_history_valid():
    w = LaguerreHistory.from_text("NNNDESDSS/0,0,0,2,1,3,2,2,1")
    assert w.n == 9
    assert w.h == (0, 1, 2, 3, 3, 3, 2, 2, 1)
    assert critical_step(w) == 3


def test_heights_computed():
    w = LaguerreHistory((N, E, DE, S), (0, 1, 1, 1))
    assert w.h == (0, 1, 1, 1)


@pytest.mark.parametrize("accessor", ["step", "height", "weight"])
@pytest.mark.parametrize("i", [0, -1, -2, 3])
def test_one_based_accessors_reject_indices_outside_1_to_n(accessor, i):
    # w[i - 1] alone would read 0 and negative indices from the end.
    history = LaguerreHistory.from_text("NS/0,1")
    with pytest.raises(IndexError):
        getattr(history, accessor)(i)


def test_one_based_accessors_read_steps_in_order():
    history = LaguerreHistory.from_text("NS/0,1")
    assert [history.step(i) for i in (1, 2)] == [N, S]
    assert [history.height(i) for i in (1, 2)] == [0, 1]
    assert [history.weight(i) for i in (1, 2)] == [0, 1]


def test_path_below_axis_rejected():
    with pytest.raises(PathBelowAxis):
        LaguerreHistory((S, N), (1, 0))


def test_path_not_closed_rejected():
    with pytest.raises(PathNotClosed):
        LaguerreHistory((N, E), (0, 0))


def test_weight_bounds():
    # NE steps allow 0..h, SdE steps require 1..h.
    with pytest.raises(WeightOutOfBounds):
        LaguerreHistory((N, S), (1, 1))
    with pytest.raises(WeightOutOfBounds):
        LaguerreHistory((N, S), (0, 0))
    with pytest.raises(WeightOutOfBounds):
        LaguerreHistory((E,), (1,))


def test_text_round_trip():
    for w in enumerate_histories(4):
        assert LaguerreHistory.from_text(w.to_text()) == w


def test_json_round_trip():
    for w in enumerate_histories(4):
        assert LaguerreHistory.from_json(w.to_json()) == w


def test_text_and_json_reject_unknown_step_letters_alike():
    for parse, data in ((LaguerreHistory.from_text, "Q/0"),
                        (LaguerreHistory.from_json, {"w": ["Q"], "c": [0]})):
        with pytest.raises(ValueError, match="unknown step letter 'Q'"):
            parse(data)


def test_from_json_names_a_missing_key():
    for data, key in (({"w": ["E"]}, "c"), ({"c": [0]}, "w")):
        with pytest.raises(ValueError, match=f"history JSON lacks key '{key}'"):
            LaguerreHistory.from_json(data)


@pytest.mark.parametrize("data", [[1, 2], None, {"w": ["N", "S"], "c": 5},
                                  {"w": 5, "c": [0]}])
def test_from_json_rejects_malformed_shapes(data):
    with pytest.raises(ValueError, match="history JSON must be an object of lists, got"):
        LaguerreHistory.from_json(data)


def test_non_integer_weights_rejected():
    with pytest.raises(ValueError, match="history weights must be integers, got 0.5"):
        LaguerreHistory([N, E, S], [0, 0.5, 1])


def test_bool_weights_rejected():
    with pytest.raises(ValueError, match="history weights must be integers, got False"):
        LaguerreHistory([N, S], [False, True])


@pytest.mark.parametrize("steps, bad", [
    ((1.0, 1.0), "1.0"), ((3.0,), "3.0"), ((True, False), "True"),
    ((0, "S"), "'S'"), ((N, 4), "4"), ((-1,), "-1"),
])
def test_bool_and_non_integer_steps_rejected(steps, bad):
    # StepType(1.0) and StepType(True) would read as E by hash.
    with pytest.raises(ValueError, match=re.escape(f"history steps must be integers 0..3, got {bad}")):
        LaguerreHistory(steps, [0] * len(steps))


def test_integer_steps_read_as_step_types():
    history = LaguerreHistory((0, 1, 2, 3), (0, 0, 1, 1))
    assert history.w == (N, E, DE, S)
    assert all(type(step) is StepType for step in history.w)


@pytest.mark.parametrize("text, token", [("E/٠", "٠"), ("E/+0", "+0"), ("NS/0,1_0", "1_0")])
def test_from_text_reads_ascii_weights_only(text, token):
    message = f"invalid literal for int() with base 10: {token!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        LaguerreHistory.from_text(text)


def test_from_text_passes_negative_weights_to_the_bounds_check():
    assert LaguerreHistory.from_text("NS/ 0 , 1 ") == LaguerreHistory([N, S], [0, 1])
    with pytest.raises(WeightOutOfBounds):
        LaguerreHistory.from_text("E/-1")


@pytest.mark.parametrize("c, bad", [([0, 1.9], "1.9"), (["0", "1"], "'0'")])
def test_from_json_rejects_non_integer_weights(c, bad):
    # int() would truncate 1.9 to 1 and parse the strings.
    with pytest.raises(ValueError, match=f"history weights must be integers, got {bad}"):
        LaguerreHistory.from_json({"w": ["N", "S"], "c": c})


def test_enumeration_matches_brute_force():
    for n in range(0, 6):
        got = {(w.w, w.c) for w in enumerate_histories(n)}
        assert got == set(brute_force_histories(n))


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
def test_enumeration_refuses_a_non_integer_length(n):
    # 2.5 used to yield no history at all.
    with pytest.raises(ValueError, match="history lengths must be integers"):
        list(enumerate_histories(n))


def test_cardinality_is_factorial():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_histories(n)) == math.factorial(n)


def test_critical_step_is_ne_class():
    # The last weight-zero step always exists and is an N or E step.
    for n in range(1, 6):
        for w in enumerate_histories(n):
            cs = critical_step(w)
            assert w.weight(cs) == 0
            assert w.step(cs) in NE_STEPS
            assert all(w.weight(i) > 0 for i in range(cs + 1, n + 1))


def test_critical_step_names_a_history_with_no_zero_weight():
    # The constructor rejects NS/1,1; only the unchecked build makes it.
    history = LaguerreHistory._unchecked((N, S), (0, 1), (1, 1))
    with pytest.raises(ValueError, match=re.escape("no weight of NS/1,1 is 0")):
        critical_step(history)


def test_first_weight_is_zero():
    for w in enumerate_histories(5):
        assert w.weight(1) == 0


def test_statistics_on_anchor_history():
    w = LaguerreHistory.from_text("NNNDESDSS/0,0,0,2,1,3,2,2,1")
    g = history_statistics(w)
    assert g.cs == 3
    assert g.Neb == IntMultiset([1, 2])
    assert g.Sdeb == IntMultiset()
    assert g.Nea == IntMultiset([5])
    assert g.Sdea == IntMultiset([4, 6, 7, 8, 9])
    assert g.Ndeb == IntMultiset([1, 2])
    assert g.Ndea == IntMultiset([4, 7])
    assert g.Nde == IntMultiset([1, 2, 3, 4, 7])
    assert g.Ht == IntMultiset.from_pairs(
        [(2, 1), (3, 2), (4, 3), (5, 3), (6, 3), (7, 2), (8, 2), (9, 1)])
    assert g.Wt == IntMultiset.from_pairs(
        [(4, 2), (5, 1), (6, 3), (7, 2), (8, 2), (9, 1)])
    assert len(g.Ht) == 17 and len(g.Wt) == 11


def test_ascent_set():
    w = LaguerreHistory.from_text("NNNDESDSS/0,0,0,2,1,3,2,2,1")
    g = history_statistics(w)
    # NE steps ascend strictly, SdE steps ascend weakly.
    assert g.Asc == IntMultiset([3, 5, 7])
