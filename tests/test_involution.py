"""Tests for the reflection-like involution on weighted paths."""

from collections import Counter
from dataclasses import replace

import pytest

from srlaguerre.claims import run_claim
from srlaguerre.histories import (
    LaguerreHistory,
    NE_STEPS,
    critical_step,
    enumerate_histories,
    history_statistics,
)
from srlaguerre.involution import (
    NE,
    SDE,
    XI_TABLE,
    check_against_table,
    check_table_row,
    verify_xi_contract,
    xi,
    xi_table_coverage,
)


def test_smallest_cases():
    ee = LaguerreHistory.from_text("EE/0,0")
    ns = LaguerreHistory.from_text("NS/0,1")
    assert xi(ee) == ns
    assert xi(ns) == ee
    e = LaguerreHistory.from_text("E/0")
    assert xi(e) == e


def test_involution_exhaustive():
    for n in range(1, 7):
        for w in enumerate_histories(n):
            assert xi(xi(w)) == w


def test_defining_conditions_exhaustive():
    for n in range(1, 7):
        for w in enumerate_histories(n):
            assert verify_xi_contract(w, xi(w))


def test_contract_accepts_exactly_the_images_of_xi():
    # Every pair of histories with n <= 5, so a contract that accepted more
    # than (W, xi(W)) would fail here.
    pairs = accepted = 0
    for n in range(0, 6):
        hists = list(enumerate_histories(n))
        for w in hists:
            image = xi(w)
            for v in hists:
                assert verify_xi_contract(w, v) == (v == image), (w.to_text(), v.to_text())
                pairs += 1
                accepted += v == image
    assert (pairs, accepted) == (15018, 154)


def test_critical_step_reflected():
    for n in range(1, 7):
        for w in enumerate_histories(n):
            assert critical_step(xi(w)) == n + 1 - critical_step(w)


def test_step_classes_reflected():
    # Away from the image's critical step, NE and SdE classes swap
    # under index reversal.
    for n in range(1, 7):
        for w in enumerate_histories(n):
            v = xi(w)
            crit = critical_step(v)
            for j in range(1, n + 1):
                if j == crit:
                    assert v.step(j) in NE_STEPS
                else:
                    assert ((v.step(j) in NE_STEPS)
                            != (w.step(n + 1 - j) in NE_STEPS))


def test_weight_offsets():
    # b_j - c_{n+1-j} always equals g_j - h_{n+1-j}.
    for n in range(1, 7):
        for w in enumerate_histories(n):
            v = xi(w)
            for j in range(1, n + 1):
                assert (v.weight(j) - w.weight(n + 1 - j)
                        == v.height(j) - w.height(n + 1 - j))


def test_table_matches_exhaustive():
    for n in range(1, 7):
        for w in enumerate_histories(n):
            assert check_against_table(w, xi(w)) is None


def test_rows_one_to_twelve_at_j_equal_n_are_a_problem_not_an_error():
    for n in range(1, 5):
        for w in enumerate_histories(n):
            v = xi(w)
            for row in XI_TABLE[:12]:
                assert check_table_row(w, v, n, row) == "rows 1-12 need step j+1; j = n"


def test_table_coverage_complete_by_five():
    seen = Counter()
    for n in range(1, 6):
        seen += xi_table_coverage(n)
    assert sorted(seen) == list(range(1, 15))


def test_all_rows_fire_by_four():
    seen = Counter()
    for n in range(1, 5):
        seen += xi_table_coverage(n)
    assert sorted(seen) == list(range(1, 15))


def test_five_stat_symmetry():
    for n in range(1, 7):
        for w in enumerate_histories(n):
            g = history_statistics(w)
            h = history_statistics(xi(w))
            assert (len(g.Ht) - len(g.Wt), len(g.Neb), len(g.Sdeb),
                    len(g.Nea), len(g.Sdea)) == (
                len(h.Ht) - len(h.Wt), len(h.Sdea), len(h.Nea),
                len(h.Sdeb), len(h.Neb))


def test_corrupted_table_is_detected():
    import dataclasses

    row = XI_TABLE[0]
    XI_TABLE[0] = dataclasses.replace(row, g_off=row.g_off + 1)
    try:
        failures = [
            w for n in range(1, 5) for w in enumerate_histories(n)
            if check_against_table(w, xi(w)) is not None
        ]
        assert failures
    finally:
        XI_TABLE[0] = row


def _single_column_mutants():
    """(index, mutant) for each XI_TABLE row with one class column swapped
    between NE and SdE, or one height offset moved by one."""
    for index, row in enumerate(XI_TABLE):
        for column in ("vj", "vj1", "w_rev", "w_rev_next"):
            value = getattr(row, column)
            if value in (NE, SDE):
                yield index, replace(row, **{column: SDE if value == NE else NE})
        for column in ("g_off", "g_next_off"):
            value = getattr(row, column)
            if value is not None:
                for delta in (-1, 1):
                    yield index, replace(row, **{column: value + delta})


def test_every_single_column_mutant_fails_the_involution_claim():
    mutants = list(_single_column_mutants())
    assert len(mutants) == 102
    missed = []
    for index, mutant in mutants:
        original = XI_TABLE[index]
        XI_TABLE[index] = mutant
        try:
            caught = any(run_claim("thm3.2-involution", n).status == "fail"
                         for n in range(1, 6))
        finally:
            XI_TABLE[index] = original
        if not caught:
            missed.append(mutant)
    assert missed == []
