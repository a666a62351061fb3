"""Tests for exact multivariate polynomials and moment sequences."""
from __future__ import annotations

from functools import cache
from math import factorial

import pytest

from srlaguerre import claims, genfun
from srlaguerre.claims import run_claim
from srlaguerre.genfun import (
    A_VARIABLES,
    MultiPoly,
    NegativePDegree,
    PQ_EULERIAN_SUBST,
    _a_exponents,
    _transfer,
    a_polynomial,
    jacobi_moments,
    joint_distribution,
    qt_catalan,
    specialize,
)
from srlaguerre.histories import NE_STEPS, enumerate_histories
from srlaguerre.perm_stats import UnknownStatistic


@cache
def _enumerated_a_polynomial(n: int) -> MultiPoly:
    """A_n summed over the n! histories: the oracle of the transfer matrix."""
    poly = MultiPoly(A_VARIABLES)
    for history in enumerate_histories(n):
        poly.add_term(_a_exponents(history))
    return poly


def test_a_polynomial_small_cases():
    assert a_polynomial(1).to_text() == "x"
    assert a_polynomial(2).to_text() == "t3 x^2 + t2 r s x v w"


def test_a_polynomial_counts_histories():
    ones = {v: 1 for v in A_VARIABLES}
    for n in range(1, 7):
        assert a_polynomial(n).evaluate(ones) == factorial(n)


def test_a_polynomial_matches_enumeration():
    for n in range(1, 9):
        assert a_polynomial(n) == _enumerated_a_polynomial(n), n


def test_pq_transfer_matches_specialized_enumeration():
    for n in range(1, 9):
        expected = specialize(_enumerated_a_polynomial(n), PQ_EULERIAN_SUBST)
        assert _transfer(n, PQ_EULERIAN_SUBST) == expected, n


def test_transfer_reads_back_large_and_negative_exponents():
    # Exponents far past n*n of either sign, in a variable order of its own.
    subst = {"t1": {"b": -1}, "t2": {"a": 2}, "t3": {}, "t4": {"a": -3, "b": 1},
             "r": {"c": 1}, "s": {"c": -1}, "x": {"a": 5}, "v": {"b": 40},
             "w": {"b": -60, "c": 7}}
    for n in range(1, 7):
        expected = specialize(_enumerated_a_polynomial(n), subst)
        assert _transfer(n, subst) == expected, n


def test_qt_catalan_matches_enumeration():
    # The p^0 part of the enumerated (p,q)-Eulerian polynomial and the
    # distribution of (des, 31-2) over 213-avoiders, both outside qt_catalan.
    for n in range(1, 9):
        pq = specialize(_enumerated_a_polynomial(n), PQ_EULERIAN_SUBST)
        limit = MultiPoly(("t", "q"))
        for (t, p, q), coeff in pq.terms.items():
            if p == 0:
                limit.add_term((t, q), coeff)
        direct = specialize(joint_distribution(n, ["des", "u31_2"], filter=(2, 1, 3)),
                            {"q1": {"t": 1}, "q2": {"q": 1}})
        assert qt_catalan(n) == limit == direct, n


@pytest.mark.parametrize("build", [a_polynomial, qt_catalan])
def test_zero_length_is_refused(build):
    for n in (0, -1):
        with pytest.raises(ValueError):
            build(n)


@pytest.mark.parametrize("n, terms", [(9, 14258), (10, 37246)])
def test_a_polynomial_symmetry_beyond_enumeration(n, terms):
    # Cor 1.1 on A_n itself: its monomial map permutes the terms.  No
    # history is enumerated and xi is not called.
    poly = a_polynomial(n)
    assert len(poly.terms) == terms
    assert sum(poly.terms.values()) == factorial(n)
    image = {claims._a_image(n, exps): coeff for exps, coeff in poly.terms.items()}
    assert image == poly.terms


def _mutants(rule):
    """Wrappers of the step rule with the output of one code mutation."""

    def plus_one(k):
        def mutant(*args):
            exps = list(rule(*args))
            exps[k] += 1
            return tuple(exps)
        return mutant

    def swap(j, k):
        def mutant(*args):
            exps = list(rule(*args))
            exps[j], exps[k] = exps[k], exps[j]
            return tuple(exps)
        return mutant

    def weak_ascent(n, i, step, height, weight, next_weight, zero_right):
        exps = list(rule(n, i, step, height, weight, next_weight, zero_right))
        exps[5] = int(i < n and weight <= next_weight + (step not in NE_STEPS))
        return tuple(exps)

    yield from ((f"{name}+1", plus_one(k)) for k, name in enumerate(A_VARIABLES))
    yield "t1<->t2 (SdE before/after)", swap(0, 1)
    yield "t3<->t4 (NE before/after)", swap(2, 3)
    # Reading v or w one step later is no mutant: the path starts and ends
    # at height 0 and c_1 = 0, so the sums are the same.
    yield "s with <=", weak_ascent


def test_every_step_rule_mutant_differs_from_enumeration_by_n4(monkeypatch):
    # Each of these fails by n = 2.  A survivor is a gap in the
    # oracle comparison, not a reason to loosen this test.
    survivors = []
    for label, mutant in _mutants(genfun._step_exponents):
        monkeypatch.setattr(genfun, "_step_exponents", mutant)
        if all(a_polynomial(n) == _enumerated_a_polynomial(n) for n in range(1, 5)):
            survivors.append(label)
    assert not survivors, f"step-rule mutants equal to the oracle: {survivors}"


def test_a_polynomial_symmetry():
    for n in range(1, 7):
        assert run_claim("cor1.1", n).status == "pass"


def test_symmetry_check_detects_broken_involution(monkeypatch):
    monkeypatch.setattr(claims, "xi", lambda history: history)
    assert run_claim("cor1.1", 3).status == "fail"


def test_eulerian_specialization():
    for n in range(1, 6):
        tpq = specialize(a_polynomial(n), PQ_EULERIAN_SUBST)
        eulerian = specialize(tpq, {"t": {"t": 1}, "p": {}, "q": {}})
        expected = joint_distribution(
            n, ["des"])
        # Rename the variable so the two polynomials are comparable.
        renamed = specialize(expected, {"q": {"t": 1}})
        assert eulerian == renamed


def test_specialize_requires_every_variable():
    with pytest.raises(ValueError):
        specialize(a_polynomial(2), {"x": {"x": 1}})


def test_joint_distribution_examples():
    assert joint_distribution(3, ["inv"]).to_text() == "1 + 2 q + 2 q^2 + q^3"
    assert joint_distribution(3, []).to_text() == "6"
    assert joint_distribution(4, ["des"], filter=(3, 1, 2)).to_text() == \
        "1 + 6 q + 6 q^2 + q^3"
    two = joint_distribution(3, ["des", "inv"])
    assert two.variables == ("q1", "q2")
    assert two.evaluate({"q1": 1, "q2": 1}) == 6


def test_joint_distribution_unknown_statistic():
    with pytest.raises(UnknownStatistic):
        joint_distribution(3, ["bogus"])


def test_qt_catalan_values():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        poly = qt_catalan(n)
        assert poly.evaluate({v: 1 for v in poly.variables}) == catalan[n]
    assert qt_catalan(3).to_text() == "1 + 2 t + t q + t^2"


def test_negative_p_degree_is_value_error():
    assert issubclass(NegativePDegree, ValueError)


def test_jacobi_moments():
    # Constant weight 1 on down steps gives the aerated Catalan numbers.
    assert jacobi_moments(lambda k: 0, lambda k: 1, 7) == [1, 0, 1, 0, 2, 0, 5]
    for alpha in (0, 1, 2):
        moments = jacobi_moments(
            lambda k: 2 * k + alpha + 1, lambda k: k * (k + alpha), 7)
        assert moments == [
            factorial(n + alpha) // factorial(alpha) for n in range(7)]


def test_multipoly_json_round_trip():
    poly = a_polynomial(3)
    blob = poly.to_json()
    assert isinstance(blob, list)
    total = MultiPoly(poly.variables)
    for term in blob:
        exps = tuple(term["exps"].get(v, 0) for v in poly.variables)
        total.add_term(exps, term["coeff"])
    assert total == poly
