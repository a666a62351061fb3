"""Tests for exact multivariate polynomials and moment sequences."""
from __future__ import annotations

from math import factorial

import pytest

from srlaguerre import claims
from srlaguerre.claims import run_claim
from srlaguerre.genfun import (
    A_VARIABLES,
    MultiPoly,
    NegativePDegree,
    PQ_EULERIAN_SUBST,
    a_polynomial,
    jacobi_moments,
    joint_distribution,
    qt_catalan,
    specialize,
)
from srlaguerre.perm_stats import UnknownStatistic


def test_a_polynomial_small_cases():
    assert a_polynomial(1).to_text() == "x"
    assert a_polynomial(2).to_text() == "t3 x^2 + t2 r s x v w"


def test_a_polynomial_counts_histories():
    ones = {v: 1 for v in A_VARIABLES}
    for n in range(1, 7):
        assert a_polynomial(n).evaluate(ones) == factorial(n)


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
