"""Bijection, involution and transport properties on random permutations
and random histories of size up to 200, far past the sizes the claims sweep
exhaustively.

Random histories are drawn directly, step by step: a step is allowed when
the path can still return to the axis, and each weight is drawn inside its
bounds.  They exercise the decoders and ``xi`` from the history side.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlaguerre.bijections import (
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
)
from srlaguerre.claims import get_claim
from srlaguerre.histories import NE_STEPS, LaguerreHistory, StepType
from srlaguerre.involution import check_against_table, verify_xi_contract, xi
from srlaguerre.perm_stats import Permutation

large_perms = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Permutation)



@st.composite
def large_histories(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    steps, weights = [], []
    height = 0
    for i in range(n):
        remaining = n - i - 1
        step = draw(st.sampled_from([
            s for s in StepType
            if 0 <= height + s.rise <= remaining and (s in NE_STEPS or height)]))
        lo = 0 if step in NE_STEPS else 1
        weights.append(draw(st.integers(min_value=lo, max_value=height)))
        steps.append(step)
        height += step.rise
    return LaguerreHistory(steps, weights)


_ENCODINGS = ((phi_fv, phi_fv_inv), (phi_fz, phi_fz_inv), (phi_yzl, phi_yzl_inv))


@settings(deadline=None, max_examples=40)
@given(large_perms)
def test_encodings_round_trip(pi):
    for encode, decode in _ENCODINGS:
        assert decode(encode(pi)) == pi, encode.__name__


@settings(deadline=None, max_examples=40)
@given(large_perms)
def test_xi_is_an_involution(pi):
    for encode, _ in _ENCODINGS:
        h = encode(pi)
        assert xi(xi(h)) == h, encode.__name__


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_decodings_round_trip(h):
    for encode, decode in _ENCODINGS:
        assert encode(decode(h)) == h, decode.__name__


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_xi_on_random_histories(h):
    v = xi(h)
    assert xi(v) == h
    assert verify_xi_contract(h, v)
    assert check_against_table(h, v) is None


@pytest.mark.parametrize(
    "claim", ["prop4.3", "prop4.10", "prop4.17", "csz-corollary", "thm4.6",
              "cor4.4", "eta-corollary", "rho-corollary", "thm4.23-eq35",
              "thm4.23-eq36", "lem4.14", "fact4.8", "thm4.20", "lem4.21",
              "lem4.22", "eq34"])
@settings(deadline=None, max_examples=25)
@given(pi=large_perms)
def test_transport_claims_hold(claim, pi):
    assert get_claim(claim).test(pi.n, pi) is None
