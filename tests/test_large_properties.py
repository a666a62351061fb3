"""Bijection, involution and transport properties on random permutations of
size up to 200, far past the sizes the claims sweep exhaustively.

Every encoding is a bijection onto the restricted Laguerre histories, so the
encodings of a random permutation are random valid histories for ``xi``.
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
from srlaguerre.involution import xi
from srlaguerre.perm_stats import Permutation

large_perms = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Permutation)

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


@pytest.mark.parametrize(
    "claim", ["prop4.3", "prop4.10", "prop4.17", "csz-corollary", "thm4.6"])
@settings(deadline=None, max_examples=25)
@given(pi=large_perms)
def test_transport_claims_hold(claim, pi):
    assert get_claim(claim).test(pi.n, pi) is None
