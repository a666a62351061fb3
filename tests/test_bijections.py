"""Tests for the permutation-to-history encodings and derived maps."""
from __future__ import annotations

from dataclasses import fields

import pytest

from srlaguerre.bijections import (
    PlacementImpossible,
    SlotIndexOutOfRange,
    conjugated_map,
    kreweras,
    phi_csz,
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
    theta,
)
from srlaguerre.histories import (
    LaguerreHistory,
    StepType,
    critical_step,
    history_statistics,
)
from srlaguerre.involution import xi
from srlaguerre.perm_stats import Permutation, iter_perms, trivial_bijection

ANCHOR_HISTORY = LaguerreHistory.from_text("NNNDESDSS/0,0,0,2,1,3,2,2,1")


def test_anchor_triple():
    assert phi_fv(Permutation.from_text("618742593")) == ANCHOR_HISTORY
    assert phi_fz(Permutation.from_text("947612853")) == ANCHOR_HISTORY
    assert phi_yzl(Permutation.from_text("671395482")) == ANCHOR_HISTORY


def test_anchor_inverses():
    assert phi_fv_inv(ANCHOR_HISTORY) == Permutation.from_text("618742593")
    assert phi_fz_inv(ANCHOR_HISTORY) == Permutation.from_text("947612853")
    assert phi_yzl_inv(ANCHOR_HISTORY) == Permutation.from_text("671395482")


@pytest.mark.parametrize("encode,decode", [
    (phi_fv, phi_fv_inv), (phi_fz, phi_fz_inv), (phi_yzl, phi_yzl_inv)])
def test_round_trips(encode, decode):
    for n in range(1, 7):
        seen = set()
        for pi in iter_perms(n):
            history = encode(pi)
            assert decode(history) == pi
            seen.add(history.to_text())
        # Injectivity onto the full history set of size n!.
        assert len(seen) == len(list(iter_perms(n)))


def test_derived_map_anchors():
    assert conjugated_map(Permutation.from_text("671395482"), "rho") == \
        Permutation.from_text("937628145")
    assert theta(Permutation.from_text("947612853")) == \
        Permutation.from_text("528943617")
    assert phi_csz(Permutation.from_text("618742593")) == \
        Permutation.from_text("947612853")
    assert kreweras(Permutation.from_text("12")) == Permutation.from_text("21")


def test_eta_equals_theta():
    for n in range(1, 7):
        for pi in iter_perms(n):
            assert conjugated_map(pi, "eta") == theta(pi)


def test_yzl_factorizations():
    for n in range(1, 7):
        for pi in iter_perms(n):
            assert phi_yzl(pi) == phi_fz(kreweras(pi))
            assert phi_yzl(pi) == xi(phi_fz(trivial_bijection(pi, "rci")))


def test_critical_step_projections():
    for n in range(1, 7):
        for pi in iter_perms(n):
            last = pi.value(n)
            assert critical_step(phi_fv(pi)) == last
            assert critical_step(phi_fz(pi)) == last
            assert critical_step(phi_yzl(pi)) == pi.position(1)


def test_conjugated_maps_are_involutions():
    for which in ("phi", "eta", "rho"):
        for n in range(1, 6):
            for pi in iter_perms(n):
                assert conjugated_map(conjugated_map(pi, which), which) == pi


def test_conjugated_map_unknown_name():
    with pytest.raises(ValueError):
        conjugated_map(Permutation.from_text("1"), "nope")


def test_placement_helpers_reject_bad_weights():
    # Every constructible history decodes, so the placement failures can
    # only be triggered by feeding the helpers inconsistent weights.
    from srlaguerre.bijections import _place

    with pytest.raises(PlacementImpossible):
        _place([1, 2], {1: 1, 2: 5}, 2, False)
    with pytest.raises(PlacementImpossible):
        _place([1, 2], {1: 1, 2: 5}, 2, True)
    assert _place([1, 2], {1: 1, 2: 1}, 2, False) == [1, 2]
    assert _place([1, 2], {1: 2, 2: 1}, 2, False) == [2, 1]


_N, _S = StepType.N, StepType.S


@pytest.mark.parametrize("w,h,c,message", [
    # Step 2 is at height 1, so two slots are open: weights 0 and 1 only.
    ((_N, _S), (0, 1), (0, 2), "step 2 wants empty slot 2 of 2"),
    ((_N, _S), (0, 1), (0, -1), "step 2 wants empty slot -1 of 2"),
    # The path never comes down, so two slots are left over.
    ((_N,), (0,), (0,), "leftover slot is not the trailing one"),
], ids=("weight-too-large", "weight-negative", "unbalanced"))
def test_fv_decoder_rejects_malformed_histories(w, h, c, message):
    # Built unchecked, past the validation of LaguerreHistory(w, c).
    history = LaguerreHistory._unchecked(w, h, c)
    with pytest.raises(SlotIndexOutOfRange) as info:
        phi_fv_inv(history)
    assert str(info.value) == message


def test_decoding_errors_are_value_errors():
    assert issubclass(SlotIndexOutOfRange, ValueError)
    assert issubclass(PlacementImpossible, ValueError)


def test_every_map_accepts_the_empty_permutation():
    from srlaguerre.cli import _PERM_MAPS
    from srlaguerre.perm_stats import (
        cyclic_family,
        linear_family,
        shifted_family,
        variant_nesting_numbers,
    )

    empty = Permutation(())
    empty_history = LaguerreHistory.from_text("/")
    for via, f in _PERM_MAPS.items():
        assert f(empty) in (empty, empty_history), via
    assert len(linear_family(empty).Des) == 0
    assert len(cyclic_family(empty).Exc) == 0
    shifted = shifted_family(empty)
    assert shifted.pone == 0 and len(shifted.Vedif) == 0
    assert variant_nesting_numbers(empty) == ()
    assert phi_yzl(phi_yzl_inv(empty_history)) == empty_history
    assert phi_yzl_inv(phi_yzl(empty)) == empty
    # The critical step of the empty history is 0, like pone and the last
    # letter of the empty permutation.
    assert critical_step(empty_history) == 0
    record = history_statistics(phi_fv(empty))
    assert record.cs == 0
    assert all(len(getattr(record, field.name)) == 0 for field in fields(record)[1:])
