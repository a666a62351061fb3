"""Multiset-based oracles for the partition-style Mahonian statistics.

Each statistic named ``mak``, ``den``, ``yzl1`` and friends is defined in
``perm_stats`` by an explicit counting formula.  Here every one of them is
recomputed independently as the cardinality of a disjoint union / strict
difference of descent, excedance, or shifted-excedance multisets, and the
two values are compared on every permutation of small sizes.
"""
from __future__ import annotations

import pytest

from srlaguerre.multiset import IntMultiset, kappa
from srlaguerre.perm_stats import (
    Permutation,
    cyclic_family,
    iter_perms,
    linear_family,
    pattern_multisets,
    shifted_family,
    statistic,
)


def _tilde(n: int, marked: IntMultiset) -> IntMultiset:
    """(n - i) copies of the value n - i for each unmarked i in [n - 1]."""
    pairs = []
    for i in range(1, n):
        if marked.multiplicity(i) == 0:
            pairs.append((n - i, n - i))
    return IntMultiset.from_pairs(pairs)


def _oracle_multisets(pi: Permutation) -> dict[str, IntMultiset]:
    n = pi.n
    lin = linear_family(pi)
    cyc = cyclic_family(pi)
    sh = shifted_family(pi)
    two13, two31, three12 = pattern_multisets(pi)
    kap = lambda m: kappa(n + 1, m)

    descent_mix = (lin.Ddif | lin.Abb) - lin.Dta
    exc_residual = cyc.Edif - cyc.Exc - cyc.Ine
    exc_mix = (cyc.Edif | cyc.Nexcb) - cyc.Exca
    ine_mix = (cyc.Ine | cyc.Excb) - cyc.Nexca
    nest_residual = sh.Vedif - sh.Vnepb - sh.Vnepa - sh.Vnest
    nest_mix = (sh.Vnest | sh.Vnepb) - sh.Vepa
    vedif_mix = (sh.Vedif | sh.Vepb) - sh.Vnepa

    return {
        "mak": lin.Dbot | two31,
        "mad": lin.Ddif | two31,
        "makl": lin.Dbot | three12,
        "madl": lin.Ddif | three12,
        "mak_p": _tilde(n, lin.Db) | kap(two13),
        "mad_p": kap(descent_mix | two13),
        "makl_p": _tilde(n, lin.Db) | kap(three12),
        "madl_p": kap(descent_mix | three12),
        "den": cyc.Ebot | cyc.Ine,
        "inv": cyc.Edif | cyc.Ine,
        "fz3": cyc.Ebot | exc_residual,
        "fz4": cyc.Edif | exc_residual,
        "den_p": _tilde(n, cyc.Ep) | kap(ine_mix),
        "inv_p": kap(exc_mix | ine_mix),
        "fz3_p": _tilde(n, cyc.Ep) | kap(exc_residual),
        "fz4_p": kap(exc_mix | exc_residual),
        "yzl1": sh.Vbot | sh.Vnest,
        "yzl2": sh.Vedif | sh.Vnest,
        "yzl3": sh.Vbot | nest_residual,
        "yzl4": sh.Vedif | nest_residual,
        "yzl1_p": _tilde(n, sh.Vnex) | kap(nest_mix),
        "yzl2_p": kap(vedif_mix | nest_mix),
        "yzl3_p": _tilde(n, sh.Vnex) | kap(nest_residual),
        "yzl4_p": kap(vedif_mix | nest_residual),
    }


ORACLE_NAMES = sorted(_oracle_multisets(Permutation.from_text("1")).keys())


@pytest.mark.parametrize("n", range(1, 6))
def test_statistics_match_multiset_cardinalities(n: int) -> None:
    for pi in iter_perms(n):
        sets = _oracle_multisets(pi)
        for name, multiset in sets.items():
            assert statistic(name)(pi) == len(multiset), (
                f"{name} disagrees on {pi.to_text()}")


def test_worked_example_cardinalities() -> None:
    pi = Permutation.from_text("618742593")
    sets = _oracle_multisets(pi)
    assert len(sets["mak"]) == 23
    sigma = Permutation.from_text("947612853")
    assert len(_oracle_multisets(sigma)["den"]) == 23
