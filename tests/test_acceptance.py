"""Acceptance gate: one pass/fail line per top-level criterion.

Every check uses exact integer arithmetic and exact equality.  Each test
prints ``criterion K: PASS in 12.3s`` (or ``FAIL``), with the criterion's
elapsed seconds, so the gate and its cost can be read off the pytest log
directly.
"""
from __future__ import annotations

import time
from dataclasses import replace
from math import factorial

from srlaguerre.bijections import (
    phi_fv,
    phi_fv_inv,
    phi_fz,
    phi_fz_inv,
    phi_yzl,
    phi_yzl_inv,
    kreweras,
    conjugated_map,
)
from srlaguerre.claims import run_claim
from srlaguerre.genfun import (
    PQ_EULERIAN_SUBST,
    a_polynomial,
    jacobi_moments,
    joint_distribution,
    qt_catalan,
    specialize,
)
from srlaguerre.histories import LaguerreHistory, enumerate_histories
from srlaguerre.involution import XI_TABLE, xi_table_coverage
from srlaguerre.mfs_action import mfs_full
from srlaguerre.perm_stats import Permutation, iter_perms

def _report(number: int, ok: bool, detail: str, start: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    took = time.monotonic() - start
    print(f"criterion {number}: {verdict} in {took:.1f}s{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def _claims_pass(pairs: list[tuple[str, int]]) -> tuple[bool, str]:
    for claim, n_max in pairs:
        for n in range(1, n_max + 1):
            outcome = run_claim(claim, n)
            if outcome.status != "pass":
                return False, f"{claim} n={n}: {outcome.counterexample}"
    return True, ""


def test_criterion_01_cardinality():
    start = time.monotonic()
    ok = all(
        sum(1 for _ in enumerate_histories(n)) == factorial(n)
        for n in range(1, 11))
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 60.0, f"n<=10 in {elapsed:.1f}s", start)


def test_criterion_02_involution_and_table():
    start = time.monotonic()
    ok, detail = _claims_pass([("thm3.2-involution", 8)])
    elapsed = time.monotonic() - start
    coverage = xi_table_coverage(5)
    covered = all(coverage.get(row.row, 0) > 0 for row in XI_TABLE)
    if not covered:
        detail = "table rows unused at n=5"
    _report(2, ok and covered and elapsed < 120.0,
            detail or f"n<=8 in {elapsed:.1f}s, 14/14 rows by n=5", start)


def test_criterion_03_weight_symmetries():
    start = time.monotonic()
    ok, detail = _claims_pass([("cor3.3", 7), ("cor3.6", 7), ("cor1.1", 7)])
    _report(3, ok, detail or "n<=7", start)


def test_criterion_04_round_trips():
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        perms = list(iter_perms(n))
        for encode, decode in ((phi_fv, phi_fv_inv), (phi_fz, phi_fz_inv),
                               (phi_yzl, phi_yzl_inv)):
            images = set()
            for pi in perms:
                history = encode(pi)
                images.add(history.to_text())
                if decode(history) != pi:
                    ok = False
            # Injectivity plus |images| = n! makes both directions inverse.
            if len(images) != len(perms):
                ok = False
    _report(4, ok, "three encodings, both directions, n<=8", start)


def test_criterion_05_worked_examples():
    start = time.monotonic()
    anchor = LaguerreHistory.from_text("NNNDESDSS/0,0,0,2,1,3,2,2,1")
    ok = (
        phi_fv(Permutation.from_text("618742593")) == anchor
        and phi_fz(Permutation.from_text("947612853")) == anchor
        and phi_yzl(Permutation.from_text("671395482")) == anchor
        and conjugated_map(Permutation.from_text("671395482"), "rho")
        == Permutation.from_text("937628145")
        and mfs_full(Permutation.from_text("596137428"))
        == Permutation.from_text("695147328"))
    _report(5, ok, "anchor triple, rho, hop involution", start)


def test_criterion_06_pointwise_statistic_transport():
    start = time.monotonic()
    ok, detail = _claims_pass(
        [("prop4.3", 8), ("prop4.10", 8), ("prop4.17", 8), ("lem4.14", 8)])
    _report(6, ok, detail or "n<=8", start)


def test_criterion_07_equidistributions():
    start = time.monotonic()
    ok, detail = _claims_pass(
        [("eq14", 8), ("eq17", 8), ("eq18", 8), ("eq19", 8),
         ("eq19-restricted", 10)])
    _report(7, ok, detail or "n<=8, avoider case n<=10", start)


def test_criterion_08_hop_involution_oracles():
    start = time.monotonic()
    ok, detail = _claims_pass([("thm4.6", 7), ("fact4.8", 7)])
    _report(8, ok, detail or "n<=7", start)


def test_criterion_09_mahonian_suite():
    start = time.monotonic()
    ok, detail = _claims_pass(
        [("tab2-mahonian", 8), ("tab3-mahonian", 8), ("thm4.20", 8),
         ("lem4.21", 8), ("lem4.22", 8), ("eq34", 7)])
    if ok:
        from srlaguerre.genfun import joint_distribution
        poly = joint_distribution(8, ["inv"])
        coeffs = [term["coeff"] for term in poly.to_json()]
        ok = len(coeffs) == 29 and sum(coeffs) == 40320
        detail = "" if ok else "inv distribution at n=8 has wrong shape"
    _report(9, ok, detail or "35 statistics, n<=8", start)


def test_criterion_10_shifted_encoding_identities():
    start = time.monotonic()
    ok, detail = _claims_pass([("thm4.23-eq35", 8), ("thm4.23-eq36", 8)])
    if ok:
        for n in range(1, 9):
            for pi in iter_perms(n):
                if phi_yzl(pi) != phi_fz(kreweras(pi)):
                    ok, detail = False, f"factorization fails at {pi.to_text()}"
                    break
    _report(10, ok, detail or "n<=8, factorization exact", start)


def test_criterion_11_moments():
    start = time.monotonic()
    ok = (
        jacobi_moments(lambda k: 2 * k + 1, lambda k: k * k, 8)
        == [1, 1, 2, 6, 24, 120, 720, 5040]
        and jacobi_moments(lambda k: 2 * k + 2, lambda k: k * (k + 1), 6)
        == [1, 2, 6, 24, 120, 720])
    _report(11, ok, "factorial and shifted-factorial sequences", start)


def test_criterion_12_specializations():
    start = time.monotonic()
    tpq = specialize(a_polynomial(3), PQ_EULERIAN_SUBST)
    eulerian = specialize(tpq, {"t": {"t": 1}, "p": {}, "q": {}})
    ok = eulerian.to_text() == "1 + 4 t + t^2"
    catalan = [1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        # The transfer-matrix limit against the direct count over
        # 213-avoiders of (des, 31-2).
        poly = qt_catalan(n)
        direct = specialize(joint_distribution(n, ["des", "u31_2"], (2, 1, 3)),
                            {"q1": {"t": 1}, "q2": {"q": 1}})
        if poly != direct or poly.evaluate({v: 1 for v in poly.variables}) != catalan[n - 1]:
            ok = False
    _report(12, ok, "Eulerian A_3 and q,t-Catalan, n<=7", start)


def test_criterion_13_mutation_sensitivity():
    start = time.monotonic()
    ok = True
    detail = ""
    for index in range(len(XI_TABLE)):
        original = XI_TABLE[index]
        XI_TABLE[index] = replace(original, g_off=original.g_off + 1)
        try:
            detected = any(
                run_claim(claim, n).status == "fail"
                for claim in ("thm3.2-involution", "cor1.1")
                for n in range(1, 5))
        finally:
            XI_TABLE[index] = original
        if not detected:
            ok = False
            detail = f"corrupting row {original.row} goes unnoticed"
            break
    _report(13, ok, detail or "all 14 corrupted rows detected at n<=4", start)
