"""Tests for the claim runner: pinned counterexample strings and threads."""
from __future__ import annotations

import threading

import pytest

from srlaguerre import claims
from srlaguerre.bijections import phi_fz
from srlaguerre.claims import run_claim
from srlaguerre.cli import main


def _first_failure(claim_id: str) -> tuple:
    for n in range(1, 6):
        outcome = run_claim(claim_id, n)
        if outcome.status == "fail":
            return (claim_id, n, outcome.checked, outcome.counterexample)
    return (claim_id, None, None, None)


# (patched claims dependency, replacement, expected first failures).  Each
# expected row is (claim, first failing n in 1..5, checked, counterexample);
# the counterexample text is part of the verify report format.
PINNED = [
    ("xi", lambda history: history, [
        ("thm3.2-involution", 2, 0, "NS/0,1: defining conditions violated"),
        ("cor3.3", 2, 0, "NS/0,1: (0, 0, 0, 0, 1) != (0, 1, 0, 0, 0)"),
        ("cor3.6", 2, 0, "NS/0,1: Neb: {} != {1}"),
        ("cor1.1", 2, 0, "NS/0,1: exponent relations violated"),
    ]),
    ("phi_fv", phi_fz, [
        ("prop4.3", 3, 3, "2,3,1: Dta: {3} != {2,3}"),
    ]),
    ("trivial_bijection", lambda pi, which: pi, [
        ("thm4.20", 2, 0, "1,2: mad_p/sist_pp: 1 != 0"),
        ("eq34", 3, 1, "1,3,2: yzl2 != inv_p of reverse-complement-inverse"),
    ]),
    ("conjugated_map", lambda pi, which: pi, [
        ("cor4.4", 2, 0, "1,2: Dta: {} != {2}"),
        ("eta-corollary", 2, 0, "1,2: Exc: {} != {2}"),
        ("rho-corollary", 2, 0, "1,2: Vnepa: {2} != {}"),
    ]),
    ("phi_csz", lambda pi: pi, [
        ("csz-corollary", 3, 3, "2,3,1: Dt/Exc: {3} != {2,3}"),
    ]),
    ("coordinate_stat_by_extrema", lambda pi, which, i: 0, [
        ("fact4.8", 2, 0, "1,2: 2-31 at 1: 1 != 0"),
    ]),
]


@pytest.mark.parametrize("name, replacement, expected", PINNED,
                         ids=[row[0] for row in PINNED])
def test_counterexample_strings_are_pinned(monkeypatch, name, replacement,
                                           expected):
    monkeypatch.setattr(claims, name, replacement)
    assert [_first_failure(row[0]) for row in expected] == expected


def test_threads_option_starts_no_thread(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_claim("prop4.3", 4, threads=4).status == "pass"
    assert main(["verify", "--claim", "cor3.3", "--n-max", "4",
                 "--threads", "4"]) == 0
    assert "fail" not in capsys.readouterr().out
