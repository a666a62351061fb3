"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import srlaguerre  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import CLASS_METHODS, LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "srlaguerre" or name.startswith("srlaguerre.")]


def _bindings() -> dict:
    """id() of every object bound where the tracer patches."""
    seen = {}
    for module in _package_modules():
        for attr, obj in vars(module).items():
            seen[(module.__name__, attr)] = id(obj)
            if isinstance(obj, dict) and attr != "__builtins__":
                for key, value in obj.items():
                    seen[(module.__name__, attr, key)] = id(value)
    for layer, classes in CLASS_METHODS.items():
        module = sys.modules[f"srlaguerre.{layer}"]
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                seen[(cls_name, method)] = id(cls.__dict__[method])
    return seen


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert metric["value"] > 0 or trace


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-n300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _patch_everywhere(monkeypatch, name: str, replacement) -> None:
    original = getattr(srlaguerre, name)
    for module in _package_modules():
        for attr, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, attr, replacement)


def _reversed_result(fn):
    return lambda *args: srlaguerre.Permutation(reversed(fn(*args).word))


CORRUPTIONS = [
    ("histories-n7", "xi", lambda xi: (lambda history: history)),
    ("encodings-n6", "phi_fz_inv", _reversed_result),
    ("mahonian-n7", "mahonian", lambda f: (lambda pi, name: f(pi, name) + (name == "inv"))),
    ("large-n300", "phi_yzl_inv", _reversed_result),
]


@pytest.mark.parametrize("workload,name,corrupt", CORRUPTIONS)
def test_corrupted_function_raises_failed_share(monkeypatch, workload, name, corrupt):
    inputs = run.make_inputs(workload, 5, smoke=True)
    clean = worker.run_pass(workload, True, inputs, trace=False)
    assert clean["failures"] == []
    _patch_everywhere(monkeypatch, name, corrupt(getattr(srlaguerre, name)))
    broken = worker.run_pass(workload, True, inputs, trace=False)
    assert len(broken["failures"]) / broken["attempted"] > 0
    assert all(f[0] == workload and len(f) == 5 for f in broken["failures"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_trace_keeps_outputs_and_removes_every_wrapper(workload):
    inputs = run.make_inputs(workload, 3, smoke=True)
    before = _bindings()
    plain = worker.run_pass(workload, True, inputs, trace=False)
    traced = worker.run_pass(workload, True, inputs, trace=True)
    assert _bindings() == before
    assert traced["digests"] == plain["digests"]
    layers_seen = {key.split(".", 1)[0] for key in traced["trace"]}
    assert "perm_stats" in layers_seen and layers_seen <= set(LAYERS) | {"bench"}


def test_tracer_times_generators_over_iteration_and_merges_threads():
    tracer = Tracer()
    tracer.install()
    try:
        perms = list(srlaguerre.iter_perms(4))
        outcome = srlaguerre.run_claim("prop4.3", 4, threads=2)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert len(perms) == 24 and outcome.status == "pass"
    calls, incl, self_s, items = totals["perm_stats.iter_perms"]
    assert (calls, items) == (2, 48)
    assert 0 < self_s < incl
    assert totals["bijections.phi_fv"][0] == 24  # all made on the two pool threads


def test_compare_verdicts():
    base = {seed: 10.0 + 0.01 * seed for seed in range(10)}
    assert compare.verdict(base, {s: 1.5 * v for s, v in base.items()}, 0.1, True) == "regressed"
    assert compare.verdict(base, {s: 0.7 * v for s, v in base.items()}, 0.1, True) == "improved"
    assert compare.verdict(base, dict(base), 0.1, True) == "unchanged"
    noisy = {seed: 10.0 * (1 + 0.5 * (seed % 2)) for seed in range(10)}
    assert compare.verdict(noisy, dict(noisy), 0.1, True) == "unresolved"
