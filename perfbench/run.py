"""Run one srlaguerre benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh interpreter (``worker.py``),
because a user pays cold start on each CLI call and because the Mahonian
ingredient cache would otherwise carry state from one pass into the next.
All passes of a run get the same inputs, made from ``--seed``.  Passes
repeat until the next one would end after ``--seconds``.

The host this was written on moves between a fast state and states up to
2.8x slower, for seconds to minutes at a time, so raw pass times did not
repeat within 15%.  Each timed step (one op, or one set-up) is therefore
normalised to a fixed host speed: the worker times a fixed reference loop
before and after it, and the step's time is scaled by (REFERENCE_S over the
mean of its two neighbours) to the power SLOWDOWN_EXPONENT.  Each op's
normalised time is the median over the passes.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken
from passes run under the tracer, each paired with an untraced pass.  A full
record of the run, with metadata, raw op times and every failed check, is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The seeded names of mahonian-n7 are drawn from this fixed copy of tab3's
# names, not from the library, so that a seed's inputs never change.
TAB3_NAMES = (
    "maj", "inv", "mak", "makl", "mad", "madl", "bast", "bast_p", "bast_pp",
    "foze", "foze_p", "foze_pp", "sist", "sist_p", "sist_pp", "den", "sor",
)
LARGE_N = {False: 300, True: 12}
# op_p90_ms needs 100 permutations, so that ten lie beyond it.
LARGE_BATCH = {False: 100, True: 3}
WORKLOAD_NAMES = ("histories-n7", "encodings-n6", "mahonian-n7", "large-n300")
SETUP_PROBES = 7
# The reference loop's time (worker.reference_s) in the fast state of the
# host this was written on (Intel Xeon, 2 vCPUs, Python 3.11): its 5th
# percentile over 5,000 runs.  Times are reported at that speed.
REFERENCE_S = 2.4e-3
# On that host the library slowed down less than the reference loop: the
# least-squares slope of log(op time) on log(reference time) was 0.71 to
# 0.84 over 1,160 passes and ops of the four workloads.
SLOWDOWN_EXPONENT = 0.8
HARD_LIMIT_S = 120.0  # no pass starts after this, so a run ends within 180 s
MULTISET_CONSTRUCTORS = ("__init__", "from_pairs", "_unchecked")


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


# -- inputs ------------------------------------------------------------------

def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    """Inputs of every pass of a run, a pure function of the seed."""
    if workload == "mahonian-n7":
        return {"names": random.Random(seed).sample(TAB3_NAMES, 2)}
    if workload == "large-n300":
        rng = random.Random(seed)
        words = []
        for _ in range(LARGE_BATCH[smoke]):
            word = list(range(1, LARGE_N[smoke] + 1))
            rng.shuffle(word)
            words.append(word)
        return {"words": words}
    return {}


# -- child processes ---------------------------------------------------------

def run_child(job: dict, deadline: float) -> dict:
    """Run one worker job in a fresh interpreter and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['kind']} job exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{job['kind']} job failed with code {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout)


def run_passes(args, deadline: float) -> tuple[list[dict], list[dict], list[dict]]:
    """Set-up probes, untraced passes and (trace mode only) traced passes."""
    run_child({"kind": "setup"}, deadline)  # warm-up: writes the bytecode caches
    probes = [run_child({"kind": "setup"}, deadline) for _ in range(SETUP_PROBES)]

    job = {"kind": "pass", "workload": args.workload, "seed": args.seed, "smoke": args.smoke}
    plain, traced, clock = [], [], []
    start = time.monotonic()
    while not clock or (
        time.monotonic() - start + statistics.median(clock) <= args.seconds
        and time.monotonic() - start <= HARD_LIMIT_S
    ):
        began = time.monotonic()
        plain.append(run_child(dict(job, trace=False), deadline))
        if args.trace:
            traced.append(run_child(dict(job, trace=True), deadline))
        clock.append(time.monotonic() - began)
    return probes, plain, traced


# -- metrics -----------------------------------------------------------------

def normalised(took: float, before: float, after: float) -> float:
    """A step's time at the host speed where the reference loop takes REFERENCE_S."""
    return took * (REFERENCE_S / ((before + after) / 2)) ** SLOWDOWN_EXPONENT


def op_times(passes: list[dict]) -> list[tuple[tuple[str, int], float]]:
    """((label, n), median normalised time over the passes) for each op, in order."""
    ops = [tuple(span[:2]) for span in passes[0]["spans"]]
    if any([tuple(span[:2]) for span in p["spans"]] != ops for p in passes):
        raise BenchError("passes ran different ops")
    return [
        (op, statistics.median(normalised(*p["spans"][k][2:]) for p in passes))
        for k, op in enumerate(ops)
    ]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(probes: list[dict], plain: list[dict]) -> dict[str, float]:
    ops = op_times(plain)
    wall = sum(t for _, t in ops)
    # Latency is that of the calls at the workload's largest size; smaller
    # sizes take micro- to milliseconds, mostly call overhead.
    top = max(n for (_, n), _ in ops)
    latency = [t for (_, n), t in ops if n == top]
    return {
        "setup_s": statistics.median(normalised(*r["setup"]) for r in probes + plain),
        "wall_s": wall,
        "items_per_s": plain[0]["items"] / wall,
        "op_p50_ms": 1000 * quantile(latency, 50),
        "op_p90_ms": 1000 * quantile(latency, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(names: list[str], plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Evaluate each per-layer metric name of BENCHMARK.json.

    Counts and times are per pass; ``us_per_call`` and ``us_per_item`` use
    inclusive time.  ``claims.<id>.s`` sums the claim's normalised untraced
    op times and ``trace.overhead_share`` compares normalised op times; the
    other metrics come, as measured, from the traced passes' totals.
    """
    totals = merge(p["trace"] for p in traced)
    passes = len(traced)
    items = sum(p["items"] for p in traced)
    all_self = sum(rec[2] for rec in totals.values())

    def rec(key: str) -> list:
        return totals.get(key) or totals.get(f"{key}.__init__") or [0, 0.0, 0.0, 0]

    def layer(module: str) -> list:
        recs = [r for key, r in totals.items() if key.split(".", 1)[0] == module]
        return [sum(r[k] for r in recs) for k in range(4)]

    def value(name: str) -> float:
        head, _, metric = name.rpartition(".")
        if name == "trace.overhead_share":
            return sum(t for _, t in op_times(traced)) / sum(t for _, t in op_times(plain)) - 1
        if head.startswith("claims.") and metric == "s":
            claim_id = head.split(".", 1)[1]
            return sum(t for (label, _), t in op_times(plain) if label == claim_id)
        if name == "perm_stats.mahonian.ingredient_hit_ratio":
            hits = sum(p["cache"]["hits"] for p in plain if p["cache"])
            looked = hits + sum(p["cache"]["misses"] for p in plain if p["cache"])
            return hits / looked if looked else 0.0
        if name == "multiset.IntMultiset.per_item":
            built = sum(rec(f"multiset.IntMultiset.{m}")[0] for m in MULTISET_CONSTRUCTORS)
            return built / items
        if head in LAYERS:
            calls, _, self_s, _ = layer(head)
            return {
                "calls": calls / passes,
                "self_s": self_s / passes,
                "self_share": self_s / all_self if all_self else 0.0,
            }[metric]
        calls, incl, _, yielded = rec(head)
        if metric == "us_per_call":
            return 1e6 * incl / calls if calls else 0.0
        if metric == "us_per_item":
            return 1e6 * incl / yielded if yielded else 0.0
        if metric == "calls":
            return calls / passes
        if metric == "s":
            return incl / passes
        raise KeyError(f"no rule for per-layer metric {name!r}")

    return {name: value(name) for name in names}


# -- checks ------------------------------------------------------------------

def trace_equivalence(plain: list[dict], traced: list[dict], workload: str) -> tuple[int, list]:
    """Each op's output under the tracer must equal its untraced output."""
    attempted, failures = 0, []
    for index, (a, b) in enumerate(zip(plain, traced)):
        for span, da, db in zip(a["spans"], a["digests"], b["digests"]):
            attempted += 1
            if da != db:
                failures.append([workload, span[0], span[1], f"pass {index}", "traced output == untraced"])
    return attempted, failures


# -- metadata ----------------------------------------------------------------

def metadata(args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
            ).stdout.strip() or commit
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (SRC / "srlaguerre").glob("*.py")
    )
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "seed": args.seed,
        "src_lines": src_lines,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# -- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "srlaguerre" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no srlaguerre sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + HARD_LIMIT_S + 50
    try:
        probes, plain, traced = run_passes(args, deadline)
        attempted = sum(p["attempted"] for p in plain + traced)
        failures = [f for p in plain + traced for f in p["failures"]]
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer([m["name"] for m in declared], plain, traced)
            more, bad = trace_equivalence(plain, traced, args.workload)
            attempted += more
            failures += bad
        else:
            declared = spec["end_to_end"]
            values = end_to_end(probes, plain)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "meta": metadata(args),
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": {"value": len(failures) / attempted, "base": attempted},
        "failures": failures,
        "reference_s": REFERENCE_S,
        "setup_samples": [r["setup"] for r in probes + plain + traced],
        "passes": [
            {key: p[key] for key in ("items", "peak_rss_mb", "spans", "cache")}
            for p in plain
        ],
        "trace_totals": merge(p["trace"] for p in traced) if traced else None,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1))
    for f in failures[:20]:
        print("FAILED", *f, sep=" | ", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
