"""One fresh-process step of a benchmark run: a set-up probe or one pass.

Takes one JSON job as its argument and prints one JSON object on stdout:

    {"kind": "setup"}
    {"kind": "pass", "workload": NAME, "seed": N, "smoke": BOOL, "trace": BOOL}

Every job first times importing ``srlaguerre`` and resolving its claim
registry.  A pass then makes the workload's inputs from the seed and runs
its ops once, in order.  A fixed reference loop is timed before the first
timed step and after each one, so that ``run.py`` can correct each step for
the speed the host ran at just then.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

REFERENCE_LOOPS = 12000


def reference_s() -> float:
    """Time of a fixed pure-Python loop of dict and tuple work."""
    enabled = gc.isenabled()
    gc.disable()  # a collection here would charge the op's garbage to the loop
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(REFERENCE_LOOPS):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + (i ^ (i >> 3))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(workload: str, smoke: bool, inputs: dict, trace: bool) -> dict:
    import srlaguerre
    import workloads
    from tracer import Tracer

    sizes = workloads.SMOKE if smoke else workloads.FULL
    ops = workloads.WORKLOADS[workload](sizes, inputs)
    tracer = Tracer() if trace else None
    spans = []  # [label, n, seconds, reference before, reference after]
    attempted = 0
    failures = []
    digests = []
    if tracer:
        tracer.install()
    try:
        before = reference_s()
        for op in ops:
            start = time.perf_counter()
            out = tracer.call("bench.op", op.call) if tracer else op.call()
            took = time.perf_counter() - start
            after = reference_s()
            spans.append([op.label, op.n, took, before, after])
            # The checks call no traced function; the output is dropped here
            # so that peak RSS and collections reflect the library alone.
            count, bad = op.check(out)
            attempted += count
            failures += [[workload, op.label, op.n, item, label] for item, label in bad]
            digests.append(op.digest(out))
            del out
            before = after
    finally:
        if tracer:
            tracer.uninstall()

    cache = getattr(srlaguerre.perm_stats, "_ingredients", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    return {
        "items": sum(op.items for op in ops),
        "spans": spans,
        "attempted": attempted,
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache": None if info is None else {"hits": info.hits, "misses": info.misses},
        "trace": tracer.totals() if tracer else None,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    before = reference_s()
    start = time.perf_counter()
    from srlaguerre.claims import claim_ids, get_claim

    for claim_id in claim_ids():
        get_claim(claim_id)
    took = time.perf_counter() - start
    result = {"setup": [took, before, reference_s()]}
    if job["kind"] == "pass":
        from run import make_inputs

        inputs = make_inputs(job["workload"], job["seed"], job["smoke"])
        result.update(run_pass(job["workload"], job["smoke"], inputs, job["trace"]))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
