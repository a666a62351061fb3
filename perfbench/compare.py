"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``run.py`` (by default into
``perfbench/results/``; move them into one directory per commit).  For each
(metric, workload) the report prints each side's median and quartiles over
its runs and a verdict:

- ``regressed``: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side exceeds the bound, and not every change run beats every base
  run;
- ``improved``: the medians differ in the better direction by more than the
  base's own spread, and the change wins at least nine tenths of the pairs
  (runs paired by seed, or every base run against every change run when no
  seeds are shared);
- ``unchanged``: otherwise.

Per-layer metrics have no bound; their rows show the figures only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}, with each run's failed share."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        if meta["smoke"]:
            continue
        for name, metric in record["metrics"].items():
            table.setdefault((meta["workload"], name), {})[meta["seed"]] = metric["value"]
        name = "failed_share.traced" if meta["trace"] else "failed_share"
        table.setdefault((meta["workload"], name), {})[meta["seed"]] = record["failed_share"]["value"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: dict[int, float], change: dict[int, float], bound: float, lower: bool) -> str:
    a, b = list(base.values()), list(change.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if lower else -1
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse > bound:
        return "regressed"
    def beats(x, y):
        return sign * (x - y) < 0
    all_better = all(beats(x, y) for x in b for y in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    shared = sorted(set(base) & set(change))
    pairs = [(change[s], base[s]) for s in shared] or [(x, y) for x in b for y in a]
    won = sum(1 for x, y in pairs if beats(x, y))
    if -worse > spread(a) and won >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':14} {'metric':46} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        a, b = base[key], change[key]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        metric = declared.get(name)
        if metric is not None and "bound" in metric:
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
        elif name.startswith("failed_share"):
            result = "regressed" if max(b.values()) > max(a.values()) else "-"
        else:
            result = "-"
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{workload:14} {name:46} {fmt(qa):>34} {fmt(qb):>34}  {result}"
              f"  (runs {len(a)}/{len(b)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
