"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them.  One row per
workload and metric: each side's median and quartiles, and a verdict
against the metric's bound in BENCHMARK.json:

* ``worse``      the new median is worse than the base median by more than the bound
* ``unresolved`` either side's spread (quartile distance over median) exceeds
                 the bound, unless every new run beats every base run or the
                 other way round
* ``ok``         otherwise; per-layer metrics have no bound and get no verdict

Exit code 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str) -> dict:
    """{(workload, metric): [values]} from a JSON-lines file of run records."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for metric, value in rec["metrics"].items():
                    out.setdefault((rec["workload"], metric), []).append(float(value))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], spec: dict | None) -> str:
    if spec is None or "bound" not in spec:
        return ""
    lower = spec["better"] == "lower"
    b, n = summary(base)[1], summary(new)[1]
    change = (n - b) / abs(b) if b else 0.0
    worse_by = change if lower else -change
    separated = (max(new) < min(base) or min(new) > max(base))
    if max(spread(base), spread(new)) > spec["bound"] and not separated:
        return "unresolved"
    return "worse" if worse_by > spec["bound"] else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_runs(argv[0]), load_runs(argv[1])
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':16s} {'metric':42s} {'base q1/med/q3':>34s} {'new q1/med/q3':>34s} {'change':>8s} verdict")
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = summary(base[key]), summary(new[key])
        change = (n[1] - b[1]) / abs(b[1]) if b[1] else 0.0
        v = verdict(base[key], new[key], specs.get(metric))
        worse |= v == "worse"
        print(f"{workload:16s} {metric:42s} {b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g}   "
              f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g}   {change:+7.1%} {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
