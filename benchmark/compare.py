#!/usr/bin/env python3
"""Compare two sets of urbench runs: compare.py A.json B.json

A and B are `results.json` files written by `urbench all --runs K`. One
row per (end-to-end metric, workload): both medians, the ratio B/A with
its base, each side's spread (distance between the quartiles as a share
of the median), the bound from BENCHMARK.json, and a verdict:

  ok          B's median is no worse than A's by more than the bound
  worse       it is worse by more than the bound
  unresolved  a side's spread is wider than the bound, or a side has
              fewer than two runs, so the medians cannot settle it

Exits 1 if any row is `worse`.
"""
import json
import statistics
import sys
from pathlib import Path


def load(path):
    """{(workload, metric): [values of the untraced runs]}"""
    values = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for metric, value in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a, b, better, bound):
    spreads = [spread(a), spread(b)]
    if any(s is None or s > bound for s in spreads):
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    if better == "lower":
        return "worse" if mb > ma * (1 + bound) else "ok"
    return "worse" if mb < ma * (1 - bound) else "ok"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    # Not in BENCHMARK.json, whose metrics may never read 0: any increase is worse.
    metrics.append(("failed_frac", "ratio", "lower", 0.0))
    a, b = load(argv[1]), load(argv[2])

    fmt = "{:<16} {:<15} {:>12} {:>12} {:>22} {:>8} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "A median", "B median", "B/A (base)",
                     "A spread", "B spread", "bound", "verdict"))
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, unit, better, bound in metrics:
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not va or not vb:
                print(fmt.format(workload, name, "-", "-", "-", "-", "-", bound, "unresolved"))
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = f"{mb / ma:.3f} x {ma:.4g} {unit}" if ma else f"{mb:.4g} over 0"
            show = lambda s: "n/a" if s is None else f"{100 * s:.1f}%"
            v = verdict(va, vb, better, bound)
            worse += v == "worse"
            print(fmt.format(workload, name, f"{ma:.4f}", f"{mb:.4f}", ratio,
                             show(spread(va)), show(spread(vb)), bound, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
