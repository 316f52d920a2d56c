#!/usr/bin/env python3
"""Compare two adc_bench result files against the bounds of BENCHMARK.json.

    python3 bench/e2e/compare.py A.json B.json [--bench BENCHMARK.json]

A is the baseline, B the candidate (files written by `adc_bench --out`).
One row per (workload, end-to-end metric): each side's median with its
q1/q3, the change of B against A, the metric's bound, and a verdict:

  unresolved      either side's spread, (q3 - q1) / |median|, is wider than
                  the bound, or a side has fewer than two values to take a
                  spread from
  better / worse  B's median differs from A's by more than the bound
  within          the medians differ by no more than the bound

adc_bench takes each end-to-end metric from several measurement children,
so q1 and q3 are the spread between runs of the same code. A failed_frac
row compares the failed-operation shares, and any increase is `worse`.
Exits 1 on any `worse` row.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(entry):
    """(q3 - q1) / |median|, or None when there is no spread to judge by."""
    if entry["n"] < 2 or entry["median"] == 0:
        return None
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(a, b, metric):
    if a["median"] == 0:
        return "unresolved", float("nan")
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if metric["better"] == "lower" else -change
    spreads = [spread(a), spread(b)]
    if None in spreads or max(spreads) > metric["bound"]:
        return "unresolved", change
    if worse_by > metric["bound"]:
        return "worse", change
    if worse_by < -metric["bound"]:
        return "better", change
    return "within", change


def failed_frac(workload):
    return workload["failed"] / workload["attempted"] if workload["attempted"] else 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.baseline) as f:
        base = json.load(f)["workloads"]
    with open(args.candidate) as f:
        cand = json.load(f)["workloads"]

    row = "%-13s %-18s %28s %28s %8s %6s %6s %6s  %s"
    print(row % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change",
                 "A sprd", "B sprd", "bound", "verdict"))
    failing = False
    for name in base:
        if name not in cand:
            print("%-13s missing from %s" % (name, args.candidate))
            failing = True
            continue
        for metric in metrics:
            a = base[name]["metrics"].get(metric["name"])
            b = cand[name]["metrics"].get(metric["name"])
            if a is None or b is None:
                print("%-13s %-18s missing" % (name, metric["name"]))
                failing = True
                continue
            result, change = verdict(a, b, metric)
            failing = failing or result == "worse"
            print(row % (name, metric["name"],
                         "%.5g [%.5g, %.5g]" % (a["median"], a["q1"], a["q3"]),
                         "%.5g [%.5g, %.5g]" % (b["median"], b["q1"], b["q3"]),
                         "%+.1f%%" % (100 * change),
                         *("-" if s is None else "%.3f" % s for s in (spread(a), spread(b))),
                         "%.2f" % metric["bound"], result))
        fa, fb = failed_frac(base[name]), failed_frac(cand[name])
        result = "worse" if fb > fa else "within"
        failing = failing or result == "worse"
        print(row % (name, "failed_frac", "%.5g" % fa, "%.5g" % fb, "", "", "", "0", result))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
