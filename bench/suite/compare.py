#!/usr/bin/env python3
"""Compare two result sets of the end-to-end link benchmark.

    python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per invocation: the stdout of bench/suite/run.sh
(any mode). Every "workload metric value unit" line is one value; a run whose
result JSON says "correct": false is reported and counts as a failed run.

For each (metric, workload) the script prints both sides' medians and
quartiles, the fraction of pairs the change won (pair i = the i-th file of each
side in name order; ties count for neither), and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the parent's
              interquartile range
  regressed   the change's median is worse than the parent's by more than the
              metric's bound
  unresolved  not regressed, but either side's interquartile range (as a share
              of its median) is wider than the bound, and not every change run
              is better than every parent run
  unchanged   otherwise

Bounds and directions come from BENCHMARK.json; per-layer metrics have no
bound, so they can only read improved, worse (the mirror of improved) or "-".
Comparing two result sets of the same code gives the benchmark's own noise:
every verdict should then read unchanged.
"""

import argparse
import json
import math
import os
import statistics
import sys


def load_set(directory):
    """Return ({(workload, metric): [values in file order]}, files, failed files)."""
    values = {}
    files = sorted(f for f in os.listdir(directory)
                   if os.path.isfile(os.path.join(directory, f)))
    failed = []
    for name in files:
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("{"):
                    if '"correct": false' in line:
                        failed.append(name)
                    continue
                parts = line.split()
                if len(parts) != 4:
                    continue
                try:
                    value = float(parts[2])
                except ValueError:
                    continue
                if math.isfinite(value):
                    values.setdefault((parts[0], parts[1]), []).append(value)
    return values, files, failed


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_lo, p_med, p_hi = quartiles(parent)
    c_lo, c_med, c_hi = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    lost = losses / len(pairs) if pairs else 0.0
    delta = sign * (c_med - p_med)
    if won >= 0.9 and delta > (p_hi - p_lo):
        return won, "improved"
    if bound is None:
        return won, "worse" if lost >= 0.9 and -delta > (p_hi - p_lo) else "-"
    if p_med != 0 and -delta / abs(p_med) > bound:
        return won, "regressed"
    spread = max((p_hi - p_lo) / abs(p_med) if p_med else 0.0,
                 (c_hi - c_lo) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]

    parent, p_files, p_failed = load_set(args.parent)
    change, c_files, c_failed = load_set(args.change)
    print(f"# parent: {len(p_files)} runs, {len(p_failed)} failed; "
          f"change: {len(c_files)} runs, {len(c_failed)} failed")
    for name in p_failed:
        print(f"# parent run failed its correctness check: {name}")
    for name in c_failed:
        print(f"# change run failed its correctness check: {name}")

    header = ("metric", "workload", "n", "parent q1/med/q3", "change q1/med/q3",
              "spread p/c", "won", "bound", "verdict")
    rows = []
    regressed = False
    for metric, better, bound in metrics:
        for workload in workloads:
            p = parent.get((workload, metric))
            c = change.get((workload, metric))
            if not p or not c:
                continue
            p_q = quartiles(p)
            c_q = quartiles(c)
            won, v = verdict(p, c, better, bound)
            regressed = regressed or v == "regressed"
            spread = "%.3f/%.3f" % ((p_q[2] - p_q[0]) / abs(p_q[1]) if p_q[1] else 0.0,
                                    (c_q[2] - c_q[0]) / abs(c_q[1]) if c_q[1] else 0.0)
            rows.append((metric, workload, f"{len(p)}/{len(c)}",
                         "%.5g/%.5g/%.5g" % p_q, "%.5g/%.5g/%.5g" % c_q, spread,
                         "%.2f" % won, "-" if bound is None else "%.2f" % bound, v))
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())
    return 1 if regressed or c_failed else 0


if __name__ == "__main__":
    sys.exit(main())
