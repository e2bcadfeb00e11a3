#!/usr/bin/env python3
"""Gate kernel benchmark results against the committed baseline.

Compares a fresh google-benchmark JSON export of perf_kernels against
BENCH_kernels.json. Both sides are recorded the same way:

  perf_kernels --json=PATH --benchmark_repetitions=5 \\
               --benchmark_enable_random_interleaving=true \\
               --benchmark_min_time=2

Each row is judged on its `median` aggregate. A row fails when

  fresh median / baseline median > 1 + max(0.15, 3 * baseline cv)

where `cv` is the baseline row's own coefficient of variation over its
repetitions, so the recording sets each row's bound: a noisy row gets a
looser one, and no row gets one tighter than 15 %. A row that called
SkipWithError (exported as "error_occurred") fails the gate with its
error message. Rows present on only one side are reported but never
fail, so adding or retiring a benchmark does not require re-recording
in the same commit.

Modes:
  perf_compare.py RESULTS.json              gate against BENCH_kernels.json
  perf_compare.py RESULTS.json --calibrate  rewrite BENCH_kernels.json from
                                            RESULTS (median and cv rows only)

Both modes refuse an export whose `bhss_build_flavor` context (stamped by
perf_kernels' custom main) is not "release", and an export that lacks the
median/cv aggregates of the repeated recording. The gate also refuses an
export whose `bhss_simd_isa` context differs from the baseline's: the
dispatched rows of a scalar run time other kernels than an avx2 baseline
holds. --calibrate also refuses an export with errored rows.

Exit status: 0 pass, 1 a row regressed or errored, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_kernels.json"
MIN_BOUND = 0.15
CV_FACTOR = 3.0
RECORD_FLAGS = ("--benchmark_repetitions=5 --benchmark_enable_random_interleaving=true "
                "--benchmark_min_time=2")
_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


@dataclass
class Export:
    medians: dict[str, float]  # row name -> median real time, ns
    cvs: dict[str, float]      # row name -> coefficient of variation
    errors: dict[str, str]     # row name -> error_message
    isa: str | None            # the dispatched kernels' ISA (`bhss_simd_isa`)
    doc: dict


class Refused(Exception):
    """The export cannot be gated or recorded."""


def load_export(path: Path) -> Export:
    with open(path) as f:
        doc = json.load(f)
    context = doc.get("context", {})
    flavor = context.get("bhss_build_flavor")
    if flavor != "release":
        raise Refused(f"{path} was produced by a '{flavor}' build of perf_kernels; "
                      "only release numbers may be gated or recorded (see EXPERIMENTS.md)")
    exp = Export({}, {}, {}, context.get("bhss_simd_isa"), doc)
    names: set[str] = set()
    for row in doc.get("benchmarks", []):
        name = row.get("run_name", row["name"])
        if row.get("error_occurred"):
            exp.errors[name] = row.get("error_message", "")
            continue
        names.add(name)
        aggregate = row.get("aggregate_name")
        if aggregate == "median":
            exp.medians[name] = float(row["real_time"]) * _NS_PER_UNIT[row["time_unit"]]
        elif aggregate == "cv":
            exp.cvs[name] = float(row["real_time"])
    bare = sorted(n for n in names if n not in exp.medians or n not in exp.cvs)
    if bare or not (names or exp.errors):
        raise Refused(f"{path} has no median/cv aggregates for "
                      f"{', '.join(bare) or 'any row'}; record with {RECORD_FLAGS}")
    return exp


def bound(base_cv: float) -> float:
    return 1.0 + max(MIN_BOUND, CV_FACTOR * base_cv)


def gate(fresh: Export, base: Export, base_name: str) -> int:
    shared = sorted(set(fresh.medians) & set(base.medians))
    if not shared and not fresh.errors:
        print(f"error: {base_name} and the results share no benchmark names",
              file=sys.stderr)
        return 2

    regressed: list[str] = []
    width = max(len(n) for n in set(fresh.medians) | set(base.medians) | set(fresh.errors))
    for name in shared:
        ratio = fresh.medians[name] / base.medians[name]
        limit = bound(base.cvs[name])
        verdict = "ok"
        if ratio > limit:
            verdict = "REGRESSED"
            regressed.append(name)
        print(f"  {name:<{width}}  {base.medians[name]:>12.1f} -> "
              f"{fresh.medians[name]:>12.1f} ns ({ratio:5.2f}x, bound {limit:4.2f}x)  "
              f"{verdict}")
    for name, message in sorted(fresh.errors.items()):
        print(f"  {name:<{width}}  ERROR: {message}")
    for name in sorted(set(fresh.medians) - set(base.medians)):
        print(f"  {name:<{width}}  (new benchmark, not gated)")
    for name in sorted(set(base.medians) - set(fresh.medians) - set(fresh.errors)):
        print(f"  {name:<{width}}  (missing from results, not gated)")

    if fresh.errors:
        print(f"\n{len(fresh.errors)} benchmark(s) reported an error: "
              f"{', '.join(sorted(fresh.errors))}", file=sys.stderr)
    if regressed:
        print(f"\n{len(regressed)} benchmark(s) slower than their bound "
              f"against {base_name}: {', '.join(regressed)}", file=sys.stderr)
        print("If a slowdown is intended, re-record with --calibrate on an idle "
              "machine and commit the new baseline.", file=sys.stderr)
    if regressed or fresh.errors:
        return 1
    print(f"\nall {len(shared)} shared benchmarks within their bounds of {base_name}")
    return 0


def main(argv: list[str] | None = None, baseline: Path = BASELINE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="fresh perf_kernels JSON export")
    parser.add_argument("--calibrate", action="store_true",
                        help=f"rewrite {baseline.name} from the results instead of gating")
    args = parser.parse_args(argv)

    try:
        fresh = load_export(args.results)
        if args.calibrate:
            if fresh.errors:
                raise Refused(f"{args.results} has errored rows: "
                              f"{', '.join(sorted(fresh.errors))}")
            doc = fresh.doc
            doc["benchmarks"] = [r for r in doc["benchmarks"]
                                 if r.get("aggregate_name") in ("median", "cv")]
            baseline.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"calibrated: {baseline} <- {args.results} "
                  f"({len(fresh.medians)} rows)")
            return 0
        base = load_export(baseline)
        if fresh.isa != base.isa:
            raise Refused(f"{args.results} ran the '{fresh.isa}' kernels but {baseline.name} "
                          f"was recorded on '{base.isa}'; gate only results of the same ISA")
    except Refused as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return gate(fresh, base, baseline.name)


if __name__ == "__main__":
    sys.exit(main())
