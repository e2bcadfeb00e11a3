#!/usr/bin/env bash
# Quick check of the end-to-end link benchmark, from the repository root:
#
#   bash bench/suite/selftest.sh
#
# Runs every workload in --smoke mode (16 packets, one rep) in both modes and
# asserts that every metric named in BENCHMARK.json prints a finite value,
# that every run passed its bit-exactness checks (the traced replay against
# the runner included) and that ledger.coverage >= 0.95. Once build-bench/
# is built it takes well under 30 s.
set -euo pipefail

out_dir=build-bench/suite-selftest
mkdir -p "$out_dir"
rc=0
bash bench/suite/run.sh --smoke --trace 0 > "$out_dir/trace0.txt" || rc=$?
bash bench/suite/run.sh --smoke --trace 1 > "$out_dir/trace1.txt" || rc=$?
if [[ $rc -ne 0 ]]; then
  echo "selftest: a smoke run failed (see $out_dir/)" >&2
  exit 1
fi

python3 - "$out_dir/trace0.txt" "$out_dir/trace1.txt" <<'EOF'
import json
import math
import sys

bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
expected = {0: [m["name"] for m in bench["end_to_end"]],
            1: [m["name"] for m in bench["per_layer"]]}
problems = []
for mode, path in enumerate(sys.argv[1:3]):
    lines = open(path).read().splitlines()
    doc = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and not line.startswith("#"):
            values[(parts[0], parts[1])] = float(parts[2])
    key = "end_to_end" if mode == 0 else "per_layer"
    for w in workloads:
        result = doc["results"][w][key]
        if not result or not result["correct"] or result["failed"] != 0:
            problems.append(f"{w} trace={mode}: run not correct: {result}")
        for name in expected[mode]:
            v = values.get((w, name))
            if v is None or not math.isfinite(v):
                problems.append(f"{w} trace={mode}: {name} missing or not finite")
        if mode == 1 and values.get((w, "ledger.coverage"), 0.0) < 0.95:
            problems.append(f"{w}: ledger.coverage {values.get((w, 'ledger.coverage'))} < 0.95")
for p in problems:
    print("selftest:", p, file=sys.stderr)
if problems:
    sys.exit(1)
print(f"selftest: ok ({len(workloads)} workloads, both modes)")
EOF
