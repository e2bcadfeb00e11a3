#!/bin/sh
# A resume of a finished campaign only reads its journal: the journal stays
# byte-identical, every stream it republishes equals the first run's, and
# the journal holds no `P` line (journals hold shard records only).
#
# Usage: bench_resume_appends_nothing.sh BENCH_DIR

set -eu
bench_dir=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

check() {  # check NAME BENCH [ARGS...]
  name=$1
  bench=$2
  shift 2
  set -- "$@" --threads=2 --json="$work/$name.jsonl" --metrics="$work/$name.metrics" \
    --trace="$work/$name.trace"
  "$bench_dir/$bench" "$@" --checkpoint="$work/$name.ckpt" >/dev/null
  for f in jsonl metrics trace ckpt; do cp "$work/$name.$f" "$work/$name.first.$f"; done
  "$bench_dir/$bench" "$@" --resume="$work/$name.ckpt" >/dev/null 2>&1
  for f in jsonl metrics trace ckpt; do cmp "$work/$name.first.$f" "$work/$name.$f"; done
  if grep -q '^P ' "$work/$name.ckpt"; then
    echo "FAIL: the $name journal holds a P record" >&2
    exit 1
  fi
}

check fig07 fig07_snr_improvement_bound
check hop_dwell ablation_hop_dwell --packets=1
echo "PASS: resuming a finished campaign appends nothing and republishes the same bytes"
