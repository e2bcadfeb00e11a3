#!/bin/sh
# A path the bench cannot use exits 2 before any point runs: a journal of
# another campaign, a file without a valid journal header, and a
# --checkpoint, --json or --metrics/--trace path in a missing directory.
# A refused run publishes nothing, leaves no staged stream behind and
# leaves a refused journal byte-identical.
#
# Usage: bench_refuses_unusable_paths.sh BENCH_DIR

set -eu
bench_dir=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
missing="$work/missing"

refused() {  # refused WHAT BENCH [ARGS...]
  what=$1
  bench=$2
  shift 2
  rc=0
  "$bench_dir/$bench" "$@" >/dev/null 2>"$work/err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $what: exit $rc, want 2" >&2
    cat "$work/err" >&2
    exit 1
  fi
  for f in "$work"/out*; do
    if [ -e "$f" ]; then
      echo "FAIL: $what left $f behind" >&2
      exit 1
    fi
  done
}

"$bench_dir/fig09_ber_vs_ebno" --checkpoint="$work/other.ckpt" >/dev/null
echo "not a journal" >"$work/junk.ckpt"
for journal in other junk; do
  cp "$work/$journal.ckpt" "$work/$journal.before"
  refused "--resume=$journal.ckpt" fig07_snr_improvement_bound \
    --resume="$work/$journal.ckpt" --json="$work/out.jsonl"
  cmp "$work/$journal.before" "$work/$journal.ckpt"
done
refused "--checkpoint in a missing directory" fig07_snr_improvement_bound \
  --checkpoint="$missing/j.ckpt" --json="$work/out.jsonl"
refused "--json in a missing directory" fig07_snr_improvement_bound --json="$missing/x.jsonl"
refused "--metrics/--trace in a missing directory" ablation_hop_dwell --packets=1 \
  --json="$work/out.jsonl" --metrics="$missing/m.jsonl" --trace="$missing/t.jsonl"
echo "PASS: every unusable path exits 2 and leaves nothing behind"
