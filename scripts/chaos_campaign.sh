#!/usr/bin/env bash
# Chaos check for the distributed campaign path: hand-launched worker
# slices, killed and resumed, merged offline, published by a resumed run.
#
#   1. reference run, 1 thread, single process              -> ref.*
#   2. launch WORKERS processes `--worker-id=I --n-workers=WORKERS
#      --checkpoint=wI.ckpt` (one thread each)
#   3. SIGKILL worker 0 once its journal holds a shard record; it must
#      exit 137 with some but not all of its slice journaled; resume it
#   4. SIGTERM worker 2 (the last worker when WORKERS < 3) the same way;
#      it must drain and exit 75; resume it
#   5. tools/journal_merge the worker journals into merged.ckpt; the
#      merge must fold 0 duplicates (a duplicate means two processes
#      wrote one worker's journal)
#   6. publish with --resume=merged.ckpt --json --metrics --trace; the
#      pass must only read merged.ckpt (cmp against a copy), since every
#      shard it needs is journaled and published records are never
#      journaled
#   7. cmp all three streams against the reference
#
# The bench must be a run_point sweep (adapt_scenarios, fault_campaign,
# the ablations): workers skip §6.3 bisections, so a bisection bench
# journals its probes in the publish pass.
#
# Each worker is started directly in the background, so `$!` is the
# bench process itself and the signals reach it, not a wrapper shell.
#
# Usage: chaos_campaign.sh [bench-binary] [packets]
# Env:   WORKERS (default 4, at least 2)
# journal_merge is taken from the same build tree (../tools/ relative to
# the bench binary's directory).

set -euo pipefail

BENCH="${1:-build/bench/adapt_scenarios}"
PACKETS="${2:-240}"
WORKERS="${WORKERS:-4}"
EXIT_RESUMABLE=75

if [[ ! -x "$BENCH" ]]; then
  echo "chaos_campaign: bench binary not found: $BENCH" >&2
  exit 2
fi
BENCH="$(readlink -f "$BENCH")"
MERGE="$(dirname "$BENCH")/../tools/journal_merge"
if [[ ! -x "$MERGE" ]]; then
  echo "chaos_campaign: journal_merge binary not found: $MERGE" >&2
  exit 2
fi
MERGE="$(readlink -f "$MERGE")"
if (( WORKERS < 2 )); then
  echo "chaos_campaign: WORKERS must be at least 2" >&2
  exit 2
fi
TERMED=$(( WORKERS > 2 ? 2 : WORKERS - 1 ))

WORK="$(mktemp -d)"
declare -a PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

shard_records() {
  local n
  n=$(grep -c '^S ' "$1" 2>/dev/null) || true
  echo "${n:-0}"
}

start_worker() {  # start_worker I [--resume]
  local journal="--checkpoint=w$1.ckpt"
  [[ "${2:-}" == "--resume" ]] && journal="--resume=w$1.ckpt"
  "$BENCH" --packets="$PACKETS" --threads=1 --worker-id="$1" --n-workers="$WORKERS" \
    "$journal" >>"w$1.log" 2>&1 &
  PIDS[$1]=$!
}

# Signal worker I once its journal holds a shard record, then reap it.
# Sets RC to its exit status and AT to the shard records journaled then.
signal_after_first_shard() {  # signal_after_first_shard I SIGNAL
  local pid="${PIDS[$1]}"
  until (( $(shard_records "w$1.ckpt") >= 1 )); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.005
  done
  RC=0
  if ! kill "-$2" "$pid" 2>/dev/null; then
    echo "FAIL: worker $1 finished before SIG$2 — raise the packet count" >&2
    exit 1
  fi
  { wait "$pid"; } 2>/dev/null || RC=$?  # quiet the shell's "Killed" notice
  AT=$(shard_records "w$1.ckpt")
}

echo "== reference run (1 thread, single process)"
"$BENCH" --packets="$PACKETS" --threads=1 --json=ref.jsonl \
  --metrics=ref_metrics.jsonl --trace=ref_trace.jsonl >/dev/null
[[ -s ref.jsonl ]] || { echo "FAIL: reference produced no JSONL" >&2; exit 1; }

echo "== $WORKERS worker slices"
for ((i = 0; i < WORKERS; i++)); do start_worker "$i"; done

signal_after_first_shard 0 KILL
killed_at=$AT
[[ "$RC" -eq 137 ]] || { echo "FAIL: worker 0 exit $RC after SIGKILL, want 137" >&2; exit 1; }
echo "   worker 0 SIGKILLed with $killed_at shard records journaled"
start_worker 0 --resume

signal_after_first_shard "$TERMED" TERM
[[ "$RC" -eq "$EXIT_RESUMABLE" ]] || {
  echo "FAIL: worker $TERMED exit $RC after SIGTERM, want $EXIT_RESUMABLE" >&2
  cat "w$TERMED.log" >&2
  exit 1
}
echo "   worker $TERMED drained on SIGTERM (exit $EXIT_RESUMABLE) with $AT shard records"
start_worker "$TERMED" --resume

for ((i = 0; i < WORKERS; i++)); do
  wait "${PIDS[$i]}" || { echo "FAIL: worker $i exited $?" >&2; cat "w$i.log" >&2; exit 1; }
done
PIDS=()
full=$(shard_records w0.ckpt)
(( killed_at >= 1 && killed_at < full )) || {
  echo "FAIL: worker 0 held $killed_at of $full shard records when killed" >&2
  exit 1
}
echo "   all workers done; worker 0's slice is $full shard records"

echo "== offline merge"
journals=()
for ((i = 0; i < WORKERS; i++)); do journals+=("w$i.ckpt"); done
"$MERGE" --out=merged.ckpt "${journals[@]}" | tee merge.out
grep -Eq '^ +duplicates folded +0$' merge.out || {
  echo "FAIL: the merge folded duplicate records" >&2
  exit 1
}

echo "== publish from the merged journal"
cp merged.ckpt merged.before
"$BENCH" --packets="$PACKETS" --resume=merged.ckpt --json=fleet.jsonl \
  --metrics=fleet_metrics.jsonl --trace=fleet_trace.jsonl >/dev/null
cmp merged.before merged.ckpt || {
  echo "FAIL: the publish pass wrote to merged.ckpt; it must only read it" >&2
  exit 1
}
for stream in "" _metrics _trace; do
  cmp "ref$stream.jsonl" "fleet$stream.jsonl" || {
    echo "FAIL: fleet$stream.jsonl differs from the single-process reference" >&2
    exit 1
  }
done
echo "   JSONL + metrics + trace byte-identical to the reference; merged.ckpt unchanged"

echo "PASS: killed, drained and resumed worker slices merge and publish the reference bytes"
