#!/usr/bin/env bash
# Kill-and-resume smoke test for the campaign checkpoint layer.
#
# Proves the crash-recovery guarantee end to end on a real bench binary:
#   1. reference run, 1 thread, no checkpointing        -> ref.jsonl
#   2. checkpointed run, 8 threads, SIGKILLed mid-flight (no chance to
#      clean up) -> journal survives, no published JSONL
#   3. --resume of the same command                      -> kill.jsonl
#   4. assert kill.jsonl is BYTE-identical to ref.jsonl (cmp)
#   5. --resume the now finished journal once more: it must only read
#      it (journal cmp against a copy) and republish the same bytes
#   6. same again with SIGINT: the graceful drain must exit with the
#      distinct resumable status (75) and resume to the identical bytes.
#
# Every run also carries --metrics/--trace, so the same byte-identity bar
# is applied to the observability streams: the telemetry JSONL of an
# 8-thread killed-and-resumed run must equal the 1-thread uninterrupted
# reference byte for byte (the journal's O records make this possible).
# The .timing sidecar carries wall-clock scope stats and is deliberately
# NOT compared.
#
# Usage: kill_resume_smoke.sh [bench-binary] [packets]
# Works under ASan (slower binaries just move the kill point earlier in
# the sweep, which is exactly the point).

set -euo pipefail

BENCH="${1:-build/bench/ablation_hop_dwell}"
PACKETS="${2:-6}"
KILL_AFTER_S="${KILL_AFTER_S:-2}"
EXIT_RESUMABLE=75

if [[ ! -x "$BENCH" ]]; then
  echo "kill_resume_smoke: bench binary not found: $BENCH" >&2
  exit 2
fi
BENCH="$(readlink -f "$BENCH")"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== reference run (1 thread, no checkpoint)"
"$BENCH" --packets="$PACKETS" --threads=1 --json=ref.jsonl \
  --metrics=ref_metrics.jsonl --trace=ref_trace.jsonl >/dev/null
[[ -s ref.jsonl ]] || { echo "FAIL: reference produced no JSONL" >&2; exit 1; }
[[ -s ref_metrics.jsonl ]] || { echo "FAIL: reference produced no metrics JSONL" >&2; exit 1; }
[[ -s ref_trace.jsonl ]] || { echo "FAIL: reference produced no trace JSONL" >&2; exit 1; }

echo "== checkpointed run (8 threads), SIGKILL after ${KILL_AFTER_S}s"
"$BENCH" --packets="$PACKETS" --threads=8 --json=kill.jsonl --checkpoint=kill.ckpt \
  --metrics=kill_metrics.jsonl --trace=kill_trace.jsonl \
  >/dev/null 2>&1 &
PID=$!
sleep "$KILL_AFTER_S"
if kill -9 "$PID" 2>/dev/null; then
  wait "$PID" && rc=0 || rc=$?
  [[ "$rc" -eq 137 ]] || { echo "FAIL: expected exit 137 after SIGKILL, got $rc" >&2; exit 1; }
  echo "   killed mid-flight (journal: $(wc -l < kill.ckpt) lines)"
else
  wait "$PID" || true
  echo "   run finished before the kill — resume degenerates to a full replay"
fi
[[ -s kill.ckpt ]] || { echo "FAIL: no journal written" >&2; exit 1; }
[[ ! -f kill.jsonl ]] || { echo "FAIL: half-finished JSONL was published" >&2; exit 1; }
[[ ! -f kill_metrics.jsonl ]] || { echo "FAIL: half-finished metrics JSONL was published" >&2; exit 1; }
[[ ! -f kill_trace.jsonl ]] || { echo "FAIL: half-finished trace JSONL was published" >&2; exit 1; }

echo "== resume"
"$BENCH" --packets="$PACKETS" --threads=8 --json=kill.jsonl --resume=kill.ckpt \
  --metrics=kill_metrics.jsonl --trace=kill_trace.jsonl >/dev/null
cmp ref.jsonl kill.jsonl || {
  echo "FAIL: resumed JSONL differs from the uninterrupted reference" >&2
  exit 1
}
cmp ref_metrics.jsonl kill_metrics.jsonl || {
  echo "FAIL: resumed metrics JSONL differs from the uninterrupted reference" >&2
  exit 1
}
cmp ref_trace.jsonl kill_trace.jsonl || {
  echo "FAIL: resumed trace JSONL differs from the uninterrupted reference" >&2
  exit 1
}
echo "   resumed JSONL + metrics + trace byte-identical to the reference"

echo "== resume the finished journal again"
cp kill.ckpt finished.ckpt
"$BENCH" --packets="$PACKETS" --threads=8 --json=again.jsonl --resume=kill.ckpt \
  --metrics=again_metrics.jsonl --trace=again_trace.jsonl >/dev/null
cmp finished.ckpt kill.ckpt || {
  echo "FAIL: resuming a finished journal wrote to it; it must only read it" >&2
  exit 1
}
for stream in "" _metrics _trace; do
  cmp "ref$stream.jsonl" "again$stream.jsonl" || {
    echo "FAIL: again$stream.jsonl differs from the reference" >&2
    exit 1
  }
done
echo "   journal unchanged, JSONL + metrics + trace republished byte-identical"

echo "== graceful drain (SIGINT) must exit $EXIT_RESUMABLE"
rm -f int.jsonl int.jsonl.tmp int.ckpt int_metrics.jsonl int_trace.jsonl
"$BENCH" --packets="$PACKETS" --threads=8 --json=int.jsonl --checkpoint=int.ckpt \
  --metrics=int_metrics.jsonl --trace=int_trace.jsonl \
  >/dev/null 2>&1 &
PID=$!
sleep "$KILL_AFTER_S"
if kill -INT "$PID" 2>/dev/null; then
  wait "$PID" && rc=0 || rc=$?
  [[ "$rc" -eq "$EXIT_RESUMABLE" ]] || {
    echo "FAIL: expected resumable exit $EXIT_RESUMABLE after SIGINT, got $rc" >&2
    exit 1
  }
  [[ ! -f int.jsonl ]] || { echo "FAIL: drained run published a JSONL" >&2; exit 1; }
  echo "   drained with resumable exit status"
else
  wait "$PID" || true
  echo "   run finished before the interrupt — resume degenerates to a full replay"
fi

"$BENCH" --packets="$PACKETS" --threads=8 --json=int.jsonl --resume=int.ckpt \
  --metrics=int_metrics.jsonl --trace=int_trace.jsonl >/dev/null
cmp ref.jsonl int.jsonl || {
  echo "FAIL: drained+resumed JSONL differs from the reference" >&2
  exit 1
}
cmp ref_metrics.jsonl int_metrics.jsonl || {
  echo "FAIL: drained+resumed metrics JSONL differs from the reference" >&2
  exit 1
}
cmp ref_trace.jsonl int_trace.jsonl || {
  echo "FAIL: drained+resumed trace JSONL differs from the reference" >&2
  exit 1
}
echo "   drained+resumed JSONL + metrics + trace byte-identical to the reference"

echo "PASS: kill/resume and drain/resume both reproduce the reference bytes (incl. telemetry)"
