#!/usr/bin/env bash
# Byte-compare the output streams of two builds: the check that a change
# moved no output bit.
#
# From each build's bench/ directory it runs, at --threads=4 with the
# --json, --metrics and --trace streams on,
#
#   fig10_ber_vs_jammer_bw         8 packets
#   fig14_power_advantage_hopping  2
#   fault_campaign                 8
#   adapt_scenarios                48
#   ablation_hop_dwell             4
#   ablation_filters               4
#   table2_pattern_matrix          4
#
# blanks the `git_sha` stamp in every stream, and `cmp`s each stream and
# stdout. The `.timing` sidecars hold wall times and are not compared.
#
# Then it checks that a journal resumes across the two builds: OLD runs
# adapt_scenarios (48 packets) with --checkpoint, NEW resumes a copy of
# that journal with the three streams on, and the republished streams
# must equal OLD's and the journal must not grow. A change that moves
# `params_hash` on purpose fails here with "journal grew".
#
# On the first difference the outputs are kept for inspection.
#
# Usage: scripts/stream_diff.sh OLD_BUILD NEW_BUILD
# Exit:  0 every stream identical, 1 a stream differs or the journal
#        grew, 2 bad usage or a bench that failed to run.

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: stream_diff.sh OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
OLD="$1"
NEW="$2"

RUNS=(
  "fig10_ber_vs_jammer_bw 8"
  "fig14_power_advantage_hopping 2"
  "fault_campaign 8"
  "adapt_scenarios 48"
  "ablation_hop_dwell 4"
  "ablation_filters 4"
  "table2_pattern_matrix 4"
)
STREAMS=(stdout json metrics trace)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# run BUILD SIDE BENCH PACKETS [ARGS...] -> $WORK/SIDE.BENCH.{stdout,json,metrics,trace}
run() {
  local bin="$1/bench/$3" out="$WORK/$2.$3" packets="$4"
  shift 4
  if [[ ! -x "$bin" ]]; then
    echo "stream_diff: bench binary not found: $bin" >&2
    exit 2
  fi
  if ! "$bin" --packets="$packets" --threads=4 --json="$out.json" --metrics="$out.metrics" \
      --trace="$out.trace" "$@" > "$out.stdout" 2> "$out.stderr"; then
    echo "stream_diff: $bin failed:" >&2
    cat "$out.stderr" >&2
    exit 2
  fi
  sed -i -E 's/"git_sha":"[^"]*"/"git_sha":""/g' "$out.json" "$out.metrics" "$out.trace"
}

for entry in "${RUNS[@]}"; do
  read -r bench packets <<< "$entry"
  run "$OLD" old "$bench" "$packets"
  run "$NEW" new "$bench" "$packets"
  for s in "${STREAMS[@]}"; do
    if ! cmp "$WORK/old.$bench.$s" "$WORK/new.$bench.$s"; then
      trap - EXIT
      echo "stream_diff: $bench ($packets packets): $s differs; outputs kept in $WORK" >&2
      exit 1
    fi
  done
  echo "stream_diff: $bench ($packets packets): ${STREAMS[*]} identical"
done

differs() {
  trap - EXIT
  echo "stream_diff: adapt_scenarios (48 packets) resumed under NEW: $1; outputs kept in $WORK" >&2
  exit 1
}
run "$OLD" journal adapt_scenarios 48 --checkpoint="$WORK/journal.ckpt"
cp "$WORK/journal.ckpt" "$WORK/resumed.ckpt"
run "$NEW" resumed adapt_scenarios 48 --resume="$WORK/resumed.ckpt"
for s in json metrics trace; do
  cmp "$WORK/journal.adapt_scenarios.$s" "$WORK/resumed.adapt_scenarios.$s" || differs "$s differs"
done
cmp "$WORK/journal.ckpt" "$WORK/resumed.ckpt" || differs "journal grew"
echo "stream_diff: adapt_scenarios (48 packets): OLD's journal resumes under NEW, json metrics trace identical, journal unchanged"
echo "stream_diff: every stream identical"
