#!/usr/bin/env bash
# The one command of the end-to-end link benchmark. Run it from the root of
# the repository:
#
#   bash bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one mode; the last stdout line is the result JSON
#   bash bench/suite/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload (both modes unless --trace is given), each in its own
#       process; prints "workload metric value unit" lines, then one JSON
#       document with every result and the run's stamps
#
# Other options (--smoke, ...) are passed to the benchmark binary. The
# script first configures and builds the Release tree build-bench/, with
# the benchmark target injected into the root project, and refuses any
# other build type. See bench/suite/README.md.
set -euo pipefail

build_dir=build-bench
suite_dir=bench/suite
workloads=(clean_awgn fig14_narrowjam reactive_hop4 adapt_faults)

workload=""
trace=""
seed=7
seconds=20
passthrough=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --trace) trace="$2"; shift 2 ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    *) passthrough+=("$1"); shift ;;
  esac
done

if [[ ! -f CMakeLists.txt || ! -f "$suite_dir/suite.cmake" ]]; then
  echo "run.sh: run from the repository root (CMakeLists.txt and $suite_dir/ needed)" >&2
  exit 1
fi

mkdir -p "$build_dir"
log="$build_dir/suite-build.log"
if ! { cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_PROJECT_bhss_INCLUDE="$PWD/$suite_dir/suite.cmake" &&
       cmake --build "$build_dir" --target bhss_suite -j"$(nproc)"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log in $log)" >&2
  exit 1
fi
if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$build_dir/CMakeCache.txt"; then
  echo "run.sh: $build_dir is not a Release build; refusing to measure" >&2
  exit 1
fi

suite=("$build_dir/bhss_suite" --seed "$seed" --seconds "$seconds"
       --goldens "$suite_dir/goldens.txt" --workdir "$build_dir/suite-out"
       ${passthrough[@]+"${passthrough[@]}"})
git_sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

if [[ -n "$workload" && -n "$trace" ]]; then
  echo "# git=$git_sha"
  exec "${suite[@]}" --workload "$workload" --trace "$trace"
fi

[[ -n "$workload" ]] && workloads=("$workload")
modes=(0 1)
[[ -n "$trace" ]] && modes=("$trace")

# Stamp values from the binary's "# workload=... key=value ..." line.
stamp() { sed -n "s/^# workload=.* $1=\([^ ]*\).*/\1/p" <<<"$2" | head -n 1; }

status=0
stamps=""
results=""
for w in "${workloads[@]}"; do
  entry=""
  for m in "${modes[@]}"; do
    rc=0
    out=$("${suite[@]}" --workload "$w" --trace "$m") || rc=$?
    [[ $rc -ne 0 ]] && status=1
    last=$(tail -n 1 <<<"$out")
    if [[ "$last" == \{* ]]; then
      sed '$d' <<<"$out"
    else
      printf '%s\n' "$out"
      last=null
    fi
    if [[ -z "$stamps" && -n "$(stamp isa "$out")" ]]; then
      stamps=$(printf '"nproc": %s, "threads": %s, "isa": "%s"' \
        "$(stamp nproc "$out")" "$(stamp threads "$out")" "$(stamp isa "$out")")
    fi
    key=end_to_end
    [[ "$m" != 0 ]] && key=per_layer
    entry="${entry:+$entry, }\"$key\": $last"
  done
  results="${results:+$results, }\"$w\": {$entry}"
done

printf '{"git": "%s", "seed": %s, "seconds": %s, %s, "results": {%s}}\n' \
  "$git_sha" "$seed" "$seconds" "${stamps:-\"nproc\": null}" "$results"
exit $status
