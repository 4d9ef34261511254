#!/usr/bin/env bash
# causim-perf: builds the benchmark from source into build-perf/ and runs it.
#
#   bench/perf/run.sh [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
#       every workload, each in its own process (so each gets a clean peak
#       RSS); --traced adds a traced pass per workload. Exits non-zero if any
#       workload failed its correctness checks.
#   bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                     [--smoke] [--out FILE]
#       one workload; the last line of stdout is its JSON result.
#
# Metric lines read `workload metric value unit`; lines starting with `#`
# carry the machine fingerprint and notes. Build output goes to stderr.
set -euo pipefail

cd "$(dirname "$0")/../.."
if [[ ! -f src/CMakeLists.txt || ! -f bench/perf/CMakeLists.txt ]]; then
  echo "run.sh: needs a full causim checkout (src/ is missing)" >&2
  exit 2
fi

usage() {
  sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload="" seed=1 seconds=15 trace=0 traced=0 smoke=0 out=""
while (($#)); do
  case "$1" in
    --workload) workload=${2:?--workload needs a value}; shift 2 ;;
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --trace) trace=${2:?--trace needs a value}; shift 2 ;;
    --traced) traced=1; shift ;;
    --smoke) smoke=1; shift ;;
    --out) out=${2:?--out needs a value}; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; usage ;;
  esac
done

build_dir=build-perf
jobs=$(nproc 2>/dev/null || echo 2)
((jobs > 4)) && jobs=4
{
  cmake -S bench/perf -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$jobs"
} 1>&2
bin=$build_dir/causim_perf

git_sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)
src_sha=$(find src -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
  LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-12)
common=(--seed "$seed" --seconds "$seconds" --git-sha "$git_sha" --src-sha "$src_sha")
((smoke)) && common+=(--smoke)

# Runs every argument list given (one process each), streaming output to
# stdout and, with --out, to the file as well.
run_all() {
  local status=0
  [[ -n $out ]] && : >"$out"
  for args in "$@"; do
    local start=$SECONDS rc=0
    # pipefail makes the pipeline's status the benchmark's own exit code.
    # shellcheck disable=SC2086 # args is a deliberately word-split list
    "$bin" $args "${common[@]}" | { if [[ -n $out ]]; then tee -a "$out"; else cat; fi; } ||
      rc=$?
    if ((rc != 0)); then
      echo "# $args: exit $rc" >&2
      status=1
    fi
    echo "# $args: $((SECONDS - start)) s" >&2
  done
  return $status
}

if [[ -n $workload ]]; then
  run_all "--workload $workload --trace $trace"
  exit
fi

runs=()
for w in paper-des geo-des kv-sat kv-paced; do
  runs+=("--workload $w --trace 0")
  ((traced)) && runs+=("--workload $w --trace 1")
done
run_all "${runs[@]}"
