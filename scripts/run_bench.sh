#!/usr/bin/env bash
# Run the experiment benches and write the machine-readable perf-trajectory
# files BENCH_throughput.json, BENCH_contention.json and BENCH_recovery.json
# (logging overhead, restart cost, group commit, file-backed log) at the
# repo root.
#
# Usage:
#   scripts/run_bench.sh [build-dir]
#
# Environment:
#   SEMCC_BENCH_TXNS   shorten runs (per-thread transaction count); used by
#                      the CI perf-smoke leg.
#
# Every emitted file is validated as JSON — a bench that writes a malformed
# or empty file fails the script — and scripts/check_bench_rows.py fails it
# when a required ablation row is missing. If a previous copy of a BENCH
# file exists (the committed perf trajectory),
# scripts/check_bench_regression.py compares new against old: >15% timing
# regressions WARN only (perf is tracked, not gated, here), but a baseline
# row missing from the new run FAILS the script — bench coverage must never
# shrink silently.
#
# The build directory must be a Release build (cmake -DCMAKE_BUILD_TYPE=Release)
# or the numbers are meaningless; the script refuses any other build type.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${BUILD_DIR:-$repo_root/build-rel}}"

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" != "Release" ]]; then
  echo "error: $build_dir is not a Release build" \
       "(CMAKE_BUILD_TYPE='$build_type'); configure it with" >&2
  echo "  cmake -B $build_dir -S $repo_root -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

for bench in bench_throughput bench_contention bench_recovery; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not found (build with" >&2
    echo "  cmake -B $build_dir -S $repo_root -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build $build_dir -j)" >&2
    exit 1
  fi
done

# Validate that a bench actually produced a well-formed, non-empty JSON file.
validate_json() {
  local path="$1"
  if [[ ! -s "$path" ]]; then
    echo "error: $path missing or empty (bench silently failed?)" >&2
    exit 1
  fi
  if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
if isinstance(data, list) and len(data) == 0:
    sys.exit("empty result array")
' "$path"; then
    echo "error: $path is not valid JSON" >&2
    exit 1
  fi
}

# Stash the previous trajectory (if any) for the regression comparison.
stash_dir="$(mktemp -d)"
trap 'rm -rf "$stash_dir"' EXIT
bench_files=(BENCH_throughput.json BENCH_contention.json BENCH_recovery.json)
for f in "${bench_files[@]}"; do
  [[ -f "$repo_root/$f" ]] && cp "$repo_root/$f" "$stash_dir/$f"
done

# --stats adds the verdict-breakdown columns to every row
# (commute/case1/case2/root_waits/retained_hits/timeouts), so the trajectory
# files track protocol behavior, not just throughput.
"$build_dir/bench/bench_throughput" --stats --json="$repo_root/BENCH_throughput.json"
validate_json "$repo_root/BENCH_throughput.json"
"$build_dir/bench/bench_contention" --stats --json="$repo_root/BENCH_contention.json"
validate_json "$repo_root/BENCH_contention.json"
"$build_dir/bench/bench_recovery" --stats --json="$repo_root/BENCH_recovery.json"
validate_json "$repo_root/BENCH_recovery.json"
python3 "$repo_root/scripts/check_bench_rows.py" "$repo_root"

echo
for f in "${bench_files[@]}"; do
  echo "wrote $repo_root/$f"
  if [[ -f "$stash_dir/$f" ]]; then
    # Timing regressions only warn (exit 0), but a baseline row that
    # disappeared from the new run exits 1 and fails the script: bench
    # coverage must never shrink silently.
    python3 "$repo_root/scripts/check_bench_regression.py" \
      "$stash_dir/$f" "$repo_root/$f"
  fi
done
