#!/usr/bin/env sh
# Build, test, and regenerate every reproduction artifact.
#
# Usage: sh scripts/run_all.sh   (from any directory)
#
# Benches that write their own bench_results/*.json run as they are; every
# other bench's output is captured to bench_results/<bench>.txt.
# ROBOTUNE_BENCH_JOBS (default: all cores) parallelizes the comparison
# grids without changing their numbers.
set -e
cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"
export ROBOTUNE_BENCH_JOBS="${ROBOTUNE_BENCH_JOBS:-$(nproc)}"
mkdir -p bench_results
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "== $name"
  case "$name" in
    fig_batch_scaling|fig_external|fig_fault_resilience|fig_racing|\
    fig_service_throughput|perf_hotpath)
      "$b" ;;
    *)
      "$b" > "bench_results/$name.txt" 2>&1 ;;
  esac
done
