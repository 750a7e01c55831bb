#!/usr/bin/env bash
# Records the perf trajectory: runs the kernel microbenchmarks and the
# fig10/fig11 message-scaling benches, emitting
#
#   BENCH_kernel_micro.json — google-benchmark JSON (BM_EventQueuePushPop,
#                             BM_EventQueueHold, BM_EventQueueFanout,
#                             BM_SimulationEventDispatch, probed dispatch,
#                             BM_DirectUnicast, ...)
#   BENCH_messages.json     — fig10 + fig11 summaries incl. the auction
#                             batching comparison (msgs/job AND bytes/job)
#   BENCH_metrics.json      — observability metrics time-series of the
#                             50-cluster auction+tree+coalition observed
#                             run (epoch-sampled counters + ledger columns)
#
# Usage: bench/run_bench.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  defaults to ./build
#   OUT_DIR    defaults to the repository root (this script's parent dir)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_DIR="${2:-$REPO_ROOT}"

if [[ ! -x "$BUILD_DIR/bench_fig10_msg_per_job_scaling" ]]; then
  echo "error: bench binaries not found in $BUILD_DIR — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== kernel microbenchmarks -> $OUT_DIR/BENCH_kernel_micro.json"
if [[ -x "$BUILD_DIR/bench_micro_kernel" ]]; then
  "$BUILD_DIR/bench_micro_kernel" \
    --benchmark_filter='BM_EventQueuePushPop|BM_EventQueueHold|BM_EventQueueFanout|BM_SimulationEventDispatch|BM_SimulationEventDispatchProbed|BM_DirectUnicast|BM_DirectoryRankedQuery' \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$OUT_DIR/BENCH_kernel_micro.json" \
    --benchmark_out_format=json
else
  echo "  bench_micro_kernel missing (google-benchmark not installed); skipped"
fi

echo "== fig10/fig11 message scaling -> $OUT_DIR/BENCH_messages.json"
# --metrics rides the same invocation: after the comparison tables the
# binary re-runs the largest auction+tree+coalition point with the
# metrics registry on and dumps its epoch time-series.
# --churn adds the membership-churn sweep (0/10/20% mid-run cluster
# loss) and its churn_sweep columns to the JSON.
"$BUILD_DIR/bench_fig10_msg_per_job_scaling" --json="$tmpdir/fig10.json" \
  --churn \
  --metrics="$OUT_DIR/BENCH_metrics.json" \
  > "$tmpdir/fig10.txt"
"$BUILD_DIR/bench_fig11_msg_per_gfa_scaling" --json="$tmpdir/fig11.json" \
  > "$tmpdir/fig11.txt"
{
  echo '{'
  echo '  "fig10":'
  sed 's/^/  /' "$tmpdir/fig10.json"
  echo '  ,'
  echo '  "fig11":'
  sed 's/^/  /' "$tmpdir/fig11.json"
  echo '}'
} > "$tmpdir/messages.json"
mv "$tmpdir/messages.json" "$OUT_DIR/BENCH_messages.json"

echo "== summary"
grep -A7 'Auction mode' "$tmpdir/fig10.txt" | head -10 || true
echo "done: $OUT_DIR/BENCH_kernel_micro.json" \
     "$OUT_DIR/BENCH_messages.json $OUT_DIR/BENCH_metrics.json"
