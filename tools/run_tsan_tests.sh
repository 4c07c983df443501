#!/usr/bin/env bash
# Builds the test suite with -DAIDA_SANITIZE=thread and runs the
# concurrency-sensitive tests (the annotated mutex/condvar primitives,
# batch runner, relatedness cache, per-call stats, the aida::serve
# worker pool / queue / metrics with each worker's per-thread document
# entity table, the two-stage hasher's per-entity band-key memo, the
# per-thread scratch of the KORE kernel and of the graph build) under
# ThreadSanitizer. Any data race fails the run.
#
# Usage: tools/run_tsan_tests.sh [extra gtest filter]
#   BUILD_DIR=build-tsan  override the build directory
#   When a filter is given it is applied to all seven test binaries.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-tsan}"
BATCH_FILTER="${1:-BatchTest.*}"
SERVE_FILTER="${1:-*}"
SNAPSHOT_FILTER="${1:-*}"
MUTEX_FILTER="${1:-*}"
HASHING_FILTER="${1:-*}"
KORE_FILTER="${1:-*}"
GRAPH_FILTER="${1:-*}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAIDA_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target mutex_test batch_test serve_test snapshot_test \
  hashing_test kore_test graph_test

# halt_on_error makes the first race fail fast with a non-zero exit.
# tools/tsan.supp silences the known libstdc++ _Sp_atomic false positive
# (std::atomic<std::shared_ptr> lock-bit protocol lacks TSan annotations).
DEFAULT_TSAN_OPTIONS="halt_on_error=1:suppressions=$REPO_ROOT/tools/tsan.supp"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/mutex_test" --gtest_filter="$MUTEX_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/batch_test" --gtest_filter="$BATCH_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/serve_test" --gtest_filter="$SERVE_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/snapshot_test" --gtest_filter="$SNAPSHOT_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/hashing_test" --gtest_filter="$HASHING_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/kore_test" --gtest_filter="$KORE_FILTER"
TSAN_OPTIONS="${TSAN_OPTIONS:-$DEFAULT_TSAN_OPTIONS}" \
  "$BUILD_DIR/tests/graph_test" --gtest_filter="$GRAPH_FILTER"

echo "TSan mutex/batch/cache/serve/snapshot/hashing/kore/graph tests passed: no data races reported."
