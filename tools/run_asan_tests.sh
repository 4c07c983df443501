#!/usr/bin/env bash
# Builds the test suite with -DAIDA_SANITIZE=address (which the top-level
# CMakeLists expands to ASan + UBSan) and runs the concurrency-sensitive
# tests: the batch runner and the aida::serve service, whose
# promise/future handoffs and drain/shutdown paths are where lifetime
# bugs would live, the snapshot and KB-format tests, the hashing and KORE
# tests, whose per-thread scratch tables and published band-key arrays
# index by computed offsets, the graph tests, whose solver reads a
# dense occurrence table and whose graph build reads the document entity
# table's slots and kept-pair bitmap by computed offsets, and the core
# tests, whose document word index reads its CSR positions at offsets
# computed from a presence bitmap's bits and per-block ranks.
# Also replays the tests/fuzz/corpus/ seed corpora (including every fixed
# crasher) through the sanitized harness binaries, so corpus coverage gets
# ASan/UBSan eyes even on machines without Clang/libFuzzer.
# Any heap error or UB report fails the run.
#
# Usage: tools/run_asan_tests.sh [extra gtest filter]
#   BUILD_DIR=build-asan  override the build directory
#   When a filter is given it is applied to all nine test binaries.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-asan}"
BATCH_FILTER="${1:-BatchTest.*}"
SERVE_FILTER="${1:-*}"
SNAPSHOT_FILTER="${1:-*}"
HASHING_FILTER="${1:-*}"
KORE_FILTER="${1:-*}"
GRAPH_FILTER="${1:-*}"
CORE_FILTER="${1:-*}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAIDA_SANITIZE=address
cmake --build "$BUILD_DIR" -j --target batch_test serve_test \
  snapshot_test kb_serialization_test flat_kb_test hashing_test kore_test \
  graph_test core_test \
  fuzz_flat_kb fuzz_wiki_importer fuzz_corpus_io fuzz_tokenizer

# halt_on_error fails fast; detect_leaks guards the promise/future and
# flushed-request paths in the serving layer.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
"$BUILD_DIR/tests/batch_test" --gtest_filter="$BATCH_FILTER"
"$BUILD_DIR/tests/serve_test" --gtest_filter="$SERVE_FILTER"
"$BUILD_DIR/tests/snapshot_test" --gtest_filter="$SNAPSHOT_FILTER"
"$BUILD_DIR/tests/kb_serialization_test" --gtest_filter="$SNAPSHOT_FILTER"
"$BUILD_DIR/tests/flat_kb_test" --gtest_filter="$SNAPSHOT_FILTER"
"$BUILD_DIR/tests/hashing_test" --gtest_filter="$HASHING_FILTER"
"$BUILD_DIR/tests/kore_test" --gtest_filter="$KORE_FILTER"
"$BUILD_DIR/tests/graph_test" --gtest_filter="$GRAPH_FILTER"
"$BUILD_DIR/tests/core_test" --gtest_filter="$CORE_FILTER"

# Sanitized corpus replay (standalone driver; no Clang needed).
for surface in flat_kb wiki_importer corpus_io tokenizer; do
  "$BUILD_DIR/tests/fuzz/fuzz_$surface" "$REPO_ROOT/tests/fuzz/corpus/$surface"
done

echo "ASan/UBSan batch/serve/snapshot/serialization/hashing/kore/graph/core tests and fuzz corpus replay passed: no memory errors reported."
