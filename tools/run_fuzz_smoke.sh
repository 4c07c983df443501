#!/usr/bin/env bash
# Bounded libFuzzer smoke run over the four untrusted-input surfaces:
# the flat (mmap) KB snapshot loader, the wiki-page importer, the corpus
# text format, and the tokenizer/sentence-splitter stack.
#
# Builds tests/fuzz/ with -DAIDA_FUZZERS=ON (Clang/libFuzzer) and
# -DAIDA_SANITIZE=address (ASan+UBSan), then fuzzes each target for
# FUZZ_SECONDS starting from the checked-in seed corpus in
# tests/fuzz/corpus/<target>/. New inputs the fuzzer discovers go to a
# scratch dir under the build tree; crashing inputs land in
# $BUILD_DIR/artifacts/ and fail the run. A reproducer worth keeping
# should be minimized, fixed, and checked into tests/fuzz/corpus/ so the
# fuzz_replay_* ctest tests pin the regression forever.
#
# libFuzzer needs Clang. Without clang++ on PATH the script SKIPS with a
# loud warning and exits 0 so developer machines stay usable; CI exports
# AIDA_REQUIRE_FUZZ=1, which turns a missing toolchain into a hard
# failure — the gate can be unavailable locally, never silently
# unavailable in CI.
#
# Usage: tools/run_fuzz_smoke.sh [target...]   (default: all four)
#   FUZZ_SECONDS=N          per-target time budget (default 60)
#   BUILD_DIR=build-fuzz    override the fuzzing build directory
#   JOBS=N                  override build parallelism
#   CLANGXX=/path/to/clang++ override compiler discovery
#   AIDA_REQUIRE_FUZZ=1     fail (exit 2) instead of skipping
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-fuzz}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FUZZ_SECONDS="${FUZZ_SECONDS:-60}"
REQUIRE="${AIDA_REQUIRE_FUZZ:-0}"

ALL_TARGETS=(fuzz_flat_kb fuzz_wiki_importer fuzz_corpus_io fuzz_tokenizer)
TARGETS=("${@:-${ALL_TARGETS[@]}}")

find_tool() {
  local base="$1"
  local candidate
  for candidate in "$base" "$base"-20 "$base"-19 "$base"-18 "$base"-17 \
                   "$base"-16 "$base"-15 "$base"-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      command -v "$candidate"
      return 0
    fi
  done
  return 1
}

CLANGXX="${CLANGXX:-$(find_tool clang++ || true)}"
if [[ -z "$CLANGXX" ]]; then
  if [[ "$REQUIRE" == "1" ]]; then
    echo "error: clang++ not found and AIDA_REQUIRE_FUZZ=1" >&2
    exit 2
  fi
  echo "WARNING: clang++ not found; SKIPPING the libFuzzer smoke run."
  echo "The checked-in corpora still replay under ctest (fuzz_replay_*)"
  echo "with any compiler; install clang to fuzz locally. CI runs this"
  echo "gate unconditionally."
  exit 0
fi
echo "==> using $CLANGXX, ${FUZZ_SECONDS}s per target"

echo "==> [1/2] building libFuzzer harnesses (ASan+UBSan)"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_COMPILER="$CLANGXX" \
  -DAIDA_FUZZERS=ON \
  -DAIDA_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${TARGETS[@]}"

echo "==> [2/2] smoke-fuzzing ${#TARGETS[@]} target(s)"
ARTIFACTS="$BUILD_DIR/artifacts"
mkdir -p "$ARTIFACTS"
for target in "${TARGETS[@]}"; do
  corpus_subdir="${target#fuzz_}"
  seed_dir="$REPO_ROOT/tests/fuzz/corpus/$corpus_subdir"
  work_dir="$BUILD_DIR/corpus-work/$corpus_subdir"
  mkdir -p "$work_dir"
  echo "--- $target (seeds: $seed_dir)"
  # Work dir first: discoveries accumulate there and reseed later runs
  # without touching the checked-in corpus. -timeout catches hangs,
  # -rss_limit_mb catches unbounded allocation on crafted headers.
  "$BUILD_DIR/tests/fuzz/$target" \
    -max_total_time="$FUZZ_SECONDS" \
    -timeout=10 \
    -rss_limit_mb=2048 \
    -print_final_stats=1 \
    -artifact_prefix="$ARTIFACTS/" \
    "$work_dir" "$seed_dir"
done

echo "Fuzz smoke passed: no crashes, hangs, or sanitizer findings."
