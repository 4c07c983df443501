#!/usr/bin/env bash
# The one-command CI gate: tier-1 build + full ctest suite, the static
# analysis pass (Clang thread-safety + view-lifetime errors + static
# analyzer + clang-tidy + clang-query lints + format check;
# skipped with a warning when Clang is absent locally), the libFuzzer
# smoke run over the untrusted-input parsers (also Clang-gated), then
# the ASan/UBSan and TSan passes over the concurrency- and
# lifetime-sensitive tests (batch runner, serving layer, snapshot
# registry, flat KB loader, fuzz corpus replay).
# Everything a PR must keep green, runnable locally exactly as the
# GitHub Actions workflow runs it.
#
# Usage: tools/run_all_checks.sh [--skip-sanitizers]
#   BUILD_DIR=build       override the tier-1 build directory
#   JOBS=N                override build/test parallelism (default: nproc)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
SKIP_SANITIZERS=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SANITIZERS=1

echo "==> tier-1: configure + build (${JOBS} jobs)"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> tier-1: ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "==> static analysis (thread-safety + lifetime + analyzer + tidy + lints)"
# Uses its own build tree (build-tsa); self-skips with a warning when no
# clang++ is installed. CI runs it as a separate job with
# AIDA_REQUIRE_STATIC_ANALYSIS=1 so the skip can never hide there.
"$REPO_ROOT/tools/run_static_analysis.sh"

echo "==> fuzz smoke (libFuzzer over the untrusted-input parsers)"
# Same Clang-gating pattern (build-fuzz tree); the corpus replay part of
# the coverage already ran above as the fuzz_replay_* ctest tests. CI
# runs this as its own job with AIDA_REQUIRE_FUZZ=1.
"$REPO_ROOT/tools/run_fuzz_smoke.sh"

if [[ "$SKIP_SANITIZERS" == "1" ]]; then
  echo "==> sanitizers skipped (--skip-sanitizers)"
else
  echo "==> ASan/UBSan pass"
  "$REPO_ROOT/tools/run_asan_tests.sh"

  echo "==> TSan pass"
  "$REPO_ROOT/tools/run_tsan_tests.sh"
fi

echo "All checks passed."
