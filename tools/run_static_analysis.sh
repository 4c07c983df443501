#!/usr/bin/env bash
# Compile-time correctness gate: Clang Thread Safety Analysis and the
# view-lifetime diagnostics as errors, the Clang Static Analyzer, a
# curated clang-tidy pass, clang-query AST lints, a formatting check and
# toolchain-free source sweeps.
#
# Ten phases (each logged to $LOG_DIR and summarized at the end):
#   1. raw-primitive sweep (no toolchain needed): no std::mutex /
#      std::lock_guard / std::condition_variable may appear in src/
#      outside util/mutex.* — every lock must be an annotated util::Mutex
#      or the analysis has a blind spot;
#   2. contract-macro sweep (no toolchain needed): no raw assert() in
#      src/ — release builds compile assert away, turning violated
#      invariants into silent UB; util/check.h's AIDA_CHECK / AIDA_DCHECK
#      are the only sanctioned contract macros (static_assert stays fine);
#   3. format check: clang-format --dry-run over the files listed in
#      tools/static_analysis/format_scope.txt (repo-root .clang-format).
#      Warn-only locally; AIDA_REQUIRE_STATIC_ANALYSIS=1 (CI) makes a
#      formatting diff a failure;
#   4. thread-safety smoke controls: the positive control TU must
#      compile under -Werror=thread-safety and the negative control must
#      NOT — proves the analysis is enabled AND discriminating before we
#      trust a "no warnings" result;
#   5. lifetime smoke controls: lifetime_ok.cc must compile under
#      -Werror=dangling -Werror=dangling-gsl -Werror=return-stack-address
#      and the three lifetime_fail_*.cc controls must each be rejected
#      with the expected diagnostic family (util/lifetime.h annotations:
#      AIDA_LIFETIME_BOUND, AIDA_VIEW_TYPE/AIDA_OWNER_TYPE);
#   6. function-effect smoke controls (Clang >= 20 only): the annotated
#      positive control must compile under -Werror=function-effects and
#      the two negative controls — a blocking std::mutex acquisition and
#      a std::vector growth inside an AIDA_NONBLOCKING function — must
#      each be rejected by the function-effects diagnostic
#      (util/function_effects.h annotations). WARNs, with the discovered
#      Clang version, when the toolchain predates the analysis;
#   7. full Clang build of the src/ libraries plus the tools/, bench/
#      and examples/ executables with -Werror=thread-safety[-beta], the
#      lifetime errors AND (on Clang >= 20) -Werror=function-effects
#      (AIDA_THREAD_SAFETY_ANALYSIS=ON + AIDA_LIFETIME_ANALYSIS=ON +
#      AIDA_FUNCTION_EFFECT_ANALYSIS=ON). Tests stay out of the
#      acceptance bar;
#   8. Clang Static Analyzer (--analyze, -analyzer-werror) over every
#      translation unit in src/, tools/, bench/ and examples/ (the
#      deliberately-broken control TUs under tools/static_analysis/ are
#      excluded): core, cplusplus, unix and security.insecureAPI checker
#      groups as errors (deadcode.DeadStores excluded — it flags
#      defensive clear-after-move and has no soundness payoff);
#   9. clang-tidy (.clang-tidy at the repo root) over the same TU set;
#  10. clang-query AST lints (tools/static_analysis/*.query, driven by
#      run_clang_query_lints.sh): views stored beyond their snapshot
#      pin, hash-order iteration in determinism-critical code, raw
#      std::thread ownership outside util/. Each lint is
#      control-validated before it is trusted.
#
# Phases 3-10 need LLVM tooling. When a tool is missing the script SKIPS
# that phase with a loud warning and stays green so developer machines
# without Clang remain usable; CI exports AIDA_REQUIRE_STATIC_ANALYSIS=1,
# which turns a missing toolchain into a hard failure — the gate can be
# unavailable locally, never silently unavailable in CI. SKIP/WARN lines
# in the final summary carry the discovered Clang version, so a
# silently-old toolchain (phase 6 needs Clang >= 20) stays visible in
# the CI step summary.
#
# Usage: tools/run_static_analysis.sh
#   BUILD_DIR=build-tsa             override the analysis build directory
#   LOG_DIR=$BUILD_DIR/static-analysis-logs   override the phase-log dir
#   JOBS=N                          override build parallelism
#   CLANGXX=/path/to/clang++        override compiler discovery
#   CLANG_TIDY=/path/to/clang-tidy  override clang-tidy discovery
#   CLANG_QUERY=...                 override clang-query discovery
#   CLANG_FORMAT=...                override clang-format discovery
#   AIDA_REQUIRE_STATIC_ANALYSIS=1  fail instead of skipping
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-tsa}"
LOG_DIR="${LOG_DIR:-$BUILD_DIR/static-analysis-logs}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
REQUIRE="${AIDA_REQUIRE_STATIC_ANALYSIS:-0}"
mkdir -p "$LOG_DIR"

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

# Every *.cc / *.cpp the analyzer and clang-tidy cover: the library, the
# tools, the benches and the examples. tests/ stays curated (the gate's
# acceptance bar is shipping code) and tools/static_analysis/ holds
# deliberately-broken control TUs.
gate_tus() {
  find "$REPO_ROOT/src" "$REPO_ROOT/bench" -name '*.cc'
  find "$REPO_ROOT/tools" -name '*.cc' -not -path '*/static_analysis/*'
  find "$REPO_ROOT/examples" -name '*.cpp'
}

# Compiler discovery happens up front (not between phases) so every
# SKIP/WARN annotation in the summary can name the toolchain it is a
# statement about. CLANG_MAJOR gates the Clang>=20-only function-effect
# phase; CLANG_DESC is the human-readable form the summary prints.
CLANGXX="${CLANGXX:-$(find_tool clang++ || true)}"
CLANG_MAJOR=0
CLANG_DESC="not found"
if [[ -n "$CLANGXX" ]]; then
  CLANG_VERSION="$("$CLANGXX" -dumpversion 2>/dev/null || echo unknown)"
  CLANG_MAJOR="${CLANG_VERSION%%.*}"
  [[ "$CLANG_MAJOR" =~ ^[0-9]+$ ]] || CLANG_MAJOR=0
  CLANG_DESC="$CLANG_VERSION at $CLANGXX"
fi

# ---------------------------------------------------------------------------
# Phase driver: each phase is a function returning 0 (pass), 77 (skip),
# 78 (warn) or anything else (fail). Output is teed to $LOG_DIR/<slug>.log
# and the final summary prints one PASS/SKIP/WARN/FAIL line per phase.
OVERALL=0
SUMMARY=()

run_phase() {
  local num="$1" slug="$2" title="$3" fn="$4"
  local log="$LOG_DIR/$slug.log"
  echo "==> [$num/10] $title"
  "$fn" 2>&1 | tee "$log"
  local rc="${PIPESTATUS[0]}"
  local status
  case "$rc" in
    0)  status=PASS ;;
    77) status=SKIP ;;
    78) status=WARN ;;
    *)  status=FAIL; OVERALL=1 ;;
  esac
  local entry="$status $slug"
  # A skipped phase is a statement about the toolchain — record which
  # clang (if any) was discovered, so "SKIP" can never hide an
  # unexpectedly old compiler from the CI step summary.
  if [[ "$status" == SKIP || "$status" == WARN ]]; then
    entry+=" (clang: ${CLANG_DESC:-not discovered})"
  fi
  SUMMARY+=("$entry")
}

# ---------------------------------------------------------------------------
phase_raw_primitives() {
  # util/mutex.* wraps the one std::mutex / std::condition_variable the
  # codebase is allowed; everything else must use the annotated types so
  # the thread-safety analysis sees every lock.
  local hits
  hits="$(grep -rnE 'std::(mutex|recursive_mutex|shared_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)' \
    "$REPO_ROOT/src" \
    --include='*.h' --include='*.cc' \
    | grep -v 'src/util/mutex\.\(h\|cc\)' || true)"
  if [[ -n "$hits" ]]; then
    echo "error: raw standard-library locking primitives in src/ (use the"
    echo "annotated util::Mutex / util::MutexLock / util::CondVar instead):"
    echo "$hits"
    return 1
  fi
  echo "    OK: no raw locking primitives outside util/mutex.*"
}

phase_raw_assert() {
  # assert() disappears under NDEBUG — the default RelWithDebInfo build —
  # so a raw assert is a contract that silently stops being checked in
  # production. util/check.h is the replacement: AIDA_CHECK stays active
  # in every build type, AIDA_DCHECK is the explicit opt-in for
  # debug-only cost. static_assert is compile-time and remains allowed.
  local hits
  hits="$(grep -rnE '(^|[^_[:alnum:]])assert[[:space:]]*\(' \
    "$REPO_ROOT/src" \
    --include='*.h' --include='*.cc' \
    | grep -v 'static_assert' || true)"
  if [[ -n "$hits" ]]; then
    echo "error: raw assert() in src/ (use AIDA_CHECK / AIDA_DCHECK from"
    echo "util/check.h — assert compiles away under NDEBUG):"
    echo "$hits"
    return 1
  fi
  echo "    OK: no raw assert() outside static_assert"
}

phase_format() {
  local tool
  tool="${CLANG_FORMAT:-$(find_tool clang-format || true)}"
  if [[ -z "$tool" ]]; then
    if [[ "$REQUIRE" == "1" ]]; then
      echo "error: clang-format not found and AIDA_REQUIRE_STATIC_ANALYSIS=1"
      return 1
    fi
    echo "WARNING: clang-format not found; skipping the format check."
    return 77
  fi
  # The enforced scope is the explicit list in format_scope.txt (grown
  # file-by-file as code is brought to .clang-format cleanliness), not a
  # blanket find: enforcing a style on files nobody reformatted yet
  # would turn the gate red without making anything safer.
  local scope_file="$REPO_ROOT/tools/static_analysis/format_scope.txt"
  local files=()
  local line
  while IFS= read -r line; do
    [[ -z "$line" || "$line" == \#* ]] && continue
    if [[ ! -f "$REPO_ROOT/$line" ]]; then
      echo "error: format_scope.txt lists missing file: $line"
      return 1
    fi
    files+=("$REPO_ROOT/$line")
  done <"$scope_file"
  if "$tool" --dry-run -Werror --style=file "${files[@]}"; then
    echo "    OK: ${#files[@]} scoped files are clang-format clean"
    return 0
  fi
  if [[ "$REQUIRE" == "1" ]]; then
    echo "error: formatting differences in the enforced scope (run"
    echo "clang-format -i on the files above, or see .clang-format)."
    return 1
  fi
  echo "WARNING: formatting differences (warn-only locally; CI enforces)."
  return 78
}

phase_ts_controls() {
  [[ -z "$CLANGXX" ]] && return 77
  local flags=(-std=c++20 -Wthread-safety -Wthread-safety-beta
               -Werror=thread-safety -Werror=thread-safety-beta
               -I"$REPO_ROOT/src")
  "$CLANGXX" "${flags[@]}" -fsyntax-only \
    "$REPO_ROOT/tools/static_analysis/thread_safety_ok.cc" || return 1
  echo "    OK: positive control compiles clean"
  if "$CLANGXX" "${flags[@]}" -fsyntax-only \
    "$REPO_ROOT/tools/static_analysis/thread_safety_compile_fail.cc" \
    2>/dev/null; then
    echo "error: the deliberately-unguarded negative control COMPILED —"
    echo "-Werror=thread-safety is not rejecting unguarded accesses; the"
    echo "gate is broken, refusing to report success."
    return 1
  fi
  echo "    OK: negative control rejected (unguarded access fails the build)"
}

phase_lifetime_controls() {
  [[ -z "$CLANGXX" ]] && return 77
  local flags=(-std=c++20 -Werror=dangling -Werror=dangling-gsl
               -Werror=return-stack-address -I"$REPO_ROOT/src")
  "$CLANGXX" "${flags[@]}" -fsyntax-only \
    "$REPO_ROOT/tools/static_analysis/lifetime_ok.cc" || return 1
  echo "    OK: positive control compiles clean"
  # Each negative control must fail AND fail for the right reason — a
  # rejection caused by an unrelated error would vacuously "pass".
  local tu pattern out
  for tu in lifetime_fail_lifetimebound:dangling \
            lifetime_fail_dangling_gsl:dangling \
            lifetime_fail_return_stack:stack; do
    pattern="${tu##*:}"
    tu="${tu%%:*}"
    if out="$("$CLANGXX" "${flags[@]}" -fsyntax-only \
        "$REPO_ROOT/tools/static_analysis/$tu.cc" 2>&1)"; then
      echo "error: the deliberately-dangling negative control $tu.cc"
      echo "COMPILED — the lifetime diagnostics are not enforcing; the"
      echo "gate is broken, refusing to report success."
      return 1
    fi
    if ! grep -qiE "$pattern" <<<"$out"; then
      echo "error: $tu.cc was rejected, but not by the expected"
      echo "'$pattern' diagnostic family; compiler output was:"
      echo "$out"
      return 1
    fi
    echo "    OK: negative control $tu.cc rejected ($pattern diagnostic)"
  done
}

phase_fe_controls() {
  [[ -z "$CLANGXX" ]] && return 77
  if [[ "$CLANG_MAJOR" -lt 20 ]]; then
    if [[ "$REQUIRE" == "1" ]]; then
      echo "error: the function-effect controls need Clang >= 20"
      echo "([[clang::nonblocking]] verification); found clang $CLANG_DESC"
      echo "and AIDA_REQUIRE_STATIC_ANALYSIS=1."
      return 1
    fi
    echo "WARNING: -Wfunction-effects needs Clang >= 20; found clang"
    echo "$CLANG_DESC — skipping the function-effect controls (the"
    echo "annotations in src/ compile as no-ops on this toolchain)."
    return 78
  fi
  local flags=(-std=c++20 -Wfunction-effects -Werror=function-effects
               -I"$REPO_ROOT/src")
  "$CLANGXX" "${flags[@]}" -fsyntax-only \
    "$REPO_ROOT/tools/static_analysis/function_effects_ok.cc" || return 1
  echo "    OK: positive control (annotations + audited escape) compiles clean"
  # Each negative control must fail AND fail via -Wfunction-effects — a
  # rejection caused by an unrelated error would vacuously "pass".
  local tu out
  for tu in function_effects_fail_blocking function_effects_fail_allocating; do
    if out="$("$CLANGXX" "${flags[@]}" -fsyntax-only \
        "$REPO_ROOT/tools/static_analysis/$tu.cc" 2>&1)"; then
      echo "error: the deliberately-effectful negative control $tu.cc"
      echo "COMPILED — -Werror=function-effects is not enforcing; the"
      echo "gate is broken, refusing to report success."
      return 1
    fi
    if ! grep -q 'function-effects' <<<"$out"; then
      echo "error: $tu.cc was rejected, but not by the function-effects"
      echo "diagnostic; compiler output was:"
      echo "$out"
      return 1
    fi
    echo "    OK: negative control $tu.cc rejected (function-effects)"
  done
}

phase_clang_build() {
  [[ -z "$CLANGXX" ]] && return 77
  # The function-effect verification needs Clang >= 20; on older
  # toolchains the build still proves the thread-safety + lifetime
  # contracts and phase 6 already WARNed about the missing analysis.
  local fe=OFF
  [[ "$CLANG_MAJOR" -ge 20 ]] && fe=ON
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$CLANGXX" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DAIDA_THREAD_SAFETY_ANALYSIS=ON \
    -DAIDA_LIFETIME_ANALYSIS=ON \
    -DAIDA_FUNCTION_EFFECT_ANALYSIS="$fe" || return 1
  # The gate covers shipping code: the src/ libraries plus every tool,
  # bench and example executable. Tests get the annotations' benefit
  # when the full suites build, but the acceptance bar stops here.
  cmake --build "$BUILD_DIR" -j "$JOBS" --target \
    aida_util aida_text aida_nlp aida_kb aida_ingest aida_graph \
    aida_hashing aida_synth aida_core aida_kore aida_ee aida_eval \
    aida_snapshot aida_serve aida_apps \
    aida_cli make_fuzz_seeds \
    quickstart emerging_entities semantic_search entity_relatedness \
    bench_corpus_stats bench_aida_accuracy bench_relatedness_quality \
    bench_kore_ned bench_kore_longtail bench_kore_efficiency \
    bench_confidence bench_ee_discovery bench_ee_pipeline bench_ee_days \
    bench_apps bench_micro bench_ablation \
    || return 1
  if [[ "$fe" == ON ]]; then
    echo "    OK: thread-safety + lifetime + function-effect clean Clang build"
  else
    echo "    OK: thread-safety + lifetime clean Clang build"
    echo "    (function-effect verification off: clang $CLANG_DESC < 20)"
  fi
}

phase_analyzer() {
  [[ -z "$CLANGXX" ]] && return 77
  # Path-sensitive symbolic execution per TU: null derefs, use-after-move
  # along error paths, uninitialized reads, insecure libc calls. Findings
  # are errors (-analyzer-werror), so a regression fails the gate.
  # deadcode.DeadStores is left out deliberately: it fires on defensive
  # clear-after-move writes and finds no memory-safety bugs.
  gate_tus | tr '\n' '\0' \
    | xargs -0 -n 1 -P "$JOBS" "$CLANGXX" --analyze -std=c++20 \
        -I"$REPO_ROOT/src" -o /dev/null \
        -Xclang -analyzer-werror \
        -Xclang -analyzer-checker="core,cplusplus,unix,security.insecureAPI" \
        -Xclang -analyzer-disable-checker -Xclang deadcode.DeadStores \
        -Xclang -analyzer-output=text || return 1
  echo "    OK: static analyzer reported zero findings"
}

phase_clang_tidy() {
  [[ -z "$CLANGXX" ]] && return 77
  local tool
  tool="${CLANG_TIDY:-$(find_tool clang-tidy || true)}"
  if [[ -z "$tool" ]]; then
    if [[ "$REQUIRE" == "1" ]]; then
      echo "error: clang-tidy not found and AIDA_REQUIRE_STATIC_ANALYSIS=1"
      return 1
    fi
    echo "WARNING: clang-tidy not found; skipping the tidy phase."
    return 77
  fi
  # Every gate TU through the curated .clang-tidy; WarningsAsErrors
  # there decides the exit code, so "zero errors" is machine-enforced.
  gate_tus | tr '\n' '\0' \
    | xargs -0 -n 4 -P "$JOBS" "$tool" -p "$BUILD_DIR" --quiet || return 1
  echo "    OK: clang-tidy reported zero errors"
}

phase_clang_query() {
  [[ -z "$CLANGXX" ]] && return 77
  if ! find_tool clang-query >/dev/null && [[ -z "${CLANG_QUERY:-}" ]]; then
    if [[ "$REQUIRE" == "1" ]]; then
      echo "error: clang-query not found and AIDA_REQUIRE_STATIC_ANALYSIS=1"
      return 1
    fi
    echo "WARNING: clang-query not found; skipping the AST lints."
    return 77
  fi
  BUILD_DIR="$BUILD_DIR" JOBS="$JOBS" \
    "$REPO_ROOT/tools/static_analysis/run_clang_query_lints.sh" || return 1
  echo "    OK: clang-query lints reported zero findings"
}

# ---------------------------------------------------------------------------
run_phase 1 raw-primitives "raw-primitive sweep over src/" \
  phase_raw_primitives
run_phase 2 raw-assert "contract-macro sweep over src/ (no raw assert)" \
  phase_raw_assert
run_phase 3 format "clang-format check (enforced scope)" \
  phase_format

if [[ -z "$CLANGXX" ]]; then
  if [[ "$REQUIRE" == "1" ]]; then
    echo "error: clang++ not found and AIDA_REQUIRE_STATIC_ANALYSIS=1" >&2
    OVERALL=2
  else
    echo "WARNING: clang++ not found; SKIPPING the compile-based phases"
    echo "(the source sweeps above still ran). Install clang + clang-tidy"
    echo "+ clang-tools to run the full gate locally; CI runs it"
    echo "unconditionally."
  fi
else
  echo "==> using clang $CLANG_DESC"
fi

run_phase 4 ts-controls "thread-safety smoke controls" \
  phase_ts_controls
run_phase 5 lifetime-controls "lifetime smoke controls" \
  phase_lifetime_controls
run_phase 6 fe-controls "function-effect smoke controls (Clang >= 20)" \
  phase_fe_controls
run_phase 7 clang-build \
  "Clang build: -Werror=thread-safety[-beta] + lifetime + function-effects" \
  phase_clang_build
run_phase 8 analyzer "Clang Static Analyzer (src/ tools/ bench/ examples/)" \
  phase_analyzer
run_phase 9 clang-tidy "clang-tidy (src/ tools/ bench/ examples/)" \
  phase_clang_tidy
run_phase 10 clang-query "clang-query AST lints" \
  phase_clang_query

# ---------------------------------------------------------------------------
echo
echo "Static analysis summary:"
{
  for line in "${SUMMARY[@]}"; do
    echo "  $line"
  done
} | tee "$LOG_DIR/summary.txt"

if [[ "$OVERALL" != 0 ]]; then
  echo "Static analysis gate FAILED."
  exit "$OVERALL"
fi
echo "Static analysis gate passed."
