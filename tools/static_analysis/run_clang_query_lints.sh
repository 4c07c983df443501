#!/usr/bin/env bash
# clang-query lint pass over the library sources (phase 9 of
# tools/run_static_analysis.sh; can also be run standalone).
#
# Three AST lints, each a *.query matcher file next to this script:
#   - lint_view_storage.query       view stored where it can outlive its
#                                   snapshot pin (scope: all of src/)
#   - lint_unordered_iteration.query  hash-order iteration in
#                                   determinism-critical code
#                                   (scope: src/core/ + src/graph/)
#   - lint_raw_thread.query         raw std::thread ownership outside the
#                                   sanctioned owner (scope: src/ minus
#                                   src/util/)
#
# Each lint is validated before it is trusted: its *_fail.cc control must
# produce at least one match and its *_ok.cc control must produce none —
# a matcher that stopped matching (or started over-matching) fails the
# gate itself, exactly like the -Werror compile controls.
#
# clang-query reports every match in the AST, including headers pulled in
# from outside the lint's scope, so matches are filtered by path: only
# locations under the lint's scope directories count as findings.
#
# Usage: tools/static_analysis/run_clang_query_lints.sh
#   BUILD_DIR=build-tsa   compile-commands directory (made by the parent
#                         script; required for the src/ pass)
#   CLANG_QUERY=...       override clang-query discovery
#   JOBS=N                parallelism for the src/ pass
set -uo pipefail

SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"
REPO_ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-tsa}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

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

CLANG_QUERY="${CLANG_QUERY:-$(find_tool clang-query || true)}"
if [[ -z "$CLANG_QUERY" ]]; then
  echo "error: clang-query not found (install clang-tools)" >&2
  exit 2
fi
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "error: $BUILD_DIR/compile_commands.json missing — run the parent" >&2
  echo "tools/run_static_analysis.sh (phase 6 configures the build tree)" >&2
  exit 2
fi

CONTROL_FLAGS=(-std=c++20 -I"$REPO_ROOT/src")

# Match locations ("root binds here" notes) under any of the given path
# prefixes, minus any paths listed after a literal "--" separator.
# clang-query match output lines look like:
#   /path/file.cc:12:3: note: "root" binds here
matches_in_scope() {
  local output="$1"
  shift
  local include=() exclude=() seen_sep=0 arg
  for arg in "$@"; do
    if [[ "$arg" == "--" ]]; then
      seen_sep=1
    elif [[ "$seen_sep" == 1 ]]; then
      exclude+=("$arg")
    else
      include+=("$arg")
    fi
  done
  local line path hit
  while IFS= read -r line; do
    case "$line" in
      *'binds here'*) ;;
      *) continue ;;
    esac
    path="${line%%:*}"
    hit=0
    local prefix
    for prefix in "${include[@]}"; do
      [[ "$path" == "$prefix"* ]] && hit=1
    done
    for prefix in "${exclude[@]+"${exclude[@]}"}"; do
      [[ "$path" == "$prefix"* ]] && hit=0
    done
    [[ "$hit" == 1 ]] && printf '%s\n' "$line"
  done <<<"$output"
  return 0
}

# run_lint <name> <query-file> <scope dirs...> [-- <exempt dirs...>]
# Control-validates the matcher, then runs it over every in-scope TU via
# the compile database and fails on any in-scope match.
FAILED=0
run_lint() {
  local name="$1" query="$2"
  shift 2

  # 1. The negative control must match (the lint still detects the bug).
  local fail_out
  fail_out="$("$CLANG_QUERY" -f "$query" \
      "$SCRIPT_DIR/${name}_fail.cc" -- "${CONTROL_FLAGS[@]}" 2>&1)"
  if ! grep -q 'binds here' <<<"$fail_out"; then
    echo "error[$name]: negative control ${name}_fail.cc produced NO"
    echo "matches — the matcher went blind; refusing to trust the lint."
    echo "$fail_out" | tail -5
    FAILED=1
    return
  fi
  # 2. The positive control must not match (the lint is not over-broad).
  local ok_out
  ok_out="$("$CLANG_QUERY" -f "$query" \
      "$SCRIPT_DIR/${name}_ok.cc" -- "${CONTROL_FLAGS[@]}" 2>&1)"
  if grep -q 'binds here' <<<"$ok_out"; then
    echo "error[$name]: positive control ${name}_ok.cc matched — the"
    echo "matcher over-reaches; it would reject sanctioned patterns:"
    grep 'binds here' <<<"$ok_out"
    FAILED=1
    return
  fi
  echo "    controls OK: ${name}_fail.cc matches, ${name}_ok.cc clean"

  # 3. The real pass: every src/ TU through the compile database.
  local tu_out findings
  tu_out="$(find "$REPO_ROOT/src" -name '*.cc' -print0 \
      | xargs -0 -n 8 -P "$JOBS" \
          "$CLANG_QUERY" -f "$query" -p "$BUILD_DIR" 2>/dev/null)"
  findings="$(matches_in_scope "$tu_out" "$@")"
  if [[ -n "$findings" ]]; then
    echo "error[$name]: lint findings (see $query for the rule and the"
    echo "sanctioned alternatives):"
    echo "$findings" | sort -u
    FAILED=1
    return
  fi
  echo "    OK: $name clean over src/"
}

echo "--> lint: view stored beyond its snapshot pin"
run_lint view_storage "$SCRIPT_DIR/lint_view_storage.query" \
  "$REPO_ROOT/src/"

echo "--> lint: hash-order iteration in determinism-critical code"
run_lint unordered_iteration "$SCRIPT_DIR/lint_unordered_iteration.query" \
  "$REPO_ROOT/src/core/" "$REPO_ROOT/src/graph/"

echo "--> lint: raw std::thread ownership outside util/"
run_lint raw_thread "$SCRIPT_DIR/lint_raw_thread.query" \
  "$REPO_ROOT/src/" -- "$REPO_ROOT/src/util/"

exit "$FAILED"
