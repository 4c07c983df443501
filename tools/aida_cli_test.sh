#!/usr/bin/env bash
# End-to-end check of aida_cli, registered with ctest as aida_cli_test:
# generate-kb on a small world, inspect it, annotate a generated document
# with each of the four relatedness measures, and the exit codes of bad
# numeric arguments (2, usage) and of unloadable KB files (1, an error
# message): a missing file, and a file in the retired v1 record stream.
#
# Usage: tools/aida_cli_test.sh path/to/aida_cli
set -uo pipefail

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# expect_exit CODE ARGS... runs the CLI with ARGS; stdout goes to
# $WORK/out, stderr to $WORK/err.
expect_exit() {
  local want="$1"
  shift
  "$CLI" "$@" >"$WORK/out" 2>"$WORK/err" </dev/null
  local got=$?
  [[ "$got" == "$want" ]] || fail "aida_cli $* exited $got, want $want"
}

# ---- a small world: generate, inspect --------------------------------
expect_exit 0 generate-kb "$WORK/small.fkb" 300 8 7
expect_exit 0 inspect "$WORK/small.fkb"
grep -q '^entities: *300$' "$WORK/out" || fail "inspect: no 300 entities"

# ---- annotate a generated document with every measure ----------------
expect_exit 0 generate-corpus "$WORK/world.fkb" "$WORK/docs.corpus" 1 7
# The line after the first #TOKENS header holds the document's tokens.
sed -n '/^#TOKENS$/{n;p;q;}' "$WORK/docs.corpus" >"$WORK/doc.txt"
[[ -s "$WORK/doc.txt" ]] || fail "generate-corpus wrote no tokens"
for measure in mw kore kore-lsh-g kore-lsh-f; do
  if ! "$CLI" annotate "$WORK/world.fkb" "$measure" <"$WORK/doc.txt" \
      >"$WORK/out" 2>"$WORK/err"; then
    fail "annotate $measure exited nonzero"
  fi
  # doc0 <TAB> mention <TAB> entity <TAB> score; some mention resolves.
  awk -F'\t' 'NF != 4 || $1 != "doc0" { bad = 1 }
              $3 != "<OOE>" { linked = 1 }
              END { exit (bad || !linked) }' "$WORK/out" ||
    fail "annotate $measure: malformed output or no linked mention"
done

# ---- bad numeric arguments: usage, exit 2, nothing written -----------
for count in abc 0 -3 " 5" 5x 99999999999999999999999; do
  expect_exit 2 generate-kb "$WORK/bad.fkb" "$count"
  expect_exit 2 generate-kb "$WORK/bad.fkb" 300 "$count"
  expect_exit 2 generate-corpus "$WORK/bad.fkb" "$WORK/bad.corpus" "$count"
done
expect_exit 2 generate-kb "$WORK/bad.fkb" 300 8 abc
expect_exit 2 generate-corpus "$WORK/bad.fkb" "$WORK/bad.corpus" 1 -1
[[ ! -e "$WORK/bad.fkb" && ! -e "$WORK/bad.corpus" ]] ||
  fail "a rejected command wrote a file"

# ---- unloadable KB files: exit 1 with an error message ---------------
expect_exit 1 inspect "$WORK/missing.fkb"
grep -q '^error: ' "$WORK/err" || fail "inspect of a missing file: no error"
# The v1 record stream began with the magic 0xA1DA4B42, little-endian.
printf '\102\113\332\241\001\000\000\000' >"$WORK/v1.kb"
head -c 4096 /dev/zero >>"$WORK/v1.kb"
expect_exit 1 inspect "$WORK/v1.kb"
grep -q '^error: .*magic' "$WORK/err" || fail "inspect of a v1 file: no error"

if [[ "$FAILURES" -ne 0 ]]; then
  echo "$FAILURES aida_cli check(s) failed" >&2
  exit 1
fi
echo "aida_cli: all checks passed"
