#!/usr/bin/env bash
# Pins one chaos schedule to its recorded transcript: runs chaos_runner with
# the given flags, demands a PASS verdict (exit 0), and diffs everything the
# run prints (stdout and stderr) against the golden byte for byte -- same
# counters, same recovery split, same event count. tools/CMakeLists.txt
# registers one ctest per golden under tools/golden/ and says what each
# schedule pins.
#
# Usage:
#   check_chaos_golden.sh [--require REGEX] <chaos_runner> <golden-file> [runner-flags...]
#
# --require REGEX also demands a golden line matching REGEX: a property the
# recorded transcript must keep showing (the planned-handoff golden's zero
# availability dip), so a regenerated golden cannot silently drop it.
#
# If a legitimate protocol change shifts a schedule, regenerate its golden
# from the same command line, re-verify the verdict (and any --require
# property), and say why in the change.
set -uo pipefail

usage="usage: check_chaos_golden.sh [--require REGEX] <chaos_runner> <golden-file> [runner-flags...]"
REQUIRE=
if [[ ${1:-} == --require ]]; then
  REQUIRE=${2:?$usage}
  shift 2
fi
BIN=${1:?$usage}
GOLDEN=${2:?$usage}
shift 2

out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$BIN" "$@" >"$out" 2>&1
status=$?

if [[ $status -ne 0 ]]; then
  echo "FAIL: chaos_runner $* exited $status, expected 0 (PASS verdict)" >&2
  cat "$out" >&2
  exit 1
fi

if ! diff -u "$GOLDEN" "$out"; then
  echo "FAIL: chaos_runner $* diverged from $GOLDEN" >&2
  exit 1
fi

if [[ -n $REQUIRE ]] && ! grep -q -- "$REQUIRE" "$GOLDEN"; then
  echo "FAIL: $GOLDEN no longer has a line matching: $REQUIRE" >&2
  exit 1
fi

echo "chaos golden OK: chaos_runner $* reproduced $(basename "$GOLDEN") byte-exactly"
