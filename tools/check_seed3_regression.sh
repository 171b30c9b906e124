#!/usr/bin/env bash
# Pins the historically failing chaos schedule: `chaos_runner --seed 3` at the
# default epoch. Before the durable applied-record index (Datastore::
# NoteLogApplied) this schedule FAILED with four lost updates -- a crashed
# coordinator's commits whose LOG records had been applied and reclaimed on
# every replica of a shard left no evidence, so recovery discarded them. The
# index closes that gap, and the schedule must now PASS (exit 0) with the
# recorded transcript byte-exactly -- same counters, same roll-forward/discard
# split, same event count. The golden lives in tools/golden/chaos_seed3.txt;
# EXPERIMENTS.md documents the history. If a legitimate protocol change shifts
# the schedule, regenerate the golden (and re-verify the verdict is still
# PASS) rather than deleting this check.
set -uo pipefail

BIN=${1:?usage: check_seed3_regression.sh <path-to-chaos_runner> <golden-file> [extra-flags...]}
GOLDEN=${2:?usage: check_seed3_regression.sh <path-to-chaos_runner> <golden-file> [extra-flags...]}
shift 2
# Any remaining flags pass through to the runner. They must be inert ones
# (such as --jobs): the diff below still demands the exact golden.

out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$BIN" --seed 3 "$@" >"$out" 2>&1
status=$?

if [[ $status -ne 0 ]]; then
  echo "FAIL: chaos_runner --seed 3 exited $status, expected 0 (recovered verdict)" >&2
  exit 1
fi

if ! diff -u "$GOLDEN" "$out"; then
  echo "FAIL: seed-3 output diverged from the recorded recovery transcript" >&2
  exit 1
fi

echo "seed-3 regression OK: recovered verdict reproduced byte-exactly"
