#!/usr/bin/env bash
# Runs the fixed-seed Smallbank sweep twice -- serial and with a 4-worker
# thread pool -- and diffs the printed result tables. The SweepExecutor
# contract is that worker count never changes results; any diff here is a
# determinism regression and fails tier-1 (wired in as a ctest).
#
# When a second binary (the chaos runner) is passed, the same contract is
# checked for chaos schedules: a seed range is run serially, with 4 workers,
# and a second time with 4 workers, and all three outputs (per-seed verdicts,
# fault/recovery counters, events_executed) must be byte-identical.
#
# Finally, the observability zero-interference contract: one bench point is
# run with and without --trace and the printed simulation-derived scalars
# (commit counts, latency quantiles, event count) are diffed. Tracing must
# never perturb the simulation. The emitted trace file must also be valid
# JSON in Chrome trace-event shape (checked with python3 when available).
set -euo pipefail

BIN=${1:?usage: check_determinism.sh <path-to-xenic_sweep_check> [path-to-chaos_runner]}
CHAOS_BIN=${2:-}

serial=$(mktemp)
parallel=$(mktemp)
trap 'rm -f "$serial" "$parallel"' EXIT

"$BIN" --jobs 1 >"$serial" 2>/dev/null
"$BIN" --jobs 4 >"$parallel" 2>/dev/null

if ! diff -u "$serial" "$parallel"; then
  echo "FAIL: --jobs 1 and --jobs 4 produced different results" >&2
  exit 1
fi
echo "determinism OK: serial and 4-worker sweeps are byte-identical"

if [[ -n "$CHAOS_BIN" ]]; then
  # Exit status is deliberately ignored: what must hold is that the report,
  # PASS or FAIL, is byte-identical across job counts and reruns (seed
  # verdicts themselves are pinned elsewhere, e.g. chaos_seed3_regression).
  "$CHAOS_BIN" --seeds 1-4 --jobs 1 >"$serial" || true
  "$CHAOS_BIN" --seeds 1-4 --jobs 4 >"$parallel" || true
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: chaos --jobs 1 and --jobs 4 produced different results" >&2
    exit 1
  fi
  "$CHAOS_BIN" --seeds 1-4 --jobs 4 >"$serial" || true
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: chaos reruns of the same seeds produced different results" >&2
    exit 1
  fi
  echo "determinism OK: chaos verdicts are byte-identical across jobs and reruns"

  # Typed-drop faults (transport-layer MsgType targeting) must obey the same
  # contract: same seeds + same selector => byte-identical verdicts, for any
  # --jobs value. Also require the fault to actually fire (drops > 0) so a
  # silently dead hook can't pass.
  typed_flags=(--seeds 1-4 --drop-type validate_reply --drop-node 1)
  "$CHAOS_BIN" "${typed_flags[@]}" --jobs 1 >"$serial" || true
  "$CHAOS_BIN" "${typed_flags[@]}" --jobs 4 >"$parallel" || true
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: typed-drop chaos --jobs 1 and --jobs 4 produced different results" >&2
    exit 1
  fi
  if ! grep -q "typed_drop: drops=" "$serial"; then
    echo "FAIL: typed-drop chaos run did not report the typed_drop counter" >&2
    exit 1
  fi
  echo "determinism OK: typed-drop chaos verdicts are byte-identical across jobs"

  # --timeline must be pure bookkeeping: stripping its "timeline " lines
  # from a --timeline run must reproduce the plain run byte-for-byte, and
  # the timeline lines must actually be there (a silently dead flag can't
  # pass).
  "$CHAOS_BIN" --seeds 1-4 --jobs 1 >"$serial" || true
  "$CHAOS_BIN" --seeds 1-4 --jobs 1 --timeline >"$parallel" || true
  if ! grep -q "^timeline win_us=" "$parallel"; then
    echo "FAIL: chaos --timeline produced no timeline lines" >&2
    exit 1
  fi
  if ! diff -u "$serial" <(grep -v "^timeline " "$parallel"); then
    echo "FAIL: chaos --timeline perturbed the verdict output" >&2
    exit 1
  fi
  echo "determinism OK: chaos --timeline is observer-only (verdicts unchanged)"

  # --- Replication matrix: group size never leaks host state ---
  # ReplicationGroup owns LOG fan-out, ack counting, and membership; its
  # replication factor must obey the same determinism contract as every
  # other simulation knob. For each factor, crash-driven recovery and
  # planned lease handoff are exercised separately (they take different
  # promotion paths through repl::Failover) and each must be byte-identical
  # for --jobs 1 vs --jobs 4.
  for repl in 1 2 3; do
    for mode in "--crashes 1 --handoffs 0" "--crashes 0 --handoffs 1"; do
      # shellcheck disable=SC2086
      "$CHAOS_BIN" --seeds 1-2 --replicas "$repl" $mode --jobs 1 >"$serial" || true
      # shellcheck disable=SC2086
      "$CHAOS_BIN" --seeds 1-2 --replicas "$repl" $mode --jobs 4 >"$parallel" || true
      if ! diff -u "$serial" "$parallel"; then
        echo "FAIL: chaos --replicas $repl $mode differs between --jobs 1 and 4" >&2
        exit 1
      fi
    done
  done
  # Quorum-armed stack: sub-group quorum + NIC log applier + replica reads
  # + a planned handoff, all at once. Same byte-identical contract, plus
  # the handoff must actually fire (the Summary line only appears when
  # handoffs are armed, and performed=0 would mean a silently dead path).
  armed=(--seeds 1-2 --replicas 3 --quorum 2 --nic-log-apply --replica-reads
         --crashes 1 --handoffs 1)
  "$CHAOS_BIN" "${armed[@]}" --jobs 1 >"$serial" || true
  "$CHAOS_BIN" "${armed[@]}" --jobs 4 >"$parallel" || true
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: quorum-armed chaos differs between --jobs 1 and 4" >&2
    exit 1
  fi
  if ! grep -q "^handoffs: performed=[1-9]" "$serial"; then
    echo "FAIL: quorum-armed chaos run performed no planned handoffs" >&2
    exit 1
  fi
  echo "determinism OK: replication matrix (factors 1-3, crash+handoff, quorum-armed) is byte-identical"
fi

# --- Tracing on vs off: results must be byte-identical ---
trace_json=$(mktemp --suffix=.trace.json)
trap 'rm -f "$serial" "$parallel" "$trace_json"' EXIT

"$BIN" --point-check >"$serial" 2>/dev/null
"$BIN" --point-check --trace "$trace_json" >"$parallel" 2>/dev/null

if ! diff -u "$serial" "$parallel"; then
  echo "FAIL: tracing perturbed the simulation (point-check output differs)" >&2
  exit 1
fi

if [[ ! -s "$trace_json" ]]; then
  echo "FAIL: --trace produced no trace file" >&2
  exit 1
fi

if command -v python3 >/dev/null 2>&1; then
  python3 - "$trace_json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing or empty"
phases = {e["ph"] for e in events}
assert "X" in phases, "no complete (X) spans in trace"
assert "M" in phases, "no metadata (M) events in trace"
for e in events:
    assert "pid" in e and "tid" in e, "event missing pid/tid"
print(f"trace OK: {len(events)} events, phases {sorted(phases)}")
PY
else
  echo "python3 unavailable; skipped trace JSON validation" >&2
fi

echo "determinism OK: tracing on/off results are byte-identical"

# --- Per-txn critical-path attribution on vs off: same contract ---
# The point-check scalar lines must be byte-identical with --txn-attrib
# attached, and the run must actually print a waterfall per system.
"$BIN" --point-check --txn-attrib >"$parallel" 2>/dev/null

if ! diff -u <(grep "^point-check" "$serial") <(grep "^point-check" "$parallel"); then
  echo "FAIL: --txn-attrib perturbed the simulation (point-check scalars differ)" >&2
  exit 1
fi
waterfalls=$(grep -c "critical-path waterfall" "$parallel" || true)
if [[ "$waterfalls" -lt 2 ]]; then
  echo "FAIL: --txn-attrib printed $waterfalls waterfalls (expected one per system)" >&2
  exit 1
fi
if grep -q "orphan_instants=[1-9]" "$parallel"; then
  echo "FAIL: --txn-attrib found transport instants with no txn id (orphans)" >&2
  exit 1
fi
echo "determinism OK: --txn-attrib is observer-only ($waterfalls waterfalls emitted)"

# --- --trace and --txn-attrib on one run: the tee is observer-only too ---
# The engine's one trace slot holds a tee of both sinks. The combined run
# must exit 0, print the plain run's scalars and the --txn-attrib-only
# run's waterfalls (its whole stdout), and write the --trace-only run's
# trace byte for byte.
combined=$(mktemp)
combined_json=$(mktemp --suffix=.trace.json)
trap 'rm -f "$serial" "$parallel" "$trace_json" "$combined" "$combined_json"' EXIT
"$BIN" --point-check --trace "$combined_json" --txn-attrib >"$combined" 2>/dev/null
if ! diff -u <(grep "^point-check" "$serial") <(grep "^point-check" "$combined"); then
  echo "FAIL: --trace with --txn-attrib perturbed the simulation (point-check scalars differ)" >&2
  exit 1
fi
if ! diff -u "$parallel" "$combined"; then
  echo "FAIL: --trace with --txn-attrib changed the waterfalls of --txn-attrib alone" >&2
  exit 1
fi
if ! cmp "$trace_json" "$combined_json"; then
  echo "FAIL: --trace with --txn-attrib wrote another trace than --trace alone" >&2
  exit 1
fi
echo "determinism OK: --trace and --txn-attrib share one run (scalars, waterfalls, trace)"

# --- Retry-policy matrix: every policy obeys the full contract ---
# For each backoff policy: (a) two identical point-check runs must be
# byte-identical (run-to-run determinism), (b) attaching --txn-attrib must
# not move a single point-check scalar (observer-only tracing under
# retries), and (c) the full sweep with every contention feature armed
# (hot-key fast path + remote parking + adaptive DMA) must be byte-identical
# for --jobs 1 vs --jobs 4.
for policy in uniform expjitter cwnd; do
  policy_flags=(--retry-policy "$policy" --retry-cap 6)

  "$BIN" --point-check "${policy_flags[@]}" >"$serial" 2>/dev/null
  "$BIN" --point-check "${policy_flags[@]}" >"$parallel" 2>/dev/null
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: repeated --retry-policy $policy point-checks differ" >&2
    exit 1
  fi

  "$BIN" --point-check "${policy_flags[@]}" --txn-attrib >"$parallel" 2>/dev/null
  if ! diff -u <(grep "^point-check" "$serial") <(grep "^point-check" "$parallel"); then
    echo "FAIL: --txn-attrib perturbed the simulation under --retry-policy $policy" >&2
    exit 1
  fi

  armed_flags=("${policy_flags[@]}" --hot-key-path --adaptive-dma)
  "$BIN" "${armed_flags[@]}" --jobs 1 >"$serial" 2>/dev/null
  "$BIN" "${armed_flags[@]}" --jobs 4 >"$parallel" 2>/dev/null
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: armed --retry-policy $policy sweep differs between --jobs 1 and 4" >&2
    exit 1
  fi
done
echo "determinism OK: retry-policy matrix (3 policies, plain/attrib/armed) is byte-identical"

# --- Concurrency-control matrix: every policy obeys the full contract ---
# For each CC policy (OCC and the 2PL trio) on the skewed YCSB workload:
# (a) the sweep must be byte-identical for --jobs 1 vs --jobs 4 (wait
# queues, wounds, and epoch fences are all simulation state, never host
# threading state), and (b) attaching --txn-attrib to a point-check must
# not move a single scalar.
for cc in occ nowait waitdie woundwait; do
  cc_flags=(--workload ycsb --cc "$cc")

  "$BIN" "${cc_flags[@]}" --jobs 1 >"$serial" 2>/dev/null
  "$BIN" "${cc_flags[@]}" --jobs 4 >"$parallel" 2>/dev/null
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: --cc $cc ycsb sweep differs between --jobs 1 and 4" >&2
    exit 1
  fi

  "$BIN" --point-check "${cc_flags[@]}" >"$serial" 2>/dev/null
  "$BIN" --point-check "${cc_flags[@]}" --txn-attrib >"$parallel" 2>/dev/null
  if ! diff -u <(grep "^point-check" "$serial") <(grep "^point-check" "$parallel"); then
    echo "FAIL: --txn-attrib perturbed the simulation under --cc $cc" >&2
    exit 1
  fi
done
echo "determinism OK: CC matrix (4 policies, ycsb, plain/attrib) is byte-identical"

# --- Windowed metrics: --metrics / --slo must be observer-only ---
# The metrics registry samples by slicing the measure phase into RunUntil
# calls at window boundaries, which executes the identical event schedule.
# Contract: (a) stripping the "metrics " lines from a --metrics point-check
# reproduces the plain run byte-for-byte (including sim_events), (b) the
# metrics lines are actually there (a silently dead flag can't pass), and
# (c) the same holds for chaos runs with --metrics and --slo ("slo " lines
# strip too).
"$BIN" --point-check >"$serial" 2>/dev/null
"$BIN" --point-check --metrics >"$parallel" 2>/dev/null
if ! grep -q "^metrics " "$parallel"; then
  echo "FAIL: --metrics produced no metrics lines" >&2
  exit 1
fi
if ! diff -u "$serial" <(grep -v "^metrics " "$parallel"); then
  echo "FAIL: --metrics perturbed the simulation (point-check output differs)" >&2
  exit 1
fi
if ! grep -q "^metrics \[[^]]*\] net_conservation_violations" "$parallel"; then
  echo "FAIL: net_conservation_violations gauge missing from --metrics output" >&2
  exit 1
fi
if grep "^metrics \[[^]]*\] net_conservation_violations" "$parallel" | grep -q "[1-9]"; then
  echo "FAIL: per-type message conservation violated under --metrics" >&2
  exit 1
fi
if [[ -n "$CHAOS_BIN" ]]; then
  "$CHAOS_BIN" --seeds 1-2 --jobs 1 >"$serial" || true
  "$CHAOS_BIN" --seeds 1-2 --jobs 1 --metrics --slo "p99<500us,goodput>0.05" \
      >"$parallel" || true
  if ! grep -q "^metrics " "$parallel" || ! grep -q "^slo " "$parallel"; then
    echo "FAIL: chaos --metrics/--slo produced no metrics/slo lines" >&2
    exit 1
  fi
  if ! diff -u "$serial" <(grep -v -e "^metrics " -e "^slo " "$parallel"); then
    echo "FAIL: chaos --metrics/--slo perturbed the verdict output" >&2
    exit 1
  fi
  "$CHAOS_BIN" --seeds 1-2 --jobs 4 --metrics --slo "p99<500us,goodput>0.05" \
      >"$serial" || true
  if ! diff -u "$serial" "$parallel"; then
    echo "FAIL: chaos --metrics/--slo differs between --jobs 1 and 4" >&2
    exit 1
  fi
fi
echo "determinism OK: --metrics/--slo are observer-only (point-check + chaos)"
