#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the tier-1 test suite plus a few short chaos schedules under it: one on
# Xenic, one on each baseline mode, the lock-wait schedules of each 2PL
# policy and of OCC's hot keys, three failover schedules, one on a tiny
# commit log and two crashes under the NIC log applier; then eight short
# closed-loop xenicsim runs. The chaos harness
# stresses exactly the paths
# sanitizers are good at catching -- crash teardown, log reclamation,
# NIC-index eviction, routing moves -- so seeds run here even though the
# full chaos matrix would be too slow when instrumented.
#
# Usage: tools/run_sanitized_tests.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-asan}

cmake -B "$BUILD_DIR" -S . -DXENIC_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"

export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" -LE chaos

# One instrumented chaos schedule: crash + recovery + storms + wire faults.
# The DrTM+H run puts the baselines' ChainedStore under the sanitizers too;
# the other three modes cover FaSST's shard and validation RPCs, DrTM+R's
# CAS locks and one-sided commit, and DrTM+H NC's bucket-hop reads, each
# parking its results in the pooled transaction state.
"$BUILD_DIR"/tools/chaos_runner --seed 1 --horizon-us 300
"$BUILD_DIR"/tools/chaos_runner --seed 1 --system drtmh --horizon-us 300
for system in fasst drtmr drtmh-nc; do
  "$BUILD_DIR"/tools/chaos_runner --seed 8 --system "$system"
done

# The two wait-schedule goldens' commands: WOUND_WAIT's age-ordered waits
# and wounds, and OCC's hot-key parks with cwnd retries and adaptive DMA.
# Both park waiters and ship executions that outlive their transaction's
# pooled coordinator state. NO_WAIT and WAIT_DIE run the same seed: a 2PL
# transaction's read-lock flag decides which keys its aborts and commits
# release, and each policy reaches those releases by its own conflicts.
"$BUILD_DIR"/tools/chaos_runner --seed 5 --cc woundwait
"$BUILD_DIR"/tools/chaos_runner --seed 5 --cc nowait
"$BUILD_DIR"/tools/chaos_runner --seed 5 --cc waitdie
"$BUILD_DIR"/tools/chaos_runner --seed 6 --retry-policy cwnd --hot-key-path --adaptive-dma

# Planned handoffs under the sanitizers (ctest above skips the chaos label,
# so no handoff schedule runs otherwise): three handoffs with the NIC log
# applier, and a crash after two handoffs. Both died with SIGSEGV when a
# departing node's promotion moved a shard it no longer served.
"$BUILD_DIR"/tools/chaos_runner --seed 30 --crashes 0 --handoffs 3 --nic-log-apply
"$BUILD_DIR"/tools/chaos_runner --seed 342 --crashes 1 --handoffs 2

# Two crashes under WOUND_WAIT: wounds, 2PL wait wakes and two recovery
# sweeps, each resolving coordinator states through their pool handles
# (the second sweep finds a transaction by the LOG ack it awaits).
"$BUILD_DIR"/tools/chaos_runner --seed 661 --cc woundwait --crashes 2

# An 8-record commit log: appends wait for ring space (back-pressure), the
# ring and its write store wrap, and the crash's recovery scan reads a
# wrapped ring in place.
"$BUILD_DIR"/tools/chaos_runner --seed 3 --log-capacity 8

# Two crashes with the NIC log applier: its stability gate holds LOG
# records until a kLogCommit or a recovery marks them stable, and both
# recoveries set stability marks and tombstones and read each backup's
# applied-record evidence (store::TxnSet, store::AppliedIndex).
"$BUILD_DIR"/tools/chaos_runner --seed 3 --nic-log-apply --crashes 2

# The closed-loop runner under the sanitizers: every attempt hands its
# request back, an abort's retry resubmits it and any other outcome's is
# rebuilt into the next transaction, a traced run Discards each aborted
# attempt's id, and both coordinators' outcome reports stay parked until
# their callback runs. YCSB on Xenic with --txn-attrib, and on DrTM+H.
# Then the full TPC-C mix on Xenic: OrderStatus, Delivery and StockLevel
# read the order packs that the coordinators' B+trees and the backups'
# log-apply hooks share. Then Retwis on Xenic, whose 64-byte host table
# slots hold handles to the blocks the NIC caches and log records share,
# applied by the host workers and, with --nic-log-apply, by the NIC cores.
# Then TPC-C new-order at 48 contexts, whose log backlog grows each log's
# write store while records are live in it. Last, two runs whose contexts
# rebuild each transaction into the request the last one handed back, as
# a different type: Smallbank on Xenic, and the full TPC-C mix on FaSST,
# which also takes Delivery's second round through the baseline
# coordinator.
# Output goes to a scratch directory: xenicsim writes its report there.
tools_dir=$(cd "$BUILD_DIR"/tools && pwd)
run_dir=$(mktemp -d)
(cd "$run_dir" &&
  "$tools_dir"/xenicsim --workload ycsb --txn-attrib --measure-us 300 >/dev/null &&
  "$tools_dir"/xenicsim --system drtmh --workload ycsb --measure-us 300 >/dev/null &&
  "$tools_dir"/xenicsim --workload tpcc --measure-us 300 >/dev/null &&
  "$tools_dir"/xenicsim --workload retwis --scale 2000 --measure-us 200 >/dev/null &&
  "$tools_dir"/xenicsim --workload retwis --scale 2000 --measure-us 200 --nic-log-apply \
    >/dev/null &&
  "$tools_dir"/xenicsim --workload tpcc-no --contexts 48 --measure-us 1000 >/dev/null &&
  "$tools_dir"/xenicsim --workload smallbank --measure-us 300 >/dev/null &&
  "$tools_dir"/xenicsim --system fasst --workload tpcc --measure-us 300 >/dev/null)
rm -rf "$run_dir"

echo "sanitized run OK"
