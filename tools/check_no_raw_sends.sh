#!/usr/bin/env bash
# Transport-layer lint (tier-1, wired in as a ctest): every protocol-level
# message send must go through net::Transport / net::RdmaTransport so the
# per-MsgType counters, chaos typed-drop hooks, and trace instants stay
# complete. This fails if a raw send path or hand-rolled wire-size
# arithmetic reappears outside the layers that own them:
#
#  - SendMsg(            the pre-transport XenicNode helper (deleted)
#  - txn::MsgSize / MsgSize::  the old size constants (subsumed by net::wire)
#  - NicSend( / nic_->Read/Write/Rpc/Atomic(   raw NIC verbs; allowed only in
#    src/net (the transport implementation) and src/nicmodel (the model)
set -euo pipefail

ROOT=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$ROOT"

# Protocol + orchestration layers that must never touch the NIC directly.
DIRS=(src/txn src/baseline src/chaos src/harness src/obs src/workload bench)

fail=0

hits=$(grep -rn --exclude=check_no_raw_sends.sh "SendMsg(\|MsgSize::" \
  "${DIRS[@]}" tools tests examples 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  echo "FAIL: raw SendMsg/MsgSize usage (use net::Transport and net::wire):" >&2
  echo "$hits" >&2
  fail=1
fi

# bench_fig2_latency / bench_fig3_batching are NIC-model microbenchmarks
# (no protocol, no transactions) and drive the fabric directly by design.
hits=$(grep -rn \
  --exclude=bench_fig2_latency.cc --exclude=bench_fig3_batching.cc \
  "NicSend(\|nic_->Read(\|nic_->Write(\|nic_->Rpc(\|nic_->Atomic(" \
  "${DIRS[@]}" 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  echo "FAIL: raw NIC verb outside src/net (route it through the transport):" >&2
  echo "$hits" >&2
  fail=1
fi

# Replication fan-out ownership: backup enumeration for LOG fan-out, ack
# counting, and recovery completeness lives in src/repl/ReplicationGroup.
# The protocol layers must route every backup walk through the group
# (repl_->BackupsOf, repl->BackupsOf where the group is passed in as it is
# to txn::LogAcks, or cluster.repl().BackupsOf); a bare map-level
# BackupsOf( in these files means a private copy of the fan-out logic
# crept back in.
hits=$(grep -n "BackupsOf(" \
  src/txn/xenic_node.cc src/baseline/baseline_node.cc src/txn/recovery.cc \
  src/txn/txn_core.cc 2>/dev/null \
  | grep -v "repl_\?->BackupsOf(\|repl()\.BackupsOf(" || true)
if [[ -n "$hits" ]]; then
  echo "FAIL: raw BackupsOf fan-out outside repl::ReplicationGroup:" >&2
  echo "$hits" >&2
  fail=1
fi

# The replication wire messages (LOG stability notifications, lease
# handoff) must stay typed end to end: their wire-size formulas exist only
# in net::wire, and every use outside src/net goes through a transport
# Send with the net::wire helper -- no hand-rolled header arithmetic.
# (transport_test.cc is the spec test for those formulas and is exempt.)
hits=$(grep -rn --exclude=check_no_raw_sends.sh --exclude=transport_test.cc \
  "kHeader\b" "${DIRS[@]}" tools tests examples 2>/dev/null \
  | grep -v "net::wire" || true)
if [[ -n "$hits" ]]; then
  echo "FAIL: raw wire-size arithmetic outside net::wire:" >&2
  echo "$hits" >&2
  fail=1
fi
for msg in log_commit lease_handoff; do
  if ! grep -q "\"$msg\"" src/net/transport.cc; then
    echo "FAIL: MsgType selector \"$msg\" missing from ParseMsgSelector" >&2
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "no-raw-sends OK: all protocol sends go through the typed transport"
