// Transaction protocol types shared by the Xenic engine and the RDMA
// baselines: transaction requests, execution-logic interface, cluster
// layout (partitioning + replication), feature flags, and per-node
// statistics. Message kinds and wire sizes live in src/net/message.h (the
// transport layer's message catalogue).

#ifndef SRC_TXN_TYPES_H_
#define SRC_TXN_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/sim/engine.h"
#include "src/store/commit_log.h"
#include "src/store/types.h"

namespace xenic::txn {

using store::Key;
using store::NodeId;
using store::Seq;
using store::TableId;
using store::TxnId;
using store::Value;

// Host-core costs (ns) that Xenic and the baselines charge alike: starting
// a transaction, touching one local key, and reporting an outcome.
constexpr sim::Tick kHostInitCost = 100;
constexpr sim::Tick kHostKeyCost = 60;
constexpr sim::Tick kHostFinishBase = 80;

struct KeyRef {
  TableId table = 0;
  Key key = 0;
  bool operator==(const KeyRef& o) const { return table == o.table && key == o.key; }
};

struct KeyRefHash {
  size_t operator()(const KeyRef& k) const {
    return static_cast<size_t>(xenic::ScrambleKey(k.key * 0x9e3779b97f4a7c15ull + k.table));
  }
};

// A pooled transaction state's name: its TxnPool slot plus its id. Ids are
// never reused, so once the transaction is released its handles resolve to
// null, even after another transaction has taken the slot.
struct TxnHandle {
  uint32_t slot = 0;
  TxnId txn = store::kNoTxn;
};

struct ReadResult {
  bool found = false;
  Seq seq = 0;
  Value value;
};

struct WriteIntent {
  Value value;
  bool is_delete = false;
};

// One round of application execution logic. The engine fills `reads`
// (aligned with the transaction's read set, including keys added in earlier
// rounds) and the app fills `writes` (aligned with the write set). Adding
// keys triggers another EXECUTE round (multi-shot transactions, paper
// section 4.2 step 3).
struct ExecRound {
  int round = 0;
  const std::vector<KeyRef>* read_keys = nullptr;
  const std::vector<ReadResult>* reads = nullptr;
  const std::vector<KeyRef>* write_keys = nullptr;
  std::vector<WriteIntent>* writes = nullptr;
  std::vector<KeyRef>* add_reads = nullptr;
  std::vector<KeyRef>* add_writes = nullptr;
  bool* abort = nullptr;
};

using ExecuteFn = std::function<void(ExecRound&)>;

struct TxnRequest {
  std::vector<KeyRef> reads;   // read set (may overlap the write set)
  std::vector<KeyRef> writes;  // write set keys; values produced by execute
  ExecuteFn execute;
  sim::Tick exec_cost = 200;     // host-core ns per execution round
  uint32_t external_bytes = 16;  // application state shipped with the txn
  bool allow_ship = true;        // user annotation: may run on NIC / remote NIC
  uint8_t tag = 0;               // workload-defined transaction type

  // Workload-managed local writes (e.g. TPC-C B+tree rows) that must be
  // replicated to the local shard's backups. Fixed at request creation;
  // backup workers apply them through the node's WorkerApplyHook.
  std::vector<store::LogWrite> local_log_writes;
  // Host work performed after commit on the application thread (B+tree
  // manipulation; paper 5.6 notes TPC-C keeps this on the host).
  sim::Tick host_finish_cost = 0;
  std::function<void()> host_finish;

  // Back to a default request, every field reset, with the key sets and
  // log writes emptied but keeping their buffers: a closed-loop context
  // rebuilds its next transaction into the request its last one handed
  // back (Workload::NextTxnInto) without allocating them again.
  void Clear() {
    std::vector<KeyRef> r = std::move(reads);
    std::vector<KeyRef> w = std::move(writes);
    std::vector<store::LogWrite> l = std::move(local_log_writes);
    *this = TxnRequest{};
    r.clear();
    w.clear();
    l.clear();
    reads = std::move(r);
    writes = std::move(w);
    local_log_writes = std::move(l);
  }
};

// Outcome reported to the application.
enum class TxnOutcome : uint8_t {
  kCommitted = 0,
  kAborted,       // lock conflict or validation failure: retry
  kAppAborted,    // execution logic chose to abort: do not retry
};

// Where an abort was detected in the pipeline (for --abort-breakdown).
enum class AbortReason : uint8_t {
  kNone = 0,
  kLockExecute,  // lock denied during a remote EXECUTE/LOCK round
  kLockLocal,    // lock denied on the local-write fast path
  kLockShip,     // lock denied on a shipped-execution hop
  kValidate,     // read-set validation failed
  kGap,          // read/write-gap check failed (key read after lock window)
  kWounded,      // aborted by an older transaction's wound (WOUND_WAIT)
  kEpochFence,   // 2PL txn outlived a membership change; its locks may be gone
  kOther,        // anything else (log rejection, forced abort, ...)
};

// Concurrency-control policy for the Xenic engine (src/txn/cc_policy.h has
// the behavior contract). kOcc is the paper's protocol and the default; the
// 2PL trio locks reads at EXECUTE time and skips validation. Anything other
// than kOcc changes event schedules, so -- like hot_key_fastpath -- the
// non-default values are opt-in to keep goldens byte-identical.
enum class CcPolicyKind : uint8_t {
  kOcc = 0,
  kNoWait,     // 2PL, abort on conflict (never parks)
  kWaitDie,    // 2PL, older requester waits / younger dies
  kWoundWait,  // 2PL, older requester wounds the holder / younger waits
};

// Outcome plus the coordinator's contention hint: the hot-key sketch level
// (0..255) of the most contended key the transaction conflicted on, 0 when
// no signal. Implicitly converts to/from TxnOutcome so callbacks that only
// care about the outcome keep working unchanged.
//
// `request` hands the submitted request back with every outcome, so the
// caller can move from it instead of keeping a copy: an abort's comes back
// unchanged for its retry, and a commit's or an application abort's keeps
// its key sets, scalars and local_log_writes for the caller's next
// transaction to be built into. A commit whose host_finish the coordinator
// runs (after the callback, as deferred host work) comes back without it.
// The request is valid only during the callback.
struct TxnResult {
  TxnOutcome outcome = TxnOutcome::kCommitted;
  uint8_t contention = 0;
  TxnRequest* request = nullptr;

  TxnResult() = default;
  TxnResult(TxnOutcome o) : outcome(o) {}  // NOLINT(google-explicit-constructor)
  TxnResult(TxnOutcome o, uint8_t c) : outcome(o), contention(c) {}
  operator TxnOutcome() const { return outcome; }  // NOLINT
};

using CommitCallback = std::function<void(TxnResult)>;

// Xenic protocol feature flags (Figure 9 ablations). All on by default.
struct XenicFeatures {
  // Combined remote commit operations (lock+read in one EXECUTE, batched
  // VALIDATE) instead of DrTM+H-style one-op-per-request.
  bool smart_remote_ops = true;
  // Ship execution logic from the host to the coordinator-side NIC.
  bool nic_execution = true;
  // Multi-hop OCC: ship eligible transactions to the remote primary NIC
  // and let backups acknowledge directly to the coordinator NIC.
  bool occ_multihop = true;
  // Route single-shard transactions on sketch-flagged hot keys through a
  // serialized per-key queue on the NIC instead of the optimistic race.
  // Off by default: changes event schedules, so the golden chaos
  // transcript and all existing seeds stay byte-identical.
  bool hot_key_fastpath = false;
  // NIC-ARM-hosted continuous backup apply (repl::LogDrain on the NIC
  // cores): replicated LOG records are applied by the NIC ARM cores once
  // their commit point is known (kLogCommit stability gate) instead of by
  // host workers.
  // Off by default: adds kLogCommit traffic and changes event schedules,
  // so the golden chaos transcript and all existing seeds stay identical.
  bool nic_log_apply = false;
  // Serve single-shard read-only transactions from NIC-applied backup
  // state behind a freshness/epoch fence (requires nic_log_apply; see
  // XenicNode::HostReadOnlyPath). Off by default, same reason as above.
  bool replica_reads = false;
  // Concurrency-control policy. kOcc (default) is the unmodified paper
  // pipeline; any 2PL kind disables the shipped/hot-key routes, locks the
  // read set at EXECUTE time, and skips VALIDATE (see cc_policy.h).
  CcPolicyKind cc = CcPolicyKind::kOcc;
};

// Key -> primary node placement. Workloads provide an implementation
// (hash-based for Retwis/Smallbank, warehouse-based for TPC-C).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual NodeId PrimaryOf(TableId table, Key key) const = 0;
};

class HashPartitioner : public Partitioner {
 public:
  explicit HashPartitioner(uint32_t num_nodes) : num_nodes_(num_nodes) {}
  NodeId PrimaryOf(TableId table, Key key) const override {
    return static_cast<NodeId>(xenic::ScrambleKey(key * 0x9e3779b9u + table) % num_nodes_);
  }

 private:
  uint32_t num_nodes_;
};

// Cluster layout: placement plus primary-backup replica chains. With
// replication factor f, shard p is backed up on nodes p+1 .. p+f-1 (mod n).
// `failed` is the membership view: once failure detection evicts a node
// (epoch bump), BackupsOf stops returning it, so commit-time LOG fan-out
// never waits on a dead backup's ack. Until re-replication the affected
// shards simply run at reduced redundancy.
struct ClusterMap {
  uint32_t num_nodes = 1;
  uint32_t replication = 1;  // total copies including the primary
  const Partitioner* partitioner = nullptr;
  std::vector<bool> failed;  // sized lazily by MarkFailed; empty = all live
  // Bumped once per membership change, after recovery rolls the failed
  // node's shards forward. 2PL transactions fence on it at commit time: a
  // lock granted by a node that has since been evicted no longer exists
  // anywhere (the promoted primary rebuilt only swept state), so a txn that
  // started under an older version must abort rather than write unlocked.
  // OCC needs no fence -- VALIDATE re-checks read versions.
  uint64_t version = 0;

  bool IsFailed(NodeId node) const { return node < failed.size() && failed[node]; }
  void MarkFailed(NodeId node) {
    if (failed.size() < num_nodes) {
      failed.resize(num_nodes, false);
    }
    failed[node] = true;
    version++;
  }

  NodeId PrimaryOf(TableId table, Key key) const { return partitioner->PrimaryOf(table, key); }

  // The live backups of one primary, in chain order. A view that walks the
  // chain and skips failed nodes, so building one allocates nothing. It is
  // a view, not a snapshot: a MarkFailed made while it is held shows
  // through.
  class BackupView {
   public:
    class Iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = NodeId;

      Iterator(const ClusterMap* map, NodeId primary, uint32_t i)
          : map_(map), primary_(primary), i_(i) {
        SkipFailed();
      }
      NodeId operator*() const { return (primary_ + i_) % map_->num_nodes; }
      Iterator& operator++() {
        ++i_;
        SkipFailed();
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const Iterator& other) const { return i_ == other.i_; }
      bool operator!=(const Iterator& other) const { return i_ != other.i_; }

     private:
      void SkipFailed() {
        while (i_ < map_->replication && map_->IsFailed(**this)) {
          ++i_;
        }
      }

      const ClusterMap* map_;
      NodeId primary_;
      uint32_t i_;
    };

    BackupView(const ClusterMap* map, NodeId primary) : map_(map), primary_(primary) {}
    Iterator begin() const { return Iterator(map_, primary_, 1); }
    Iterator end() const {
      return Iterator(map_, primary_, std::max<uint32_t>(map_->replication, 1));
    }
    size_t size() const {
      size_t n = 0;
      for (auto it = begin(); it != end(); ++it) {
        n++;
      }
      return n;
    }
    bool empty() const { return begin() == end(); }
    NodeId operator[](size_t n) const {
      auto it = begin();
      for (; n > 0; --n) {
        ++it;
      }
      return *it;
    }

   private:
    const ClusterMap* map_;
    NodeId primary_;
  };

  BackupView BackupsOf(NodeId primary) const { return BackupView(this, primary); }
};

// Summed value payload of a read-result set (wire:: formulas take scalar
// byte counts; these keep the summations next to the types they walk).
inline uint64_t ValueBytes(const std::vector<ReadResult>& reads) {
  uint64_t b = 0;
  for (const auto& r : reads) {
    b += r.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<std::pair<uint32_t, ReadResult>>& reads) {
  uint64_t b = 0;
  for (const auto& [i, r] : reads) {
    (void)i;
    b += r.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<WriteIntent>& writes) {
  uint64_t b = 0;
  for (const auto& w : writes) {
    b += w.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<store::LogWrite>& writes) {
  uint64_t b = 0;
  for (const auto& w : writes) {
    b += w.value.size();
  }
  return b;
}

// Per-node protocol statistics. `by_type` breaks `messages` (and the
// payload bytes behind them) down by net::MsgType; the transport layer
// maintains both together, so sum(by_type.msgs) == messages always
// (pinned by transport_test.cc).
struct TxnStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t app_aborted = 0;
  uint64_t local_fastpath = 0;
  uint64_t shipped_multihop = 0;
  uint64_t remote_rounds = 0;  // network roundtrip-phases executed
  uint64_t messages = 0;
  net::MsgCounters by_type;

  // Abort-reason breakdown (--abort-breakdown). Sums to `aborted`; app
  // aborts are counted separately above.
  uint64_t abort_lock_execute = 0;
  uint64_t abort_lock_local = 0;
  uint64_t abort_lock_ship = 0;
  uint64_t abort_validate = 0;
  uint64_t abort_gap = 0;
  uint64_t abort_wounded = 0;
  uint64_t abort_epoch_fence = 0;
  uint64_t abort_other = 0;

  // 2PL concurrency-control accounting (zero under OCC).
  uint64_t cc_waits = 0;   // lock requests parked in a wait queue
  uint64_t cc_wounds = 0;  // WOUND messages sent to younger lock holders

  // Hot-key fast path accounting.
  uint64_t hot_path = 0;   // committed/aborted txns routed via the hot path
  uint64_t hot_waits = 0;  // times a hot-path txn parked behind the holder
  uint64_t hot_remote_parks = 0;  // remote lock denials parked at the primary

  // Replication subsystem accounting (repl::, zero at default config).
  uint64_t nic_log_applied = 0;      // records applied by the NIC-ARM applier
  uint64_t replica_reads = 0;        // read-only txns served from backup state
  uint64_t replica_read_fallback = 0;  // freshness fence failed -> distributed

  // Tally one reported outcome; a retryable abort also under its reason
  // (kNone counts as other).
  void Count(TxnOutcome outcome, AbortReason reason) {
    if (outcome == TxnOutcome::kCommitted) {
      committed++;
      return;
    }
    if (outcome == TxnOutcome::kAppAborted) {
      app_aborted++;
      return;
    }
    aborted++;
    switch (reason) {
      case AbortReason::kLockExecute:
        abort_lock_execute++;
        break;
      case AbortReason::kLockLocal:
        abort_lock_local++;
        break;
      case AbortReason::kLockShip:
        abort_lock_ship++;
        break;
      case AbortReason::kValidate:
        abort_validate++;
        break;
      case AbortReason::kGap:
        abort_gap++;
        break;
      case AbortReason::kWounded:
        abort_wounded++;
        break;
      case AbortReason::kEpochFence:
        abort_epoch_fence++;
        break;
      default:
        abort_other++;
        break;
    }
  }
  // Adds another node's counters (cluster totals).
  void Merge(const TxnStats& s) {
    committed += s.committed;
    aborted += s.aborted;
    app_aborted += s.app_aborted;
    local_fastpath += s.local_fastpath;
    shipped_multihop += s.shipped_multihop;
    remote_rounds += s.remote_rounds;
    messages += s.messages;
    by_type.Merge(s.by_type);
    abort_lock_execute += s.abort_lock_execute;
    abort_lock_local += s.abort_lock_local;
    abort_lock_ship += s.abort_lock_ship;
    abort_validate += s.abort_validate;
    abort_gap += s.abort_gap;
    abort_wounded += s.abort_wounded;
    abort_epoch_fence += s.abort_epoch_fence;
    abort_other += s.abort_other;
    hot_path += s.hot_path;
    hot_waits += s.hot_waits;
    hot_remote_parks += s.hot_remote_parks;
    cc_waits += s.cc_waits;
    cc_wounds += s.cc_wounds;
    nic_log_applied += s.nic_log_applied;
    replica_reads += s.replica_reads;
    replica_read_fallback += s.replica_read_fallback;
  }
  void Reset() { *this = TxnStats{}; }
};

}  // namespace xenic::txn

#endif  // SRC_TXN_TYPES_H_
