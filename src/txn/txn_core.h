// The transaction core: the per-transaction half of the OCC + primary-backup
// commit protocol (paper section 2.2.1) that every coordinator keeps, over
// whichever data path moves its bytes. XenicNode (SmartNIC) and
// BaselineNode (the RDMA baselines of section 5.1) each derive their
// coordinator state from TxnCore and add only their own fields.
//
//  * TxnCore holds the key sets and their aligned results, the round and
//    the abort state, and the steps both coordinators repeat: init from a
//    request, one application round, grouping keys by shard, the written
//    shards and their log writes, and the host-side outcome report.
//  * LogAcks counts a LOG round's acks against the shard each ack
//    replicates, and says when the commit point is reached.
//  * TxnPool keeps coordinator states for reuse behind TxnHandles (a slot
//    plus the txn id), so a finished state's vectors keep their capacity
//    and a late continuation of a finished transaction finds nothing.

#ifndef SRC_TXN_TXN_CORE_H_
#define SRC_TXN_TXN_CORE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/repl/replication_group.h"
#include "src/sim/resource.h"
#include "src/sim/slot_table.h"
#include "src/txn/types.h"

namespace xenic::txn {

inline bool ContainsKey(const std::vector<KeyRef>& v, const KeyRef& k) {
  return std::find(v.begin(), v.end(), k) != v.end();
}

// Appends `shard` to `shards` unless it is already listed (keeps
// first-seen order).
inline void AddShard(std::vector<NodeId>* shards, NodeId shard) {
  if (std::find(shards->begin(), shards->end(), shard) == shards->end()) {
    shards->push_back(shard);
  }
}

// One LOG round's expected acks, one entry per (sender, shard): the backup
// that holds a shard's record, and that shard. An ack retires only its own
// shard's entry, so a backup of two written shards can never satisfy one
// shard's quorum with the other shard's ack. The commit point is reached
// when every shard has at most `spare` acks outstanding: zero at the
// default wait-for-all quorum, and its live backups minus
// ReplicationGroup::AcksRequired under a quorum.
class LogAcks {
 public:
  // Expect an ack from every live backup of each shard in `shards`.
  // Returns how many acks that adds.
  uint32_t Expect(const repl::ReplicationGroup* repl, const std::vector<NodeId>& shards);
  // Expect one ack the commit point cannot do without: from `sender` for
  // `shard` (a pseudo-shard for a completion signal that is no LOG ack).
  void Expect(NodeId sender, NodeId shard) { waiting_.push_back({sender, shard, 0}); }

  // Retires the ack `sender` sent for `shard`'s record. Returns true iff
  // that ack reached the commit point; the tracker is then cleared, so
  // stragglers are ignored. An ack nothing expects (a straggler, or one an
  // epoch sweep already synthesized) is ignored.
  bool Ack(NodeId sender, NodeId shard);
  // Whether the acks retired so far reach the commit point (a quorum of
  // one needs none).
  bool Met() const;
  // The shard of an ack still expected from `sender`, if any.
  std::optional<NodeId> AwaitedFrom(NodeId sender) const;
  void Clear() { waiting_.clear(); }

 private:
  struct Expected {
    NodeId sender;
    NodeId shard;
    uint32_t spare;  // acks of this shard the commit point can do without
  };
  std::vector<Expected> waiting_;
};

// A transaction's keys at one primary, as indexes into its key sets.
struct ShardGroup {
  NodeId primary = 0;
  std::vector<uint32_t> read_idx;   // indexes into TxnCore::read_keys
  std::vector<uint32_t> write_idx;  // indexes into TxnCore::write_keys
};

struct TxnCore {
  TxnId id = store::kNoTxn;
  TxnRequest req;
  CommitCallback done;  // null once the outcome is reported
  // Current key/read/write views (grow across execution rounds).
  std::vector<KeyRef> read_keys;
  std::vector<KeyRef> write_keys;
  std::vector<ReadResult> reads;    // aligned with read_keys
  std::vector<Seq> write_seqs;      // current seq per write key
  std::vector<WriteIntent> writes;  // aligned with write_keys (after exec)
  int round = 0;
  uint32_t pending = 0;  // outstanding responses in the current phase
  bool abort = false;
  bool app_abort = false;
  AbortReason abort_reason = AbortReason::kNone;  // first abort cause wins
  // First read and write index of the keys the last app round added: the
  // next EXECUTE round fetches (and locks) only those.
  uint32_t new_read_base = 0;
  uint32_t new_write_base = 0;
  // Whether the request carries workload-managed log writes, which
  // replicate with the coordinator's shard. Kept apart from `req` because
  // the commit phase runs after the report has handed the request back.
  bool local_writes = false;
  LogAcks log_acks;

  // Take ownership of a submission; the key sets start as the request's
  // and the abort state and ack tracker start clear (a pooled state
  // arrives as its last transaction left it).
  void Init(TxnId txn, TxnRequest request, CommitCallback callback);
  // Restart from the request's key sets, round 0.
  void ResetKeys();

  // Flags the transaction aborted, naming `reason` unless an earlier cause
  // is already named.
  void Abort(AbortReason reason) {
    abort = true;
    if (abort_reason == AbortReason::kNone) {
      abort_reason = reason;
    }
  }

  // Run round `round` of the application's logic over the current key
  // sets; keys it adds land in `add_reads`/`add_writes`. Returns whether
  // the application aborted.
  bool RunAppRound(int round, std::vector<KeyRef>* add_reads, std::vector<KeyRef>* add_writes);
  // Append added keys to the read and write sets, growing the aligned
  // result vectors with them.
  void AppendKeys(const std::vector<KeyRef>& add_reads, const std::vector<KeyRef>& add_writes);
  // One application round of the EXECUTE pipeline: run round `round`,
  // record an app abort, and append the keys it adds as the next round's
  // (new_read_base/new_write_base).
  void AppRound();
  bool HasNewKeys() const {
    return new_read_base < read_keys.size() || new_write_base < write_keys.size();
  }

  // Group the current round's keys (from the new-key bases) by primary
  // into (*groups)[0, n), in first-seen order, reads before writes;
  // returns n. `groups` is caller scratch whose vectors keep their
  // capacity.
  size_t GroupByShard(const ClusterMap& map, std::vector<ShardGroup>* groups) const;
  // The primaries of the write set in first-write order, plus `coord` when
  // the transaction carries workload-managed log writes (they replicate
  // with the coordinator's shard), into `out` (cleared first).
  void WrittenShards(const ClusterMap& map, NodeId coord, std::vector<NodeId>* out) const;
  // The write set of one shard as log writes with their new seqs, plus the
  // workload-managed writes on the coordinator's shard, into `out`
  // (cleared first).
  void ShardWrites(const ClusterMap& map, NodeId shard, NodeId coord,
                   std::vector<store::LogWrite>* out) const;
  // The read-set keys VALIDATE checks (those not also written; written
  // keys are locked) into `shards` as primaries in first-check order
  // (cleared first). Returns the number of checks.
  uint32_t ValidateShards(const ClusterMap& map, std::vector<NodeId>* shards) const;

  // The application's side of the outcome, taken out of the core once,
  // with the whole request: what the core still needs after the report
  // (the commit phase's key sets and local_writes) it keeps apart from
  // `req`.
  struct Report {
    CommitCallback done;
    // Handed back to the callback through TxnResult::request, whatever the
    // outcome; a commit's host_finish is taken out first (Run).
    TxnRequest request;
    TxnResult result;
    // Reports the report parked in `table`'s `slot`: the callback gets the
    // outcome and the request after kHostFinishBase of host work on
    // `host_cores`, and a commit then runs the request's host_finish, taken
    // out of the request here, as deferred host work, off the latency path.
    // The report stays parked until the callback's job runs, which takes it
    // out of the table.
    static void Run(sim::SlotTable<Report>* table, uint32_t slot, sim::Resource* host_cores);
  };
  Report TakeReport(TxnResult result);
};

// A TxnCore that lives in a TxnPool.
struct PooledTxn : TxnCore {
  uint32_t slot = 0;  // set by the pool
  TxnHandle handle() const { return {slot, id}; }
};

// Coordinator states kept for reuse; State derives from PooledTxn. A
// released state keeps its vectors' capacity for the next transaction, and
// every state keeps its address while the pool lives (a deque), so a
// State* stays valid across Acquires until its transaction is released. A
// continuation that outlives the current event holds the state's handle()
// and resolves it with Find.
template <typename State>
class TxnPool {
 public:
  // A free state as its last transaction left it (id kNoTxn): the caller
  // Init()s it.
  State* Acquire() {
    if (free_.empty()) {
      State& st = states_.emplace_back();
      st.slot = static_cast<uint32_t>(states_.size() - 1);
      return &st;
    }
    State* st = &states_[free_.back()];
    free_.pop_back();
    return st;
  }

  // The state `h` names, or nullptr once its transaction was released.
  State* Find(TxnHandle h) {
    assert(h.slot < states_.size());
    State& st = states_[h.slot];
    return h.txn != store::kNoTxn && st.id == h.txn ? &st : nullptr;
  }

  // Free `st`'s slot; every handle of its transaction now resolves to null.
  void Release(State* st) {
    assert(st->id != store::kNoTxn);
    st->id = store::kNoTxn;
    free_.push_back(st->slot);
  }

  // States acquired and not yet released.
  size_t live() const { return states_.size() - free_.size(); }

  // Calls `fn` on every state that holds a transaction, in slot order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const State& st : states_) {
      if (st.id != store::kNoTxn) {
        fn(st);
      }
    }
  }

 private:
  std::deque<State> states_;
  std::vector<uint32_t> free_;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_TXN_CORE_H_
