// Datastore: one node's shard of the replicated database.
//
// Holds the host-side Robinhood tables (all key-value objects live here, in
// "host DRAM"), the per-table SmartNIC caching indexes (in "NIC DRAM"), and
// the host-memory commit log. The transaction engines operate exclusively
// through this facade; the same instance serves as primary for one shard
// and backup for others (replica sets are decided by the cluster layer).

#ifndef SRC_STORE_DATASTORE_H_
#define SRC_STORE_DATASTORE_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <set>
#include <unordered_set>
#include <utility>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/store/commit_log.h"
#include "src/store/nic_index.h"
#include "src/store/robinhood_table.h"
#include "src/store/types.h"

namespace xenic::store {

struct TableSpec {
  TableId id = 0;
  std::string name;
  size_t capacity_log2 = 16;
  size_t value_size = 64;
  uint16_t max_displacement = 16;  // 0 = unlimited
  uint16_t segment_slots = 8;
};

class Datastore final : public LogApplyTarget {
 public:
  Datastore(const std::vector<TableSpec>& specs, const NicIndex::Options& nic_options,
            size_t log_capacity_records = 1 << 16);

  RobinhoodTable& table(TableId id) { return *tables_.at(id); }
  const RobinhoodTable& table(TableId id) const { return *tables_.at(id); }
  NicIndex& index(TableId id) { return *indexes_.at(id); }
  const NicIndex& index(TableId id) const { return *indexes_.at(id); }
  CommitLog& log() override { return log_; }
  size_t num_tables() const override { return tables_.size(); }

  // Bulk-load helper (database population); keeps NIC hints in sync.
  Status Load(TableId table, Key key, const Value& value, Seq seq = 1);

  // NIC side: append a record to the host log, maintaining the host's
  // pending-write index (the log lives in host memory, so host readers can
  // see committed-but-unapplied writes -- see FreshLookup).
  Result<uint64_t> Append(LogRecord record);

  // Host-local read that observes the freshest committed state: the newest
  // pending log write for the key if one exists, else the table. Local
  // transactions use this so the deferred worker apply can never make them
  // read stale data (which would fail NIC-side validation spuriously).
  std::optional<LookupResult> FreshLookup(TableId table, Key key) const;
  std::optional<Seq> FreshSeq(TableId table, Key key) const;

  size_t pending_writes() const { return pending_.size(); }

  // The log drain's store step (repl::LogDrain). A tombstoned record is
  // dropped, its writes' NIC cache entries unpinned and invalidated.
  // Otherwise each write lands in its table and is acked to the NIC
  // (unpin + refresh the segment's hint, piggybacked on host-to-NIC
  // traffic), and a kLog record is noted applied (NoteLogApplied). Either
  // way the record's writes leave the pending-read index.
  ApplyOutcome ApplyLogRecord(const LogRecord& record, bool stability_gate) override;

  // Recovery/abort: mark `txn`'s log records dead on this node. Existing
  // records stay buffered (the ring's lsn accounting is untouched) but their
  // writes are dropped from the pending index and must not be applied by
  // workers; late-arriving appends for the txn are swallowed. Used when an
  // epoch change aborts a transaction whose LOG records were already (or are
  // still being) replicated -- without this a surviving backup could apply a
  // write that the coordinator aborted.
  void TombstoneTxn(TxnId txn);
  bool IsTombstoned(TxnId txn) const { return tombstoned_.count(txn) > 0; }

  // Durable applied-record index. A worker noting (txn, shard) here records
  // that this node received, acked, and applied that shard's LOG record --
  // evidence that survives ring reclamation (a real log persists an
  // applied-id watermark as checkpoint metadata). Recovery reads it to tell
  // "applied and reclaimed" apart from "never arrived": without it, a
  // committed transaction whose record was reclaimed on every replica of
  // one shard looks incomplete and gets discarded, resurrecting the old
  // version of its writes on the promoted primary (a lost update).
  void NoteLogApplied(TxnId txn, NodeId shard) { applied_log_.emplace(txn, shard); }
  // Shards of `txn` whose records this node applied, in shard order.
  std::vector<NodeId> AppliedShardsOf(TxnId txn) const {
    std::vector<NodeId> out;
    for (auto it = applied_log_.lower_bound({txn, 0});
         it != applied_log_.end() && it->first == txn; ++it) {
      out.push_back(it->second);
    }
    return out;
  }

 private:
  struct PendingWrite {
    uint64_t lsn;
    Seq seq;
    Value value;
    bool is_delete;
  };
  static uint64_t PendingKey(TableId table, Key key) {
    return (static_cast<uint64_t>(table) << 48) ^ key;
  }
  // Remove a record's writes from the pending index.
  void ClearPending(const LogRecord& record);
  // Ack one host-side write to the NIC index: unpin the key and refresh
  // its segment's displacement hint.
  void AckHostApplied(TableId table, Key key);

  std::vector<std::unique_ptr<RobinhoodTable>> tables_;
  std::vector<std::unique_ptr<NicIndex>> indexes_;
  CommitLog log_;
  // (table, key) -> stack of committed-but-unapplied writes, newest last.
  std::unordered_map<uint64_t, std::vector<PendingWrite>> pending_;
  // Transactions whose records must not be applied on this node (epoch
  // aborts). Only ever holds txns aborted across an epoch change, so it
  // stays small.
  std::unordered_set<TxnId> tombstoned_;
  // Applied LOG records, keyed (txn, shard); see NoteLogApplied. Ordered so
  // AppliedShardsOf can range-scan one transaction deterministically.
  std::set<std::pair<TxnId, NodeId>> applied_log_;
};

}  // namespace xenic::store

#endif  // SRC_STORE_DATASTORE_H_
