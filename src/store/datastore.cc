#include "src/store/datastore.h"

#include <algorithm>
#include <cassert>

namespace xenic::store {

Datastore::Datastore(const std::vector<TableSpec>& specs, const NicIndex::Options& nic_options,
                     size_t log_capacity_records)
    : log_(log_capacity_records) {
  tables_.resize(specs.size());
  indexes_.resize(specs.size());
  for (const auto& spec : specs) {
    assert(spec.id < specs.size() && "table ids must be dense 0..n-1");
    RobinhoodTable::Options opts;
    opts.capacity_log2 = spec.capacity_log2;
    opts.value_size = spec.value_size;
    opts.max_displacement = spec.max_displacement;
    opts.segment_slots = spec.segment_slots;
    tables_[spec.id] = std::make_unique<RobinhoodTable>(opts);
    indexes_[spec.id] = std::make_unique<NicIndex>(tables_[spec.id].get(), nic_options);
  }
}

Status Datastore::Load(TableId table, Key key, const Value& value, Seq seq) {
  Status s = tables_.at(table)->Insert(key, value, seq);
  if (!s.ok()) {
    return s;
  }
  auto& t = *tables_[table];
  const size_t seg = t.SegmentOfKey(key);
  indexes_[table]->UpdateHint(seg, t.SegmentMaxDisp(seg), t.SegmentHasOverflow(seg));
  indexes_[table]->AdmitOnLoad(key, value, seq);
  return Status::Ok();
}

Result<uint64_t> Datastore::Append(LogRecord record) {
  if (IsTombstoned(record.txn)) {
    // Late-arriving record for a transaction the epoch change already
    // aborted: acknowledge (the sender's state is gone anyway) but never
    // buffer it where a worker could apply it.
    return Result<uint64_t>(log_.next_lsn());
  }
  // Only COMMIT records make writes visible to host readers at this node:
  // LOG records target the backup tables, which local transactions never
  // read. Index commit-record writes for FreshLookup.
  const bool index_pending = record.type == LogRecordType::kCommit;
  std::vector<LogWrite> writes;
  if (index_pending) {
    writes = record.writes;  // keep a copy; the record moves into the log
  }
  auto result = log_.Append(std::move(record));
  if (!result.ok()) {
    return result;
  }
  if (index_pending) {
    for (auto& w : writes) {
      if (w.table >= tables_.size()) {
        continue;  // workload-managed writes are not host-table state
      }
      pending_[PendingKey(w.table, w.key)].push_back(
          PendingWrite{*result, w.seq, std::move(w.value), w.is_delete});
    }
  }
  return result;
}

std::optional<LookupResult> Datastore::FreshLookup(TableId table, Key key) const {
  auto it = pending_.find(PendingKey(table, key));
  if (it != pending_.end() && !it->second.empty()) {
    const PendingWrite& w = it->second.back();
    if (w.is_delete) {
      return std::nullopt;
    }
    return LookupResult{w.value, w.seq};
  }
  return tables_.at(table)->Lookup(key);
}

std::optional<Seq> Datastore::FreshSeq(TableId table, Key key) const {
  auto it = pending_.find(PendingKey(table, key));
  if (it != pending_.end() && !it->second.empty()) {
    const PendingWrite& w = it->second.back();
    return w.is_delete ? std::optional<Seq>{} : std::optional<Seq>{w.seq};
  }
  return tables_.at(table)->GetSeq(key);
}

void Datastore::ClearPending(const LogRecord& record) {
  for (const auto& w : record.writes) {
    auto it = pending_.find(PendingKey(w.table, w.key));
    if (it == pending_.end()) {
      continue;
    }
    auto& stack = it->second;
    stack.erase(std::remove_if(stack.begin(), stack.end(),
                               [&](const PendingWrite& p) { return p.lsn == record.lsn; }),
                stack.end());
    if (stack.empty()) {
      pending_.erase(it);
    }
  }
}

void Datastore::AckHostApplied(TableId table, Key key) {
  auto& t = *tables_[table];
  const size_t seg = t.SegmentOfKey(key);
  indexes_[table]->OnHostApplied(key, t.SegmentMaxDisp(seg), t.SegmentHasOverflow(seg));
}

ApplyOutcome Datastore::ApplyLogRecord(const LogRecord& record, bool stability_gate) {
  if (IsTombstoned(record.txn)) {
    // Epoch-aborted transaction: drop the record. A commit record pinned
    // its cached objects until host apply, and the cached values were
    // never (and will never be) applied here, so unpin and invalidate.
    for (const auto& w : record.writes) {
      if (w.table < tables_.size()) {
        AckHostApplied(w.table, w.key);
        indexes_[w.table]->Invalidate(w.key);
      }
    }
    ClearPending(record);
    return ApplyOutcome::kDropped;
  }
  if (stability_gate && record.type == LogRecordType::kLog && !log_.IsStable(record.txn)) {
    // Commit point not yet known: the record may belong to a transaction
    // that aborts after replication. Wait for the coordinator's kLogCommit
    // (or a sweep's tombstone) to resolve it.
    return ApplyOutcome::kWait;
  }
  for (const auto& w : record.writes) {
    if (w.table >= tables_.size()) {
      continue;  // workload-managed write: the drain's apply hook takes it
    }
    auto& t = *tables_[w.table];
    if (w.is_delete) {
      t.Erase(w.key);  // NotFound tolerated: replayed record
    } else {
      t.Apply(w.key, w.value, w.seq);
    }
    AckHostApplied(w.table, w.key);
  }
  if (record.type == LogRecordType::kLog) {
    NoteLogApplied(record.txn, record.shard);
  }
  ClearPending(record);
  return ApplyOutcome::kApplied;
}

void Datastore::TombstoneTxn(TxnId txn) {
  if (!tombstoned_.insert(txn).second) {
    return;
  }
  // Drop already-buffered records' writes from the pending-read index so
  // FreshLookup stops serving the aborted values; the records themselves
  // stay in the ring (workers pop-and-skip them, keeping lsn accounting
  // intact).
  for (const auto& rec : log_.Snapshot()) {
    if (rec.txn == txn) {
      ClearPending(rec);
    }
  }
}

}  // namespace xenic::store
