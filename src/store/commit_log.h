// Host-memory commit log (paper sections 4.1.1 and 4.2, step 5-7).
//
// The server-side NIC appends LOG (backup replication) and COMMIT (primary
// apply) records to a region of host memory reserved for logging; host-side
// Robinhood worker threads poll the log, apply write sets to the tables off
// the critical path, and acknowledge so the NIC can reclaim log space and
// unpin cache entries.
//
// The log is a bounded ring of record headers: Append fails with kCapacity
// when the host has fallen behind, which back-pressures the NIC (tested
// explicitly). Each record's writes lie contiguously in one log-owned write
// store, in append order; the store wraps like the ring, skipping the end
// of its array when a record does not fit there, and grows instead of
// refusing. Both are power-of-two arrays that double when full (the ring up
// to the capacity), so once they have grown to the peak backlog neither
// Append nor Reclaim allocates. Append moves the writes out of the caller's
// vector, which keeps its capacity for the caller's next record.

#ifndef SRC_STORE_COMMIT_LOG_H_
#define SRC_STORE_COMMIT_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/store/txn_marks.h"
#include "src/store/types.h"

namespace xenic::store {

enum class LogRecordType : uint8_t {
  kLog = 0,     // backup replication record
  kCommit = 1,  // primary apply record
};

struct LogWrite {
  TableId table = 0;
  Key key = 0;
  Seq seq = 0;
  Value value;
  bool is_delete = false;
};

// Serialized size of a record with `writes`, used for DMA-write cost
// accounting.
inline size_t LogRecordBytes(std::span<const LogWrite> writes) {
  size_t n = 24;  // record header
  for (const auto& w : writes) {
    n += 24 + w.value.size();
  }
  return n;
}

// A record's header: everything but its writes.
struct LogHeader {
  LogRecordType type = LogRecordType::kLog;
  TxnId txn = kNoTxn;
  uint64_t lsn = 0;  // assigned by Append
  // How many distinct written shards the transaction logged to. Recovery
  // uses this to decide global completeness: a transaction is committed iff
  // records for all `total_shards` shards reached every surviving backup.
  // Fits in the 24-byte record header, so the byte size is unchanged.
  uint32_t total_shards = 1;
  // Which shard (primary, under the map the coordinator used) this record
  // replicates. Recovery keys its applied-record index by (txn, shard) so
  // an applied-and-reclaimed record still counts as replication evidence.
  // Also header-resident: the byte size is unchanged.
  NodeId shard = 0;
};

// A record with a write vector of its own: what a sender builds, and what
// a recovery scan keeps.
struct LogRecord : LogHeader {
  std::vector<LogWrite> writes;

  size_t ByteSize() const { return LogRecordBytes(writes); }
};

// A record where it lies -- its header and a view of its writes. The log
// hands these out; a LogRecord converts to one.
struct LogRecordView : LogHeader {
  std::span<const LogWrite> writes;

  LogRecordView() = default;
  LogRecordView(const LogHeader& header, std::span<const LogWrite> record_writes)
      : LogHeader(header), writes(record_writes) {}
  LogRecordView(const LogRecord& record)  // NOLINT(google-explicit-constructor)
      : LogRecordView(record, record.writes) {}
};

class CommitLog {
 public:
  explicit CommitLog(size_t capacity_records = 1 << 16) : capacity_(capacity_records) {}
  ~CommitLog();
  // Record views point into the write store.
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  // NIC side: append a record via DMA write -- `header`, its lsn assigned
  // here, and the writes moved out of `*writes`, which is left empty with
  // its capacity. kCapacity when the ring is full, leaving `*writes` as it
  // was.
  Result<uint64_t> Append(const LogHeader& header, std::vector<LogWrite>* writes);
  // The same with copies of `writes`.
  Result<uint64_t> AppendCopy(const LogHeader& header, std::span<const LogWrite> writes);

  // Host side: next unapplied record, or nullptr when drained. Valid until
  // the next Append or Reclaim.
  const LogRecordView* Peek() const;
  // Host side: mark the head record applied; it remains buffered until Ack.
  void PopApplied();

  // NIC side: reclaim all records with lsn < `upto` (host acked them),
  // releasing their writes' values.
  void Reclaim(uint64_t upto);

  // Recovery: unreclaimed record `i` (applied-but-unacked and pending
  // alike), oldest first, for i < unreclaimed() -- the state a recovery
  // scan reads from host memory, in place. Valid until the next Append or
  // Reclaim.
  const LogRecordView& Record(size_t i) const { return At(i); }

  bool Full() const { return size_ >= capacity_; }
  size_t pending() const { return size_ - applied_; }
  size_t unreclaimed() const { return size_; }
  size_t capacity() const { return capacity_; }
  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t appended() const { return next_lsn_; }

  // Quorum-applied truncation support (the stability-gated NIC log drain,
  // repl::LogDrain): a replicated kLog record may only be applied -- and
  // thus reclaimed -- once its transaction's commit point is known. The
  // coordinator's kLogCommit notification (or recovery roll-forward) marks
  // it; sweep-aborted transactions are tombstoned at the Datastore level
  // instead.
  void MarkStable(TxnId txn) { stable_.Insert(txn); }
  bool IsStable(TxnId txn) const { return stable_.Contains(txn); }

 private:
  // The record `i` places after the oldest unreclaimed one.
  LogRecordView& At(size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  const LogRecordView& At(size_t i) const { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  // Double the ring (to at least 16 slots, at most capacity_ rounded up to
  // a power of two), moving the records to its front in order.
  void Grow();
  // Put `header` at the ring's tail with `n` write slots of raw storage,
  // which the caller constructs; returns them.
  LogWrite* Push(const LogHeader& header, size_t n);
  // `n` > 0 contiguous write slots at the store's tail: after the newest
  // record's writes, or at the front of the array when the rest of it is
  // too short -- a gap freed with the record.
  LogWrite* PlaceWrites(size_t n);
  // Double the write store until the live writes and `n` more fit, moving
  // the live writes to its front in order.
  void GrowWrites(size_t n);
  // Where a live record's writes lie in the store.
  size_t Offset(const LogRecordView& rec) const {
    return static_cast<size_t>(rec.writes.data() - writes_);
  }

  size_t capacity_;
  std::vector<LogRecordView> ring_;  // a power of two in size, or empty
  size_t head_ = 0;                  // slot of the oldest unreclaimed record
  size_t size_ = 0;                  // unreclaimed records
  size_t applied_ = 0;  // records at the front that are applied but unacked
  uint64_t next_lsn_ = 0;
  // The write store: raw storage for writes_cap_ writes (a power of two, or
  // 0), of which the unreclaimed records' writes are constructed. The live
  // span runs from writes_head_ to writes_tail_, wrapping, and covers
  // writes_used_ slots, skipped gaps included.
  LogWrite* writes_ = nullptr;
  size_t writes_cap_ = 0;
  size_t writes_head_ = 0;
  size_t writes_tail_ = 0;
  size_t writes_used_ = 0;
  // Transactions whose commit point is known (see MarkStable). Grows with
  // the run; only consulted by the stability-gated NIC drain, so the
  // default host-worker path never reads it.
  TxnSet stable_;
};

// What a store's log step did with one record (LogApplyTarget).
enum class ApplyOutcome : uint8_t {
  kApplied,  // the record's table writes are applied
  kDropped,  // tombstoned: consumed without applying
  kWait,     // not applicable yet: an unstable kLog record under the gate
};

// The store side of the commit-log drain (repl::LogDrain): the log it
// drains, and what one record does to the tables. The drain owns the
// rest -- polling, batching, costs, the workload hook for writes to
// tables at or past num_tables(), and popping and reclaiming each record
// the step did not leave waiting.
class LogApplyTarget {
 public:
  virtual CommitLog& log() = 0;
  virtual size_t num_tables() const = 0;
  // Apply `record`'s writes to tables below num_tables(). With
  // `stability_gate` set, a kLog record whose commit point is not yet
  // known (CommitLog::IsStable) is left for a later poll.
  virtual ApplyOutcome ApplyLogRecord(const LogRecordView& record, bool stability_gate) = 0;

 protected:
  ~LogApplyTarget() = default;
};

}  // namespace xenic::store

#endif  // SRC_STORE_COMMIT_LOG_H_
