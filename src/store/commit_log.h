// Host-memory commit log (paper sections 4.1.1 and 4.2, step 5-7).
//
// The server-side NIC appends LOG (backup replication) and COMMIT (primary
// apply) records to a region of host memory reserved for logging; host-side
// Robinhood worker threads poll the log, apply write sets to the tables off
// the critical path, and acknowledge so the NIC can reclaim log space and
// unpin cache entries.
//
// The log is a bounded ring: Append fails with kCapacity when the host has
// fallen behind, which back-pressures the NIC (tested explicitly).

#ifndef SRC_STORE_COMMIT_LOG_H_
#define SRC_STORE_COMMIT_LOG_H_

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
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

struct LogRecord {
  LogRecordType type = LogRecordType::kLog;
  TxnId txn = kNoTxn;
  uint64_t lsn = 0;  // assigned by Append
  // How many distinct written shards the transaction logged to. Recovery
  // uses this to decide global completeness: a transaction is committed iff
  // records for all `total_shards` shards reached every surviving backup.
  // Fits in the 24-byte record header, so ByteSize() is unchanged.
  uint32_t total_shards = 1;
  // Which shard (primary, under the map the coordinator used) this record
  // replicates. Recovery keys its applied-record index by (txn, shard) so
  // an applied-and-reclaimed record still counts as replication evidence.
  // Also header-resident: ByteSize() unchanged.
  NodeId shard = 0;
  std::vector<LogWrite> writes;

  // Serialized size, used for DMA-write cost accounting.
  size_t ByteSize() const {
    size_t n = 24;  // record header
    for (const auto& w : writes) {
      n += 24 + w.value.size();
    }
    return n;
  }
};

class CommitLog {
 public:
  explicit CommitLog(size_t capacity_records = 1 << 16) : capacity_(capacity_records) {}

  // NIC side: append a record via DMA write. kCapacity when the ring is full.
  Result<uint64_t> Append(LogRecord record);

  // Host side: next unapplied record, or nullptr when drained.
  const LogRecord* Peek() const;
  // Host side: mark the head record applied; it remains buffered until Ack.
  void PopApplied();

  // NIC side: reclaim all records with lsn < `upto` (host acked them).
  void Reclaim(uint64_t upto);

  // Recovery: snapshot every unreclaimed record (applied-but-unacked and
  // pending alike) -- the state a recovery scan reads from host memory.
  std::vector<LogRecord> Snapshot() const {
    return std::vector<LogRecord>(records_.begin(), records_.end());
  }

  bool Full() const { return records_.size() >= capacity_; }
  size_t pending() const { return records_.size() - applied_; }
  size_t unreclaimed() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t appended() const { return next_lsn_; }

  // Quorum-applied truncation support (the stability-gated NIC log drain,
  // repl::LogDrain): a replicated kLog record may only be applied -- and
  // thus reclaimed -- once its transaction's commit point is known. The
  // coordinator's kLogCommit notification (or recovery roll-forward) marks
  // it; sweep-aborted transactions are tombstoned at the Datastore level
  // instead.
  void MarkStable(TxnId txn) { stable_.insert(txn); }
  bool IsStable(TxnId txn) const { return stable_.count(txn) > 0; }

 private:
  size_t capacity_;
  std::deque<LogRecord> records_;
  size_t applied_ = 0;  // records at the front that are applied but unacked
  uint64_t next_lsn_ = 0;
  uint64_t base_lsn_ = 0;
  // Transactions whose commit point is known (see MarkStable). Bounded by
  // the transactions of one run; only consulted by the stability-gated NIC
  // drain, so the default host-worker path never reads it.
  std::unordered_set<TxnId> stable_;
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
  virtual ApplyOutcome ApplyLogRecord(const LogRecord& record, bool stability_gate) = 0;

 protected:
  ~LogApplyTarget() = default;
};

}  // namespace xenic::store

#endif  // SRC_STORE_COMMIT_LOG_H_
