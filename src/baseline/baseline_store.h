// Host-resident data store for the RDMA baseline systems (DrTM+H, FaSST,
// DrTM+R): the DrTM+H chained-bucket hash design with per-object version
// counters and lock words in host memory (one-sided ATOMIC-compatible).
//
// Remote access cost depends on the accessing system:
//  * with DrTM+H's coordinator-side address cache, a remote read is a
//    single one-sided READ of the object;
//  * without the cache (NC), the chain is traversed bucket by bucket --
//    PlanLookup reports how many roundtrips and bytes that takes;
//  * FaSST performs the lookup inside an RPC handler on the target host.

#ifndef SRC_BASELINE_BASELINE_STORE_H_
#define SRC_BASELINE_BASELINE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/store/commit_log.h"
#include "src/store/types.h"

namespace xenic::baseline {

using store::Key;
using store::NodeId;
using store::Seq;
using store::TableId;
using store::TxnId;
using store::Value;

class ChainedStore {
 public:
  struct Options {
    size_t capacity_log2 = 16;  // total main slots
    uint32_t bucket_slots = 4;  // B
    size_t value_size = 64;
  };

  explicit ChainedStore(const Options& options);

  struct Object {
    Key key = 0;
    Seq seq = 0;
    TxnId lock_owner = store::kNoTxn;
    Value value;
    bool occupied = false;
  };

  xenic::Status Insert(Key key, const Value& value, Seq seq = 1);
  xenic::Status Apply(Key key, const Value& value, Seq seq);  // upsert
  xenic::Status Erase(Key key);
  const Object* Lookup(Key key) const;
  Object* LookupMutable(Key key);

  // Lock word operations (host-memory CAS semantics; used both by RPC
  // handlers and by one-sided ATOMIC target closures).
  bool TryLock(Key key, TxnId txn);
  void Unlock(Key key, TxnId txn);

  // Remote-read planning for the no-cache configuration: how many chained
  // buckets (roundtrips) a one-sided traversal reads before finding `key`.
  struct LookupPlan {
    uint32_t roundtrips = 1;
    uint64_t bytes = 0;
    bool found = false;
  };
  LookupPlan PlanLookup(Key key) const;

  size_t size() const { return size_; }
  size_t value_size() const { return value_size_; }
  // Wire size of one object (header + value), for one-sided READ sizing.
  uint32_t object_bytes() const { return 24 + static_cast<uint32_t>(value_size_); }

 private:
  struct Bucket {
    std::vector<Object> slots;
    int32_t next = -1;
  };

  size_t HomeBucket(Key key) const { return store::HashKey(key) & mask_; }
  const Bucket* NextBucket(const Bucket& b) const {
    return b.next < 0 ? nullptr : &chain_pool_[static_cast<size_t>(b.next)];
  }

  size_t num_buckets_;
  size_t mask_;
  uint32_t bucket_slots_;
  size_t value_size_;
  std::vector<Bucket> buckets_;
  std::vector<Bucket> chain_pool_;
  size_t size_ = 0;
};

// One node's baseline datastore: tables + host-memory replication log.
class BaselineStore final : public store::LogApplyTarget {
 public:
  struct TableSpec {
    TableId id = 0;
    size_t capacity_log2 = 16;
    size_t value_size = 64;
  };

  BaselineStore(const std::vector<TableSpec>& specs);

  ChainedStore& table(TableId id) { return *tables_.at(id); }
  const ChainedStore& table(TableId id) const { return *tables_.at(id); }
  // Upsert or erase one logged write to a table this store holds.
  void ApplyWrite(const store::LogWrite& w);
  size_t num_tables() const override { return tables_.size(); }
  store::CommitLog& log() override { return log_; }

  // The log drain's store step: upsert or erase each write. Baselines keep
  // no NIC cache, pending-read index or tombstones, and never gate.
  store::ApplyOutcome ApplyLogRecord(const store::LogRecord& record,
                                     bool stability_gate) override;

 private:
  std::vector<std::unique_ptr<ChainedStore>> tables_;
  store::CommitLog log_;
};

}  // namespace xenic::baseline

#endif  // SRC_BASELINE_BASELINE_STORE_H_
