// Baseline transaction engines over the RDMA NIC model (paper section 5.1):
//
//  * DrTM+H      — hybrid: one-sided READs for execution/validation reads
//                  (with a coordinator-side remote-address cache), RPCs for
//                  locking and commit, one-sided WRITEs for logging.
//  * DrTM+H NC   — DrTM+H without the address cache: execution reads
//                  traverse the chained hash buckets, one roundtrip per
//                  bucket.
//  * FaSST       — two-sided RPCs for every remote operation; lookups and
//                  insertions happen at the RPC handler, and reads+locks
//                  are consolidated into one RPC per shard.
//  * DrTM+R      — one-sided only: ATOMIC CAS locks, READ/WRITE for data
//                  movement, retaining DrTM+H's OCC protocol.
//
// All four share the OCC + primary-backup commit protocol of section 2.2.1
// -- its per-transaction bookkeeping is the transaction core Xenic runs
// too (txn::TxnCore, txn::LogAcks) -- and operate on the ChainedStore (the
// DrTM+H data structure). Execution logic always runs on the host.

#ifndef SRC_BASELINE_BASELINE_NODE_H_
#define SRC_BASELINE_BASELINE_NODE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/baseline/baseline_store.h"
#include "src/net/transport.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/repl/log_drain.h"
#include "src/repl/replication_group.h"
#include "src/sim/resource.h"
#include "src/txn/txn_core.h"
#include "src/txn/types.h"

namespace xenic::baseline {

using txn::ClusterMap;
using txn::CommitCallback;
using txn::KeyRef;
using txn::ReadResult;
using txn::TxnOutcome;
using txn::TxnRequest;
using txn::TxnStats;
using txn::WriteIntent;

enum class BaselineMode {
  kDrtmH = 0,
  kDrtmHNC,
  kFasst,
  kDrtmR,
};

const char* BaselineModeName(BaselineMode mode);

class BaselineNode {
 public:
  BaselineNode(nicmodel::RdmaNic* nic, sim::Resource* host_cores, BaselineStore* store,
               const ClusterMap* map, BaselineMode mode, std::vector<BaselineNode*>* peers,
               const repl::ReplicationGroup* repl);

  // Returns the transaction id assigned to this submission so harnesses
  // can link retries of the same logical transaction in traces.
  store::TxnId Submit(TxnRequest req, CommitCallback done);

  // Host worker threads draining the commit log (repl::LogDrain).
  void StartWorkers(uint32_t count, sim::Tick poll_interval);
  void StopWorkers();
  void set_worker_apply_hook(repl::LogDrain::ApplyHook hook) {
    drain_.set_apply_hook(std::move(hook));
  }

  store::NodeId id() const { return nic_->id(); }
  BaselineStore& store() { return *store_; }
  nicmodel::RdmaNic& nic() { return *nic_; }
  net::RdmaTransport& transport() { return transport_; }
  sim::Resource& host_cores() { return *host_cores_; }
  TxnStats& stats() { return stats_; }
  BaselineMode mode() const { return mode_; }

 private:
  // Per-transaction coordinator state: the shared transaction core plus
  // which write keys this coordinator holds locked.
  struct TxnState : txn::TxnCore {
    std::vector<bool> write_locked;  // per write key
  };
  using StatePtr = std::unique_ptr<TxnState>;

  void ExecutePhase(TxnState* st);
  void ReadOneKey(TxnState* st, uint32_t read_idx, sim::Engine::Callback done);
  // Lock phase (non-FaSST modes): after execution, lock the write set; the
  // lock operation revalidates the version for keys that were read
  // optimistically (FaRM-style lock-with-version-check).
  void LockPhase(TxnState* st);
  void LockOneKey(TxnState* st, uint32_t write_idx, sim::Engine::Callback done);
  void FasstExecuteShard(TxnState* st, const txn::ShardGroup& group,
                         sim::Engine::Callback done);
  // Run the round's application logic on the host, then pick the next
  // phase.
  void AfterExecuteRound(TxnState* st);
  void ValidatePhase(TxnState* st);
  void LogPhase(TxnState* st);
  void OnLogAck(store::TxnId txn, store::NodeId backup, store::NodeId shard);
  void CommitPhase(TxnState* st);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void EraseState(store::TxnId id);
  TxnState* FindState(store::TxnId id);

  nicmodel::RdmaNic* nic_;
  sim::Resource* host_cores_;
  BaselineStore* store_;
  const ClusterMap* map_;
  const repl::ReplicationGroup* repl_;
  BaselineMode mode_;
  std::vector<BaselineNode*>* peers_;
  std::unordered_map<store::TxnId, StatePtr> txns_;
  // Scratch reused by every call (capacity kept): FaSST's shard groups and
  // the shard lists of ValidatePhase, LogPhase and CommitPhase.
  std::vector<txn::ShardGroup> shard_groups_;
  std::vector<store::NodeId> validate_shards_;
  std::vector<store::NodeId> log_shards_;
  std::vector<store::NodeId> commit_shards_;
  uint64_t next_txn_seq_ = 1;
  TxnStats stats_;
  net::RdmaTransport transport_;
  repl::LogDrain drain_;
};

}  // namespace xenic::baseline

#endif  // SRC_BASELINE_BASELINE_NODE_H_
