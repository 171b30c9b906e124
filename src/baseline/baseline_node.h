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
// and operate on the ChainedStore (the DrTM+H data structure). Execution
// logic always runs on the host.

#ifndef SRC_BASELINE_BASELINE_NODE_H_
#define SRC_BASELINE_BASELINE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/baseline/baseline_store.h"
#include "src/net/transport.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/repl/log_drain.h"
#include "src/repl/replication_group.h"
#include "src/sim/resource.h"
#include "src/txn/types.h"

namespace xenic::baseline {

using txn::ClusterMap;
using txn::CommitCallback;
using txn::ExecRound;
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
  struct TxnState {
    store::TxnId id = store::kNoTxn;
    TxnRequest req;
    CommitCallback done;
    std::vector<KeyRef> read_keys;
    std::vector<KeyRef> write_keys;
    std::vector<ReadResult> reads;
    std::vector<store::Seq> write_seqs;
    std::vector<WriteIntent> writes;
    std::vector<bool> write_locked;  // per write key
    int round = 0;
    uint32_t pending = 0;
    bool abort = false;
    bool app_abort = false;
    uint32_t exec_read_base = 0;
    uint32_t exec_write_base = 0;
    // Quorum-mode LOG accounting (repl::ReplicationGroup::QuorumArmed).
    // Separate from `pending`, which CommitPhase reuses for its own acks:
    // quorum stragglers must never touch the commit-phase counter.
    std::map<store::NodeId, uint32_t> log_needed;  // shard -> acks still required
    uint32_t log_pending = 0;                      // fan-out sends not yet acked
    bool log_done = false;                         // commit point already fired
  };
  using StatePtr = std::unique_ptr<TxnState>;

  void ExecutePhase(TxnState* st);
  void ReadOneKey(TxnState* st, uint32_t read_idx, sim::Engine::Callback done);
  // Lock phase (non-FaSST modes): after execution, lock the write set; the
  // lock operation revalidates the version for keys that were read
  // optimistically (FaRM-style lock-with-version-check).
  void LockPhase(TxnState* st);
  void LockOneKey(TxnState* st, uint32_t write_idx, sim::Engine::Callback done);
  void FasstExecuteShard(TxnState* st, store::NodeId shard, std::vector<uint32_t> read_idx,
                         std::vector<uint32_t> write_idx, sim::Engine::Callback done);
  void AfterExecuteRound(TxnState* st);
  void RunExecuteLogic(TxnState* st, sim::Engine::Callback next);
  void ValidatePhase(TxnState* st);
  void LogPhase(TxnState* st);
  void CommitPhase(TxnState* st);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void EraseState(store::TxnId id);
  TxnState* FindState(store::TxnId id);
  std::vector<store::LogWrite> ShardWrites(const TxnState& st, store::NodeId shard) const;

  nicmodel::RdmaNic* nic_;
  sim::Resource* host_cores_;
  BaselineStore* store_;
  const ClusterMap* map_;
  const repl::ReplicationGroup* repl_;
  BaselineMode mode_;
  std::vector<BaselineNode*>* peers_;
  std::unordered_map<store::TxnId, StatePtr> txns_;
  uint64_t next_txn_seq_ = 1;
  TxnStats stats_;
  net::RdmaTransport transport_;
  repl::LogDrain drain_;
};

}  // namespace xenic::baseline

#endif  // SRC_BASELINE_BASELINE_NODE_H_
