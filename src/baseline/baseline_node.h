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
//
// Allocation: coordinator states live in a txn::TxnPool and are reused, so
// their vectors keep their capacity. A verb's result (a read's object, a
// lock's answer, a validation verdict) is parked in the state's per-key
// scratch at the target and applied by the completion (a key on this node
// runs both steps in one host job); each phase step is a method called
// with the state, and every verb and host closure captures
// only the node, the state's handle and a few indexes, so it stays inline
// in SmallCallback (sim::InlineCallback). LOG and COMMIT write sets,
// unlock key sets and outcome reports are parked in node-owned slot
// tables, the write sets and key sets reused in place; a shard's one LOG
// record serves all of its backups, each append copying it into the
// backup's log. An abort's report hands the request back. What a
// transaction still allocates is its data: the values it writes.

#ifndef SRC_BASELINE_BASELINE_NODE_H_
#define SRC_BASELINE_BASELINE_NODE_H_

#include <vector>

#include "src/baseline/baseline_store.h"
#include "src/net/transport.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/repl/log_drain.h"
#include "src/repl/replication_group.h"
#include "src/sim/resource.h"
#include "src/sim/slot_table.h"
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
  using AbortReason = txn::AbortReason;
  using Handle = txn::TxnHandle;

  // What a verb on one read key found, parked until its completion applies
  // it (aligned with read_keys).
  struct ReadScratch {
    bool found = false;  // EXECUTE: the object exists (FaSST: and is readable)
    bool stale = false;  // VALIDATE: its version moved or a writer holds it
    uint32_t hops_left = 0;  // remote read: bucket READs before the object's
    uint32_t hop_bytes = 0;  // bytes of each of its READs
    store::Seq seq = 0;
    store::TxnId lock = store::kNoTxn;
    store::Value value;
  };
  // One write key's lock: the version it must still have and the answer
  // (aligned with write_keys).
  struct WriteScratch {
    bool has_expected = false;
    bool locked = false;  // FaSST: taken by the shard RPC
    store::Seq expected = 0;
    store::Seq seq = 0;  // the version under the lock
    AbortReason refused = AbortReason::kNone;  // DrTM+H lock RPC
  };
  // Per-transaction coordinator state: the shared transaction core, which
  // write keys this coordinator holds locked, and the verbs' scratch.
  struct TxnState : txn::PooledTxn {
    std::vector<bool> write_locked;  // per write key
    std::vector<ReadScratch> read_scratch;
    std::vector<WriteScratch> write_scratch;
    // FaSST: this round's shard RPCs and the first cause each refused.
    std::vector<txn::ShardGroup> groups;
    std::vector<AbortReason> group_refused;
  };
  // One shard's LOG record writes or COMMIT writes, freed when `refs`
  // closures are done with them (LOG: one per backup; DrTM+R's COMMIT: one
  // per key).
  struct WriteSet {
    std::vector<store::LogWrite> writes;
    uint32_t refs = 0;
  };

  // Each verb on one key is a step at the key's primary, which parks its
  // answer in the state, and a completion step at the coordinator.
  void ExecutePhase(TxnState* st);
  void ReadOneKey(TxnState* st, uint32_t read_idx);
  // One remote READ of a read key: a bucket hop, or the object itself.
  void ReadHop(TxnState* st, uint32_t read_idx);
  void FetchRead(const ChainedStore& table, TxnState* st, uint32_t read_idx);
  void OnReadDone(TxnState* st, uint32_t read_idx);
  void OnExecuteDone(TxnState* st);
  // Lock phase (non-FaSST modes): after execution, lock the write set; the
  // lock operation revalidates the version for keys that were read
  // optimistically (FaRM-style lock-with-version-check).
  void LockPhase(TxnState* st);
  void LockOneKey(TxnState* st, uint32_t write_idx);
  void LockAt(ChainedStore& table, TxnState* st, uint32_t write_idx);
  void OnLockReply(TxnState* st, uint32_t write_idx);
  void FasstExecuteShard(TxnState* st, uint32_t group);
  // The FaSST shard RPC's handler at `target`, and its completion.
  void FasstServeShard(BaselineNode* target, TxnState* st, uint32_t group);
  void OnFasstShardDone(TxnState* st, uint32_t group);
  // Run the round's application logic on the host, then pick the next
  // phase.
  void AfterExecuteRound(TxnState* st);
  void ValidatePhase(TxnState* st);
  // One-sided modes: VALIDATE's check of one read key.
  void CheckAt(const ChainedStore& table, TxnState* st, uint32_t read_idx);
  void OnCheckDone(TxnState* st, uint32_t read_idx);
  // FaSST: VALIDATE's checks of the read keys on `shard` against `at`'s
  // tables, and their verdict.
  void FasstValidateAt(BaselineNode* at, TxnState* st, store::NodeId shard);
  void OnFasstValidateDone(TxnState* st, store::NodeId shard);
  void OnValidateDone(TxnState* st);
  void LogPhase(TxnState* st);
  void OnLogAck(Handle h, store::NodeId backup, store::NodeId shard);
  void CommitPhase(TxnState* st);
  void OnCommitDone(Handle h);
  // Drop one closure's claim on a parked write set.
  void UnrefWriteSet(uint32_t slot);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void EraseState(TxnState* st) { txns_.Release(st); }
  TxnState* FindState(Handle h) { return txns_.Find(h); }

  nicmodel::RdmaNic* nic_;
  sim::Resource* host_cores_;
  BaselineStore* store_;
  const ClusterMap* map_;
  const repl::ReplicationGroup* repl_;
  BaselineMode mode_;
  std::vector<BaselineNode*>* peers_;
  txn::TxnPool<TxnState> txns_;
  // Parked for the closures that deliver them, reused in place: LOG
  // record and COMMIT write sets until every backup appended or the
  // primary applied them, and unlock key sets until released.
  sim::SlotTable<WriteSet> write_sets_;
  sim::SlotTable<std::vector<KeyRef>> unlock_sets_;
  // Outcome reports (ReportAndFinish), parked until the callback's host
  // job runs, so that job captures only a slot.
  sim::SlotTable<txn::TxnCore::Report> reports_;
  // Scratch reused by every call (capacity kept): the shard lists of
  // ValidatePhase, LogPhase, CommitPhase and AbortCleanup.
  std::vector<store::NodeId> validate_shards_;
  std::vector<store::NodeId> log_shards_;
  std::vector<store::NodeId> commit_shards_;
  std::vector<store::NodeId> abort_shards_;
  uint64_t next_txn_seq_ = 1;
  TxnStats stats_;
  net::RdmaTransport transport_;
  repl::LogDrain drain_;
};

}  // namespace xenic::baseline

#endif  // SRC_BASELINE_BASELINE_NODE_H_
