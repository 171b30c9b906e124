// XenicNode: one server's transaction engine (paper section 4.2).
//
// Each node is simultaneously a transaction coordinator, the primary of one
// shard, and a backup for other shards. The engine is split between the
// host (application threads, Robinhood worker threads) and the SmartNIC
// (coordinator-side transaction state machines, server-side
// EXECUTE / VALIDATE / LOG / COMMIT handlers).
//
// Paths, selected per transaction:
//  * Local fast path (4.2.4): all keys on this shard. Read-only commits on
//    the host with no NIC involvement; read-write executes optimistically
//    on the host and uses the NIC only for locking, replication and commit.
//  * Standard distributed path (4.2): EXECUTE (combined lock+read) ->
//    [execution on coordinator NIC or host] -> VALIDATE -> LOG -> COMMIT.
//  * Multi-hop shipped path (4.2.3): single-round transactions touching at
//    most {local shard, one remote shard} execute at the remote primary
//    NIC; LOG requests fan out from there and backups acknowledge directly
//    to the coordinator NIC, eliminating one message delay.
//  * Locked-local path: all-local write transactions under 2PL, or whose
//    write set hits a hot key under OCC (hot-key fast path), lock their
//    whole key set on the NIC up front and execute under the locks.
//
// Every lock request a node's shard denies may wait in that node's one
// lock-wait queue (txn::KeyWaitQueue) instead of aborting, whichever path
// sent it; the concurrency-control policy and the hot-key sketch decide
// whether it may.
//
// Feature flags (XenicFeatures) gate the smart combined operations, NIC
// execution, and the multi-hop optimization for the Figure 9 ablations.

#ifndef SRC_TXN_XENIC_NODE_H_
#define SRC_TXN_XENIC_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/histogram.h"
#include "src/net/transport.h"
#include "src/nicmodel/smart_nic.h"
#include "src/repl/log_drain.h"
#include "src/repl/replication_group.h"
#include "src/sim/slot_table.h"
#include "src/store/commit_log.h"
#include "src/store/datastore.h"
#include "src/txn/cc_policy.h"
#include "src/txn/hot_key_sketch.h"
#include "src/txn/key_wait_queue.h"
#include "src/txn/txn_core.h"
#include "src/txn/types.h"

namespace xenic::txn {

class XenicNode {
 public:
  // `peers` is the cluster registry, filled by XenicCluster before use.
  // `repl` owns every replication decision (fan-out targets, ack quorums);
  // this node never walks the replica chain itself.
  XenicNode(nicmodel::SmartNic* nic, store::Datastore* ds, const ClusterMap* map,
            const XenicFeatures* features, std::vector<XenicNode*>* peers,
            const repl::ReplicationGroup* repl);

  // Application entry point (called in host context): run one transaction.
  // Returns the transaction's id (0 if the node is crashed and the request
  // was silently dropped) so callers can correlate trace spans -- the
  // closed-loop runner links retry attempts through it.
  TxnId Submit(TxnRequest req, CommitCallback done);

  // Start `count` contexts draining the commit log every `poll_interval`
  // ns (paper step 7): host Robinhood workers, or NIC-ARM appliers under
  // features.nic_log_apply (repl::LogDrain).
  void StartWorkers(uint32_t count, sim::Tick poll_interval);
  void StopWorkers();

  // Workload hook: applies log writes whose table id is outside the
  // Robinhood datastore (workload-managed structures, e.g. TPC-C B+trees
  // replicated to backups). Returns extra host ns to charge.
  void set_worker_apply_hook(repl::LogDrain::ApplyHook hook) {
    drain_.set_apply_hook(std::move(hook));
  }

  // Per-phase latency breakdown for distributed transactions (EXECUTE /
  // VALIDATE / LOG as seen by the coordinator NIC).
  struct PhaseBreakdown {
    Histogram execute;
    Histogram validate;
    Histogram log;
    Histogram total;
  };
  const PhaseBreakdown& phases() const { return phases_; }
  PhaseBreakdown& phases() { return phases_; }

  NodeId id() const { return nic_->id(); }
  store::Datastore& datastore() { return *ds_; }
  nicmodel::SmartNic& nic() { return *nic_; }
  TxnStats& stats() { return stats_; }
  const TxnStats& stats() const { return stats_; }
  // Typed message transport (the only way anything leaves this node).
  // Exposed so the chaos layer can arm typed per-MsgType fault hooks.
  net::Transport& transport() { return transport_; }

  // --- Recovery support (paper 4.2.1) ---
  // Rebuild NIC lock state for in-flight transactions found in the log
  // (called on a backup promoted to primary). Returns keys re-locked.
  size_t RebuildLocksFromLog(const std::vector<store::LogRecord>& unacked);
  // Drop all transaction state (simulates NIC lock-state loss on failure).
  void ClearNicState();

  // Fail-stop this node: no submissions, no served requests, no outbound
  // messages, workers halt. In-flight engine events targeting the node
  // become no-ops. Coordinator state is kept (not freed) so that raw
  // TxnState pointers held by in-flight shipped executions stay valid.
  void Crash();
  bool crashed() const { return crashed_; }

  // Epoch-change sweep surface. A wedged transaction is an unreported
  // in-flight transaction coordinated here that involves `failed` (as
  // primary of a touched key or backup of a written shard) and therefore
  // can never finish on its own. The sweep (recovery.cc) decides per
  // transaction: if its LOG fan-out already reached every *live* backup it
  // is committed (the dead node's acks are synthesized), otherwise it is
  // aborted and tombstoned.
  struct WedgedTxn {
    TxnId id = store::kNoTxn;
    bool logs_sent = false;            // LOG fan-out happened (write set final)
    std::vector<KeyRef> keys;          // read ∪ write set (lock sweep surface)
    // Per written shard, the LOG record the fan-out sent (set iff logs_sent).
    std::vector<std::pair<NodeId, store::LogRecord>> records;
  };
  // `backup_touch` additionally flags transactions whose only involvement
  // with `failed` is a written shard replicated there -- needed for crash
  // sweeps (the dead backup's acks never arrive) but not for planned
  // handoff, where the departing node stays live and keeps acking.
  std::vector<WedgedTxn> WedgedOn(NodeId failed, bool backup_touch = true) const;
  // Whether this coordinator reported `txn` committed to its application.
  // Recovery consults live coordinators before discarding an in-doubt
  // record: a reported commit must always be rolled forward, even when the
  // log-scan evidence is incomplete (records already applied and reclaimed
  // elsewhere leave no trace to enumerate).
  bool HasReportedCommit(TxnId txn) const { return reported_committed_.count(txn) > 0; }
  // Synthesize the LOG acks the failed node will never send. Returns the
  // number synthesized; the transaction commits once (and if) the remaining
  // live acks arrive -- for a sweep-verified-complete transaction they are
  // already in flight.
  size_t ForceCommitWedged(TxnId txn, NodeId failed);
  // Planned failover (repl::PlannedHandoff): the departing primary's lease
  // lands here. State transfer already happened through the replicated
  // log; this just charges the NIC handler for installing the lease.
  void ServeLeaseHandoff(NodeId from);
  // Abort a wedged transaction (caller has already tombstoned its records
  // and released its locks cluster-wide, so the normal release fan-out is
  // suppressed).
  void ForceAbortWedged(TxnId txn);

  // Slots this node holds for work in flight: requests it sent (EXECUTE,
  // VALIDATE, LOG and COMMIT), log appends, and DMA fan-ins. Every request
  // either completes or is dropped with its slot freed, so a quiesced live
  // node holds none (the chaos run audits this).
  struct ParkedSlots {
    size_t requests = 0;
    size_t appends = 0;
    size_t fan_ins = 0;
  };
  ParkedSlots parked_slots() const;
  // Coordinator states alive at this node (finished transactions free
  // theirs).
  size_t live_txns() const { return txns_.size(); }
  // Destroy every continuation parked at this node (the lock-wait queue,
  // appends, fan-ins). Those hold slot handles into other nodes' request tables, so
  // XenicCluster calls this on every node before it destroys any.
  void DropParked();

 private:
  // ---- Per-transaction coordinator state (lives on the coordinator NIC):
  // the shared transaction core plus what only Xenic's paths keep.
  struct TxnState : TxnCore {
    std::vector<NodeId> locked_shards;  // primaries holding our locks
    bool local_locked = false;          // shipped path: local keys locked
    bool lock_all = false;              // shipped path: read keys locked too
    sim::Tick coord_start = 0;          // distributed path: NIC start time
    sim::Tick phase_start = 0;          // current phase start time
    bool logs_sent = false;             // LOG fan-out happened
    uint8_t contention_hint = 0;        // max sketch level across conflicts
    // 2PL (CcPolicyKind != kOcc): read-set keys are locked at EVERY shard
    // that acknowledged EXECUTE, so commit/abort must release them there
    // (under OCC only the local/shipped paths lock reads -- see lock_all).
    bool cc_read_locks = false;
    // ClusterMap::version at submit time. 2PL commits fence on it: if the
    // membership changed while we ran, a lock granted by the evicted node
    // is gone and our "stable by construction" reads are not.
    uint64_t map_version = 0;
    // Locked-local path: under OCC, the sketch-flagged write key this
    // transaction may wait on; while it waits (holding zero locks), its
    // entry in waiters_ (park_id 0 = not parked).
    KeyRef hot_key;
    KeyRef park_key;
    uint64_t park_id = 0;
  };

  // Sentinel sender and shard of the shipped path's EXEC-result completion
  // signal, which the commit point waits for like a LOG ack.
  static constexpr NodeId kShipExecSignal = static_cast<NodeId>(-1);

  // ---- In-flight requests of the four remote rounds (paper 4.2), each
  // parked in a slot owned by the sending node. The slot's handle travels
  // with the message to the server and back, so every delivery, handler
  // step and reply captures only {node, handle} and stays inline in
  // SmallCallback; dropping the handle (a crashed sender or server, a
  // cleared wait queue) frees the slot. A reused slot clears its vectors
  // and keeps their capacity.
  struct ExecRequest {
    TxnId txn = store::kNoTxn;
    NodeId coord = 0;        // where the reply goes
    NodeId shard = 0;        // the serving primary
    bool lock_only = false;  // LockRound's one-key lock request
    std::vector<std::pair<uint32_t, KeyRef>> reads;
    std::vector<std::pair<uint32_t, KeyRef>> writes;
    // Keys the server locks; the coordinator releases them as orphaned if
    // a grant races an abort.
    std::vector<KeyRef> lock_keys;
    // Filled by the server.
    bool ok = false;
    uint8_t contention = 0;            // sketch level of the conflicting key on !ok
    size_t next_read = 0;              // read-loop cursor
    TxnId read_owner = store::kNoTxn;  // lock owner seen by the read in flight
    std::vector<std::pair<uint32_t, ReadResult>> results;
    std::vector<std::pair<uint32_t, Seq>> write_seqs;
  };
  struct ValidateRequest {
    TxnId txn = store::kNoTxn;
    NodeId coord = 0;
    std::vector<std::pair<KeyRef, Seq>> checks;
  };
  struct LogRequest {
    NodeId coord = 0;  // collects the ack (the shipped path's executor sends for it)
    store::LogRecord record;
  };
  struct CommitRequest {
    TxnId txn = store::kNoTxn;
    NodeId coord = 0;
    std::vector<store::LogWrite> writes;
    std::vector<KeyRef> release_keys;
  };
  using ExecSlot = sim::SlotTable<ExecRequest>::Handle;
  using ValidateSlot = sim::SlotTable<ValidateRequest>::Handle;
  using LogSlot = sim::SlotTable<LogRequest>::Handle;
  using CommitSlot = sim::SlotTable<CommitRequest>::Handle;
  // Node-owned parking for AppendWhenSpace and the ChargeDmaReads fan-in.
  struct PendingAppend {
    store::LogRecord record;
    sim::Engine::Callback appended;
  };
  struct DmaFanIn {
    uint32_t remaining = 0;
    sim::Engine::Callback done;
  };

  using StatePtr = std::unique_ptr<TxnState>;

  // ---- Coordinator-side phases.
  void SubmitOnHost(StatePtr st);
  // A read-only transaction whose read set lives on one shard held here,
  // run on the host against the local tables: the local fast path (paper
  // 4.2.4) when `shard` is this node's own, else a replica read. It
  // escalates to the distributed path if execution adds a key off the
  // shard.
  void HostReadOnlyPath(StatePtr st, NodeId shard);
  // Replica read (features.replica_reads): a single-shard read-only
  // transaction whose shard this node backs is served from the local
  // NIC-applied backup tables iff the freshness fence holds at serve time
  // (membership unchanged since submit AND the local log is fully drained,
  // so the tables are a stable prefix of the shard's commit order);
  // otherwise it escalates to the normal distributed path.
  bool ReplicaReadEligible(const TxnState& st, NodeId* shard_out) const;
  void LocalWritePath(StatePtr st);
  // The host-execution loop both local paths share: each round reads the
  // missing values and write seqs fresh from the local tables, then runs
  // the application; it ends when a round adds no keys (kDone), the
  // application aborts (kAppAbort), or a round adds a key off `shard`
  // (kEscalate: nothing was locked, so the caller restarts the transaction
  // on the distributed path).
  enum class HostExec { kDone, kAppAbort, kEscalate };
  HostExec ExecuteOnHost(TxnState* st, NodeId shard);
  void CoordStartOnNic(TxnId id);
  // A local fast-path execution discovered remote keys: restart the
  // transaction through the distributed path.
  void EscalateToDistributed(TxnId txn);
  bool ShipEligible(const TxnState& st, NodeId* remote_out) const;
  void ShippedPath(TxnState* st, NodeId remote);
  void ExecutePhase(TxnState* st);
  // A cleared EXECUTE request slot for `st` at `shard`; SendExecute sends
  // it once its reads and writes are filled in.
  ExecSlot NewExecRequest(const TxnState& st, NodeId shard, bool lock_only);
  void SendExecute(ExecSlot req);
  void OnExecuteResp(ExecSlot req);
  void AfterExecuteRound(TxnState* st);
  // Separate lock round used when smart_remote_ops is disabled (the
  // one-op-per-request ablation baseline): one LOCK request per write key,
  // issued after execution completes, DrTM-style.
  void LockRound(TxnState* st);
  void OnLockResp(ExecSlot req);
  // A lock grant arrived for a transaction that no longer exists (the epoch
  // sweep resolved it while the response was in flight): release the
  // orphaned locks at their shard.
  void ReleaseOrphanedLocks(TxnId txn, NodeId shard, std::vector<KeyRef> keys);
  // Version-gap check for keys both read and written; aborts and returns
  // false on a mismatch.
  bool CheckReadWriteGap(TxnState* st);
  // Run the application's execute logic for the current round on the
  // coordinator NIC (or, without NIC execution, on the host behind two
  // PCIe crossings), then OnExecuteLogicDone picks the next phase.
  void RunExecuteLogic(TxnState* st);
  void ExecuteLogic(TxnId txn);
  void OnExecuteLogicDone(TxnId txn);
  void ValidatePhase(TxnState* st);
  void OnValidateResp(TxnId id, bool ok, uint8_t contention);
  void LogPhase(TxnState* st);
  // The ack `from` sent for `shard`'s LOG record (or the shipped path's
  // EXEC result, kShipExecSignal for both).
  void OnLogAck(TxnId id, NodeId from, NodeId shard);
  void OnShipFailure(TxnId id, uint8_t contention = 0);
  void CommitPhase(TxnState* st);
  void OnCommitAck(TxnId id);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  void EraseState(TxnId id);
  TxnState* FindState(TxnId id);

  // Send `shard`'s LOG record of `st` to each of the shard's live backups,
  // from this node; `coord` built the transaction and collects the acks (it
  // is this node except on the shipped path).
  void SendLogRecords(NodeId coord, const TxnState& st, NodeId shard, uint32_t total_shards);

  // ---- Server-side handlers (invoked on this node by peers' closures).
  void ServeExecute(ExecSlot req);
  // EXECUTE's lock step, re-entered after each park.
  void ExecuteAttempt(ExecSlot req, uint32_t parks);
  // EXECUTE's read loop: one read-set key per step, each charged its DMA
  // reads before the lock-owner check; then the write-set versions.
  void ExecuteReadStep(ExecSlot req);
  void ExecuteReadDone(ExecSlot req);
  void ExecuteFinish(ExecSlot req);
  void ReplyExecute(ExecSlot req);
  void ServeValidate(ValidateSlot req);
  void ServeLog(LogSlot req);
  // Commit-point notification (features.nic_log_apply): stabilizes the
  // transaction's LOG records so the NIC applier may apply and reclaim
  // them. Fire-and-forget; no reply.
  void ServeLogCommit(TxnId txn);
  void ServeCommit(CommitSlot req);
  void ServeRelease(TxnId txn, std::vector<KeyRef> keys);
  void ServeShipExec(TxnId txn, NodeId coord, TxnState* coord_state);

  // Lock all given keys in the NIC index; on conflict release those taken
  // and return false. A conflict is recorded in the hot-key sketch; when
  // `contention`/`conflict` are given they receive the sketch level and the
  // identity of the first key that was denied.
  bool LockAll(TxnId txn, const std::vector<KeyRef>& keys, uint8_t* contention = nullptr,
               KeyRef* conflict = nullptr);
  void UnlockAll(TxnId txn, const std::vector<KeyRef>& keys);
  // Single release point for every node-path unlock: drops the lock, then
  // wakes the key's next waiter (if any).
  void ReleaseOne(TxnId txn, const KeyRef& key);

  // ---- Locked-local path. All-local write transactions skip the
  // optimistic host race when the NIC must lock up front: always under 2PL,
  // and under OCC (XenicFeatures::hot_key_fastpath, p4db-style is_hot
  // routing) when the write set hits a sketch-flagged hot key. The NIC
  // locks read ∪ write, reads and executes under the locks, and reuses
  // LogPhase/CommitPhase -- no validation, hence no redo. A denied lock
  // either aborts or waits in waiters_ holding zero locks: under 2PL as the
  // policy says (CcMayWait), under OCC only on the hot key.
  bool LockedLocalPath(StatePtr& st);  // true = routed (state consumed)
  void LockedLocalAcquire(TxnId txn, uint32_t parks);
  void LockedExecute(TxnState* st);

  // ---- Lock waiting. Every lock request this shard serves waits in one
  // queue, waiters_: locked-local transactions and the lock steps of
  // EXECUTE and shipped executions that coordinators sent here. Under OCC
  // a remote request parks only on a sketch-flagged hot key, at most once
  // and two deep, instead of bouncing an abort-retry cycle through its
  // coordinator; under 2PL the policy decides. Each wait is bounded by a
  // timeout (releases that bypass ReleaseOne, e.g. recovery sweeps, must
  // not strand a waiter), after which the request re-attempts and denies
  // as if it had never waited, so distributed deadlocks still resolve by
  // abort.
  //
  // Whether a denied remote lock request may wait.
  bool MayParkRemote(TxnId txn, const KeyRef& conflict, uint32_t parks);
  // Park `resume` behind `key` (under WOUND_WAIT, wounding a younger holder
  // first) with its timeout; returns the entry id. Under 2PL a holder that
  // already released gets `resume` in a fresh event instead (returns 0).
  // `local` marks a locked-local transaction of this node.
  uint64_t WaitForLock(TxnId txn, const KeyRef& key, bool local, sim::SmallCallback resume);
  // A release of `key`: resume its next waiter in a fresh event. Under 2PL
  // a waiter whose transaction died while parked passes the wake on.
  void WakeNext(const KeyRef& key);

  // ---- Pluggable concurrency control (XenicFeatures::cc; cc_policy.h).
  // True when a 2PL policy is active: read sets lock at EXECUTE time, the
  // VALIDATE phase is skipped, and the shipped/hot-key routes are disabled.
  bool Cc2pl() const { return features_->cc != CcPolicyKind::kOcc; }
  const CcPolicy& cc_policy() const { return CcPolicy::Get(features_->cc); }
  // Policy decision for a denied lock at this shard: false when the policy
  // (or an exhausted park budget) says the requester must abort.
  bool CcMayWait(TxnId txn, const KeyRef& conflict, uint32_t parks) const;
  // Coordinator-side WOUND handler: abort `victim` unless it already
  // passed its commit point (logs sent / outcome reported) or is gone.
  void ServeWound(TxnId victim);

  // Charge `stats` worth of DMA reads, then `done`.
  void ChargeDmaReads(const store::NicIndex::LookupStats& stats, sim::Engine::Callback done);

  // One NIC-index lookup with its DMA cost folded into `agg` (for a later
  // single ChargeDmaReads). `fetch_value` selects the full value read
  // (LookupRemote) over the metadata probe (ReadMetadata).
  std::optional<store::NicIndex::RemoteObject> LookupAccum(const KeyRef& k, bool fetch_value,
                                                           store::NicIndex::LookupStats* agg);

  // Shipped/local execution prologue shared by ShippedPath and
  // ServeShipExec: fetch the values of the read-set indices in `read_idx`
  // and refresh the current seqs of write keys homed on this node, folding
  // all DMA costs into `agg`.
  void ReadLocalSets(TxnState* st, const std::vector<uint32_t>& read_idx,
                     store::NicIndex::LookupStats* agg);

  // Append a record to the host log via DMA write, waiting (back-pressure)
  // while the bounded ring is full; `appended` runs after the DMA lands.
  void AppendWhenSpace(store::LogRecord record, sim::Engine::Callback appended);
  void TryAppend(uint32_t slot);

  // Commit application at the primary NIC for `writes` (cache update, pin,
  // unlock).
  void ApplyCommitAtNic(TxnId txn, const std::vector<store::LogWrite>& writes);

  // NIC-core cost helpers.
  sim::Tick NicOpCost(size_t n_keys) const;
  sim::Tick NicExecCost(sim::Tick host_cost) const;

  // Emit a txn phase span / instant on this node's trace lane when an
  // engine trace sink is attached (pure recording; no simulation effect).
  void TracePhase(const char* name, sim::Tick start, sim::Tick end, TxnId id);
  void TraceInstant(const char* name, TxnId id);

  nicmodel::SmartNic* nic_;
  store::Datastore* ds_;
  const ClusterMap* map_;
  const XenicFeatures* features_;
  std::vector<XenicNode*>* peers_;
  const repl::ReplicationGroup* repl_;
  // Requests this node sent, parked until they complete (declared before
  // every container whose continuations hold handles into them).
  sim::SlotTable<ExecRequest> exec_reqs_;
  sim::SlotTable<ValidateRequest> validate_reqs_;
  sim::SlotTable<LogRequest> log_reqs_;
  sim::SlotTable<CommitRequest> commit_reqs_;
  sim::SlotTable<PendingAppend> appends_;
  sim::SlotTable<DmaFanIn> fan_ins_;
  // Scratch reused by every call (capacity kept): ExecutePhase's shard
  // groups (TxnCore::GroupByShard) and the shard lists of ValidatePhase,
  // LogPhase and CommitPhase. Each is used by one phase only, and no phase
  // reads its list after calling into another.
  std::vector<ShardGroup> shard_groups_;
  std::vector<NodeId> validate_shards_;
  std::vector<NodeId> log_round_shards_;
  std::vector<NodeId> commit_round_shards_;
  // This node's commit-log drain: host Robinhood workers, or NIC-ARM
  // appliers under features.nic_log_apply. Crash() stops it for good.
  repl::LogDrain drain_;
  std::unordered_map<TxnId, StatePtr> txns_;
  // Commit outcomes this coordinator reported (recovery oracle; see
  // HasReportedCommit). Lost with the node on a crash, like any host state.
  std::unordered_set<TxnId> reported_committed_;
  uint64_t next_txn_seq_ = 1;
  TxnStats stats_;
  // Per-shard conflict sketch feeding contention hints and hot-key routing.
  HotKeySketch sketch_;
  // Lock requests waiting at this shard, zero locks held here; each
  // `resume` re-attempts the request's whole lock set. Ranks: under OCC,
  // local transactions before remote requests; under 2PL, CcPriority
  // (oldest first). A 2PL waiter may hold locks at OTHER shards
  // (hold-and-wait is safe: timestamp ordering keeps the global waits-for
  // graph acyclic).
  KeyWaitQueue waiters_;
  net::Transport transport_;
  PhaseBreakdown phases_;
  bool crashed_ = false;
  // Cached trace registration (lazily refreshed when a new sink appears).
  sim::TraceSink* trace_sink_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_XENIC_NODE_H_
