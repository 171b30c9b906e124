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
#include <optional>
#include <vector>

#include "src/net/transport.h"
#include "src/nicmodel/smart_nic.h"
#include "src/repl/log_drain.h"
#include "src/repl/replication_group.h"
#include "src/sim/slot_table.h"
#include "src/store/commit_log.h"
#include "src/store/datastore.h"
#include "src/store/txn_marks.h"
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

  // Fail-stop this node: no submissions, no served requests, no outbound
  // messages, workers halt. In-flight engine events targeting the node
  // become no-ops. Coordinator states stay in the pool, so the handles that
  // shipped executions in flight hold still resolve.
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
    TxnHandle h;                       // the coordinator state (h.txn is the id)
    bool logs_sent = false;            // LOG fan-out happened (write set final)
    std::vector<KeyRef> keys;          // read ∪ write set (lock sweep surface)
    // Per written shard, the LOG record the fan-out sent (set iff logs_sent).
    std::vector<std::pair<NodeId, store::LogRecord>> records;
  };
  // `backup_touch` additionally flags transactions whose only involvement
  // with `failed` is a written shard replicated there, or a LOG ack still
  // awaited from it after an earlier failover moved the shard -- needed
  // for crash sweeps (the dead backup's acks never arrive) but not for
  // planned handoff, where the departing node stays live and keeps acking.
  // Sorted by txn id.
  std::vector<WedgedTxn> WedgedOn(NodeId failed, bool backup_touch = true) const;
  // Whether this coordinator reported `txn` committed to its application.
  // Recovery consults live coordinators before discarding an in-doubt
  // record: a reported commit must always be rolled forward, even when the
  // log-scan evidence is incomplete (records already applied and reclaimed
  // elsewhere leave no trace to enumerate). False for another node's txn.
  bool HasReportedCommit(TxnId txn) const;
  // Synthesize the LOG acks the failed node will never send. Returns the
  // number synthesized; the transaction commits once (and if) the remaining
  // live acks arrive -- for a sweep-verified-complete transaction they are
  // already in flight.
  size_t ForceCommitWedged(TxnHandle h, NodeId failed);
  // Planned failover (txn::PlannedHandoff): the departing primary's lease
  // lands here. State transfer already happened through the replicated
  // log; this just charges the NIC handler for installing the lease.
  void ServeLeaseHandoff(NodeId from);
  // Abort a wedged transaction (caller has already tombstoned its records
  // and released its locks cluster-wide, so the normal release fan-out is
  // suppressed).
  void ForceAbortWedged(TxnHandle h);

  // Slots this node holds for work in flight: requests it sent (EXECUTE,
  // VALIDATE, LOG, COMMIT and lock releases) and shipped executions it
  // serves, log appends, DMA fan-ins, and outcome reports not yet handed
  // to the application. Every request either completes or is dropped with
  // its slot freed, and a report stays parked only until its callback
  // runs, so a quiesced live node holds none (the chaos run audits this;
  // a report left at quiesce is a lost outcome).
  struct ParkedSlots {
    size_t requests = 0;
    size_t appends = 0;
    size_t fan_ins = 0;
    size_t reports = 0;
  };
  ParkedSlots parked_slots() const;
  // Coordinator states alive at this node (finished transactions free
  // theirs).
  size_t live_txns() const { return pool_.live(); }
  // The handle of `txn`'s coordinator state, from its submission until it
  // finishes, found by walking the pool as a WOUND does (every other
  // continuation holds the handle). A crashed node keeps the states it had
  // in flight.
  std::optional<TxnHandle> HandleOf(TxnId txn) const;
  // Destroy every continuation parked at this node (the lock-wait queue,
  // appends, fan-ins). Those hold slot handles into other nodes' request tables, so
  // XenicCluster calls this on every node before it destroys any.
  void DropParked();

 private:
  // ---- Per-transaction coordinator state (lives on the coordinator NIC):
  // the shared transaction core plus what only Xenic's paths keep. States
  // come from a txn::TxnPool and keep their vectors' capacity.
  struct TxnState : PooledTxn {
    // TxnCore::Init, plus a clean slate for Xenic's fields (a pooled state
    // arrives as its last transaction left it).
    void Init(TxnId txn, TxnRequest request, CommitCallback callback);

    std::vector<NodeId> locked_shards;  // primaries holding our locks
    // The read keys are locked too, not only the write keys: at every shard
    // in locked_shards, and on the shipped path at its executor. Set by
    // 2PL's EXECUTE, the locked-local path and the shipped path; abort and
    // COMMIT release the read keys where it is set.
    bool reads_locked = false;
    sim::Tick coord_start = 0;    // distributed path: NIC start time
    sim::Tick phase_start = 0;    // current phase start time
    bool logs_sent = false;       // LOG fan-out happened
    uint8_t contention_hint = 0;  // max sketch level across conflicts
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
  // and keeps their capacity. A LOG or COMMIT slot rides its record's DMA
  // at the server, and the append moves its writes into the log, so the
  // vector stays with the slot. Each request names its transaction by the
  // coordinator state's handle, which the reply resolves; the server locks
  // and logs under its id, h.txn.
  struct ExecRequest {
    TxnHandle h;
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
    TxnHandle h;
    NodeId coord = 0;
    std::vector<std::pair<KeyRef, Seq>> checks;
  };
  struct LogRequest {
    TxnHandle h;       // record.txn is h.txn
    NodeId coord = 0;  // collects the ack (the shipped path's executor sends for it)
    store::LogRecord record;
  };
  struct CommitRequest {
    TxnHandle h;
    NodeId coord = 0;
    std::vector<store::LogWrite> writes;
    std::vector<KeyRef> release_keys;
  };
  // An abort's (or an orphaned grant's) lock release at one shard.
  struct ReleaseRequest {
    TxnId txn = store::kNoTxn;
    std::vector<KeyRef> keys;
  };
  // A shipped execution (paper 4.2.3) at its executor, parked in a slot
  // the executor owns from ServeShipExec until it replies. Every step first
  // resolves `h` at the coordinator (ShipState).
  struct ShipExecution {
    TxnHandle h;
    NodeId coord = 0;
    std::vector<KeyRef> keys;     // keys homed here, locked together
    std::vector<uint32_t> reads;  // read-set indexes homed here
  };
  using ExecSlot = sim::SlotTable<ExecRequest>::Handle;
  using ValidateSlot = sim::SlotTable<ValidateRequest>::Handle;
  using LogSlot = sim::SlotTable<LogRequest>::Handle;
  using CommitSlot = sim::SlotTable<CommitRequest>::Handle;
  using ReleaseSlot = sim::SlotTable<ReleaseRequest>::Handle;
  using ShipSlot = sim::SlotTable<ShipExecution>::Handle;
  // Node-owned parking for AppendWhenSpace and the ChargeDmaReads fan-in.
  struct PendingAppend {
    uint32_t bytes = 0;  // the record's DMA write
    sim::SmallCallback append;
  };
  struct DmaFanIn {
    uint32_t remaining = 0;
    sim::Engine::Callback done;
  };

  // ---- Coordinator-side phases.
  void SubmitOnHost(TxnState* st);
  // A read-only transaction whose read set lives on one shard held here,
  // run on the host against the local tables: the local fast path (paper
  // 4.2.4) when `shard` is this node's own, else a replica read. It
  // escalates to the distributed path if execution adds a key off the
  // shard.
  void HostReadOnlyPath(TxnState* st, NodeId shard);
  // Replica read (features.replica_reads): a single-shard read-only
  // transaction whose shard this node backs is served from the local
  // NIC-applied backup tables iff the freshness fence holds at serve time
  // (membership unchanged since submit AND the local log is fully drained,
  // so the tables are a stable prefix of the shard's commit order);
  // otherwise it escalates to the normal distributed path.
  bool ReplicaReadEligible(const TxnState& st, NodeId* shard_out) const;
  void LocalWritePath(TxnState* st);
  // The host-execution loop both local paths share: each round reads the
  // missing values and write seqs fresh from the local tables, then runs
  // the application; it ends when a round adds no keys (kDone), the
  // application aborts (kAppAbort), or a round adds a key off `shard`
  // (kEscalate: nothing was locked, so the caller restarts the transaction
  // on the distributed path).
  enum class HostExec { kDone, kAppAbort, kEscalate };
  HostExec ExecuteOnHost(TxnState* st, NodeId shard);
  void CoordStartOnNic(TxnHandle h);
  // A local fast-path execution discovered remote keys: restart the
  // transaction through the distributed path.
  void EscalateToDistributed(TxnHandle h);
  bool ShipEligible(const TxnState& st, NodeId* remote_out) const;
  void ShippedPath(TxnState* st, NodeId remote);
  void ExecutePhase(TxnState* st);
  // A cleared EXECUTE request slot for `st` at `shard`; SendExecute sends
  // it once its reads and writes are filled in.
  ExecSlot NewExecRequest(const TxnState& st, NodeId shard, bool lock_only);
  void SendExecute(ExecSlot req);
  // Every EXECUTE reply, a lock round's included: once the round's last
  // reply is in, an EXECUTE round goes on to AfterExecuteRound and a lock
  // round to validation.
  void OnExecuteResp(ExecSlot req);
  void AfterExecuteRound(TxnState* st);
  // Separate lock round used when smart_remote_ops is disabled (the
  // one-op-per-request ablation baseline): one LOCK request per write key,
  // issued after execution completes, DrTM-style.
  void LockRound(TxnState* st);
  // A lock grant arrived for a transaction that no longer exists (the epoch
  // sweep resolved it while the response was in flight): release the
  // orphaned locks at their shard.
  void ReleaseOrphanedLocks(TxnId txn, NodeId shard, const std::vector<KeyRef>& keys);
  // A cleared release slot for `txn`; SendRelease sends it to `shard` once
  // its keys are filled in.
  ReleaseSlot NewReleaseRequest(TxnId txn);
  void SendRelease(NodeId shard, ReleaseSlot req);
  // Version-gap check for keys both read and written; aborts and returns
  // false on a mismatch.
  bool CheckReadWriteGap(TxnState* st);
  // Run the application's execute logic for the current round on the
  // coordinator NIC (or, without NIC execution, on the host behind two
  // PCIe crossings), then OnExecuteLogicDone picks the next phase.
  void RunExecuteLogic(TxnState* st);
  void ExecuteLogic(TxnHandle h);
  void OnExecuteLogicDone(TxnHandle h);
  void ValidatePhase(TxnState* st);
  void OnValidateResp(TxnHandle h, bool ok, uint8_t contention);
  void LogPhase(TxnState* st);
  // The ack `from` sent for `shard`'s LOG record (or the shipped path's
  // EXEC result, kShipExecSignal for both).
  void OnLogAck(TxnHandle h, NodeId from, NodeId shard);
  void OnShipFailure(TxnHandle h, uint8_t contention = 0);
  void CommitPhase(TxnState* st);
  void OnCommitAck(TxnHandle h);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  // Return a finished transaction's state to the pool.
  void EraseState(TxnState* st) { pool_.Release(st); }
  // The state `h` names: null once its transaction finished.
  TxnState* FindState(TxnHandle h) { return pool_.Find(h); }
  // The state `h` names while it can still make progress here: null once
  // the transaction finished or this node crashed.
  TxnState* Live(TxnHandle h) { return crashed_ ? nullptr : FindState(h); }

  // Send `shard`'s LOG record of `st` to each of the shard's live backups,
  // from this node; `coord` built the transaction and collects the acks (it
  // is this node except on the shipped path).
  void SendLogRecords(NodeId coord, const TxnState& st, NodeId shard, uint32_t total_shards);

  // Send request `slot` to `dst`, whose `Serve` handler takes it on
  // delivery.
  template <auto Serve, typename Slot>
  void SendSlot(net::MsgType type, NodeId dst, uint32_t bytes, Slot slot, TxnId txn);

  // ---- Server-side handlers (invoked on this node by peers' closures).
  // The serve step each of them opens with: a crashed node drops the
  // request; otherwise mark `hop` (if given) on the trace lane, charge the
  // NIC-core serve cost, and run `step` unless the node crashed meanwhile.
  template <typename Step>
  void OnNic(const char* hop, TxnId txn, Step step);
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
  void ServeRelease(ReleaseSlot req);
  void ServeShipExec(TxnHandle h, NodeId coord);
  // The shipped execution's lock step, re-entered after each park, then
  // its reads' DMA (ShipExecute), and execution with the LOG fan-out and
  // the EXEC result (ShipFinish).
  void ShipAttempt(ShipSlot ship, uint32_t parks);
  void ShipExecute(ShipSlot ship);
  void ShipFinish(ShipSlot ship);
  // The coordinator's state of the shipped transaction while this node is
  // alive and the coordinator has not finished it; else null.
  TxnState* ShipState(const ShipExecution& ship);

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
  bool LockedLocalPath(TxnState* st);  // true = routed
  void LockedLocalAcquire(TxnHandle h, uint32_t parks);
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
  uint64_t WaitForLock(TxnHandle h, const KeyRef& key, bool local, sim::SmallCallback resume);
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

  // The keys of `st` homed at this node -- its read keys, then its write
  // keys not already listed -- into `keys`, and the indexes of those read
  // keys into `reads` (both cleared first): what each half of the shipped
  // path locks and reads.
  void HomeKeys(const TxnState& st, std::vector<KeyRef>* keys,
                std::vector<uint32_t>* reads) const;

  // Shipped/local execution prologue shared by ShippedPath, ShipAttempt
  // and the locked-local path: fetch the values of the read-set indices in
  // `read_idx` and refresh the current seqs of write keys homed on this
  // node, folding all DMA costs into `agg`.
  void ReadLocalSets(TxnState* st, const std::vector<uint32_t>& read_idx,
                     store::NicIndex::LookupStats* agg);

  // DMA-write a record of `bytes` to the host log, waiting (back-pressure)
  // while the bounded ring is full. When the DMA lands with room in the
  // ring, `append` runs: the caller's effects, then its AppendLanded.
  void AppendWhenSpace(uint32_t bytes, sim::SmallCallback append);
  void TryAppend(uint32_t slot);
  // Append a record whose DMA landed: `header` with the writes moved out
  // of `*writes`, a request slot's vector, which keeps its capacity.
  void AppendLanded(const store::LogHeader& header, std::vector<store::LogWrite>* writes);

  // Commit application at the primary NIC for `writes` (cache update, pin,
  // unlock).
  void ApplyCommitAtNic(TxnId txn, const std::vector<store::LogWrite>& writes);

  // NIC-core cost helpers: one step over `st`'s whole key set, and
  // execution logic that costs `host_cost` on the host.
  sim::Tick NicOpCost(const TxnState& st) const;
  sim::Tick NicExecCost(sim::Tick host_cost) const;

  // Emit a txn phase span / instant on this node's trace lane when an
  // engine trace sink is attached (pure recording; no simulation effect).
  // PhaseLane returns the attached sink (null if none), registering the
  // lane with a new one; EndPhase closes the distributed path's current
  // phase `name` now and starts the next.
  sim::TraceSink* PhaseLane();
  void TracePhase(const char* name, sim::Tick start, sim::Tick end, TxnId id);
  void TraceInstant(const char* name, TxnId id);
  void EndPhase(TxnState* st, const char* name);

  nicmodel::SmartNic* nic_;
  store::Datastore* ds_;
  const ClusterMap* map_;
  const XenicFeatures* features_;
  std::vector<XenicNode*>* peers_;
  const repl::ReplicationGroup* repl_;
  // Requests this node sent, and shipped executions it serves, parked
  // until they complete (declared before every container whose
  // continuations hold handles into them).
  sim::SlotTable<ExecRequest> exec_reqs_;
  sim::SlotTable<ValidateRequest> validate_reqs_;
  sim::SlotTable<LogRequest> log_reqs_;
  sim::SlotTable<CommitRequest> commit_reqs_;
  sim::SlotTable<ReleaseRequest> release_reqs_;
  sim::SlotTable<ShipExecution> ship_execs_;
  sim::SlotTable<PendingAppend> appends_;
  sim::SlotTable<DmaFanIn> fan_ins_;
  // Outcome reports crossing to the host (ReportAndFinish), parked until
  // the callback's host job runs, so the NicToHost delivery and that job
  // capture only a slot.
  sim::SlotTable<TxnCore::Report> reports_;
  // Scratch reused by every call (capacity kept): ExecutePhase's shard
  // groups (TxnCore::GroupByShard), the shard lists of ValidatePhase,
  // LogPhase (and the shipped path's LOG round) and CommitPhase, and the
  // coordinator's home keys on the shipped path. Each is used by one phase
  // only, and no phase reads its list after calling into another.
  std::vector<ShardGroup> shard_groups_;
  std::vector<NodeId> validate_shards_;
  std::vector<NodeId> log_round_shards_;
  std::vector<NodeId> commit_round_shards_;
  std::vector<KeyRef> ship_keys_;
  std::vector<uint32_t> ship_reads_;
  // This node's commit-log drain: host Robinhood workers, or NIC-ARM
  // appliers under features.nic_log_apply. Crash() stops it for good.
  repl::LogDrain drain_;
  // Coordinator states, reused across transactions. Continuations hold a
  // state's handle and resolve it here, so a finished transaction's
  // stragglers find nothing even after its state serves another
  // transaction.
  TxnPool<TxnState> pool_;
  // Commit outcomes this coordinator reported (recovery oracle; see
  // HasReportedCommit). It holds only this node's ids, so another
  // coordinator's id is never in it. Lost with the node on a crash, like
  // any host state.
  store::TxnSet reported_committed_;
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
  bool crashed_ = false;
  // Cached trace registration (lazily refreshed when a new sink appears).
  sim::TraceSink* trace_sink_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_XENIC_NODE_H_
