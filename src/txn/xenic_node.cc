#include "src/txn/xenic_node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace xenic::txn {

namespace {

// NIC-core handler costs: per-message base plus per-key work. The base
// matches the measured minimal-RPC handler (section 3.3).
constexpr sim::Tick kNicOpBase = 150;
constexpr sim::Tick kNicKeyCost = 60;
// What serving one remote request charges the server's NIC cores: the base
// alone, however many keys the request carries (DESIGN.md §12). The
// historical handlers passed `NicOpCost(<the request's key count>)`
// alongside a lambda whose init-capture moved those keys in the same call,
// and argument evaluation ran the move first -- so EXECUTE, VALIDATE, LOG,
// COMMIT and release handlers and shipped executions have always been
// charged the base op cost only. Golden transcripts (including the pinned
// seed-3 schedule) encode that timing; keep it explicit rather than
// re-derive it by accident (regression-pinned by serve_execute_cost_test.cc).
constexpr sim::Tick kServeCost = kNicOpBase;

// Lock waiting: the fallback wakeup of every parked waiter (covers lock
// releases that bypass the node's release paths, e.g. recovery sweeps) and
// the cap on how often one request may re-park before it aborts. Under 2PL
// waiting is the policy's normal conflict outcome, not a hot-key
// optimization, so its remote requests share the local budget.
constexpr sim::Tick kParkTimeout = 30 * sim::kNsPerUs;
constexpr uint32_t kMaxParks = 8;
// Under OCC, remote lock requests park far more conservatively than local
// hot-path txns: every park delays a coordinator that may hold locks at
// OTHER shards. One park per request bounds the cross-shard blocking chain
// to a single timeout (then the deny resolves any distributed cycle), and
// a shallow per-key queue cap keeps hot keys from building convoys -- a
// deep FIFO serializes waiters across several lock generations, which
// costs more in idle coordinator contexts than the saved retry work.
constexpr uint32_t kRemoteMaxParks = 1;
constexpr size_t kRemoteQueueCap = 2;
// OCC wait ranks: a release wakes a local transaction before a remote
// request.
constexpr uint64_t kLocalRank = 0;
constexpr uint64_t kRemoteRank = 1;

// read ∪ write without duplicates, in first-seen order: the locked-local
// path's lock set.
std::vector<KeyRef> KeyUnion(const std::vector<KeyRef>& reads, const std::vector<KeyRef>& writes) {
  std::vector<KeyRef> keys;
  for (const auto* set : {&reads, &writes}) {
    for (const auto& k : *set) {
      if (!ContainsKey(keys, k)) {
        keys.push_back(k);
      }
    }
  }
  return keys;
}

// The commit log drains through host Robinhood workers, or through NIC-ARM
// appliers -- slower per step, held to stable kLog records, and staggered
// inside the poll interval -- under features.nic_log_apply.
repl::LogDrain::Options DrainOptions(nicmodel::SmartNic* nic, const XenicFeatures& features) {
  if (!features.nic_log_apply) {
    return {.cores = &nic->host_cores()};
  }
  return {.cores = &nic->nic_cores(),
          .speed_ratio = nic->model().arm_multithread_ratio,
          .stagger_pad = 1,
          .stability_gate = true};
}

}  // namespace

XenicNode::XenicNode(nicmodel::SmartNic* nic, store::Datastore* ds, const ClusterMap* map,
                     const XenicFeatures* features, std::vector<XenicNode*>* peers,
                     const repl::ReplicationGroup* repl)
    : nic_(nic),
      ds_(ds),
      map_(map),
      features_(features),
      peers_(peers),
      repl_(repl),
      drain_(nic->engine(), ds, DrainOptions(nic, *features)),
      transport_(nic, &crashed_, &stats_.messages, &stats_.by_type) {
  if (features->nic_log_apply) {
    drain_.set_record_hook([this](const store::LogRecordView&) { stats_.nic_log_applied++; });
  } else {
    drain_.set_record_hook(
        [this](const store::LogRecordView& rec) { TraceInstant("apply", rec.txn); });
  }
}

sim::Tick XenicNode::NicOpCost(const TxnState& st) const {
  const size_t keys = st.read_keys.size() + st.write_keys.size();
  return kNicOpBase + kNicKeyCost * static_cast<sim::Tick>(keys);
}

sim::Tick XenicNode::NicExecCost(sim::Tick host_cost) const {
  return net::ScaledCost(host_cost, nic_->model().arm_multithread_ratio);
}

template <auto Serve, typename Slot>
void XenicNode::SendSlot(net::MsgType type, NodeId dst, uint32_t bytes, Slot slot, TxnId txn) {
  XenicNode* server = (*peers_)[dst];
  transport_.Send(type, dst, bytes,
                  sim::InlineCallback([server, slot = std::move(slot)]() mutable {
                    (server->*Serve)(std::move(slot));
                  }),
                  txn);
}

template <typename Step>
void XenicNode::OnNic(const char* hop, TxnId txn, Step step) {
  if (crashed_) {
    return;  // request lost with the node; the coordinator times out
  }
  if (hop != nullptr) {
    TraceInstant(hop, txn);
  }
  nic_->NicCompute(kServeCost, sim::InlineCallback([this, step = std::move(step)]() mutable {
    if (!crashed_) {
      step();
    }
  }));
}

std::optional<store::NicIndex::RemoteObject> XenicNode::LookupAccum(
    const KeyRef& k, bool fetch_value, store::NicIndex::LookupStats* agg) {
  store::NicIndex::LookupStats s;
  auto r = fetch_value ? ds_->index(k.table).LookupRemote(k.key, &s)
                       : ds_->index(k.table).ReadMetadata(k.key, &s);
  agg->dma_reads += s.dma_reads;
  agg->bytes_read += s.bytes_read;
  return r;
}

void XenicNode::ReadLocalSets(TxnState* st, const std::vector<uint32_t>& read_idx,
                              store::NicIndex::LookupStats* agg) {
  for (uint32_t i : read_idx) {
    auto r = LookupAccum(st->read_keys[i], /*fetch_value=*/true, agg);
    if (r) {
      st->reads[i] = ReadResult{true, r->seq, std::move(r->value)};
    }
  }
  for (size_t i = 0; i < st->write_keys.size(); ++i) {
    const auto& k = st->write_keys[i];
    if (map_->PrimaryOf(k.table, k.key) != id()) {
      continue;
    }
    auto m = LookupAccum(k, /*fetch_value=*/false, agg);
    st->write_seqs[i] = m ? m->seq : 0;
  }
}

// ---------------------------------------------------------------------------
// Submission and path selection.
// ---------------------------------------------------------------------------

TxnId XenicNode::Submit(TxnRequest req, CommitCallback done) {
  if (crashed_) {
    return 0;  // the application died with the node; no outcome is reported
  }
  TxnState* st = pool_.Acquire();
  st->Init(store::MakeTxnId(id(), next_txn_seq_++), std::move(req), std::move(done));
  st->map_version = map_->version;
  // Root of this transaction's causal event chain: everything scheduled
  // from here on (host compute, NIC hops, DMA, wire) inherits the id.
  nic_->engine()->set_trace_ctx(st->id);
  SubmitOnHost(st);
  return st->id;
}

void XenicNode::SubmitOnHost(TxnState* st) {
  bool all_local = true;
  for (const auto& k : st->read_keys) {
    all_local &= map_->PrimaryOf(k.table, k.key) == id();
  }
  for (const auto& k : st->write_keys) {
    all_local &= map_->PrimaryOf(k.table, k.key) == id();
  }

  if (all_local && st->write_keys.empty() && st->req.local_log_writes.empty()) {
    HostReadOnlyPath(st, id());
    return;
  }
  if (all_local) {
    if (!LockedLocalPath(st)) {
      LocalWritePath(st);
    }
    return;
  }

  // Replica read (features.replica_reads): a read-only transaction whose
  // whole read set lives on one remote shard that this node backs up can
  // be served from the NIC-applied local backup state, behind a freshness
  // fence, without any wire round trip.
  NodeId replica_shard = 0;
  if (ReplicaReadEligible(*st, &replica_shard)) {
    HostReadOnlyPath(st, replica_shard);
    return;
  }

  // Distributed: ship the transaction state to the coordinator-side NIC.
  const TxnHandle h = st->handle();
  const uint32_t bytes = net::wire::TxnDescriptor(st->read_keys.size(), st->write_keys.size(),
                                                  st->req.external_bytes);
  nic_->HostCompute(kHostInitCost, sim::InlineCallback([this, h, bytes] {
    nic_->HostToNic(bytes, sim::InlineCallback([this, h] { CoordStartOnNic(h); }));
  }));
}

// ---------------------------------------------------------------------------
// Local fast paths (paper 4.2.4).
// ---------------------------------------------------------------------------

void XenicNode::HostReadOnlyPath(TxnState* st, NodeId shard) {
  const bool replica = shard != id();
  if (!replica) {
    stats_.local_fastpath++;
  }
  // All reads and execution rounds happen on the host against the local
  // tables within one charged block: atomic, so no validation is needed,
  // and no NIC or wire work is charged.
  const TxnHandle h = st->handle();
  sim::Tick cost = kHostInitCost + st->req.exec_cost;
  cost += kHostKeyCost * static_cast<sim::Tick>(st->read_keys.size());
  nic_->HostCompute(cost, sim::InlineCallback([this, h, shard, replica] {
    TxnState* st = Live(h);
    if (st == nullptr) {
      return;
    }
    // Freshness fence. Serve from backup state only while (a) the routing
    // epoch is unchanged since submission, (b) the shard's primary has not
    // been declared failed, and (c) the local commit log is fully drained.
    // With the stability gate, a drained log means every applied record
    // was at or below its transaction's commit point and nothing newer is
    // parked -- the backup tables are a prefix-consistent snapshot of the
    // shard, so the whole read set is one serializable point-in-time view.
    if (replica && (st->map_version != map_->version || map_->IsFailed(shard) ||
                    ds_->log().Peek() != nullptr)) {
      stats_.replica_read_fallback++;
      EscalateToDistributed(h);
      return;
    }
    const HostExec exec = ExecuteOnHost(st, shard);
    if (exec == HostExec::kEscalate) {
      if (replica) {
        stats_.replica_read_fallback++;
      }
      EscalateToDistributed(h);
      return;
    }
    const bool app_abort = exec == HostExec::kAppAbort;
    auto done = std::move(st->done);
    // Handed back as ReportAndFinish's reports hand it back: a commit's
    // host_finish taken out first, to run after the callback
    // (TxnCore::Report::Run).
    TxnRequest req = std::move(st->req);
    std::function<void()> host_finish;
    if (!app_abort) {
      host_finish = std::exchange(req.host_finish, nullptr);
    }
    TxnResult result(app_abort ? TxnOutcome::kAppAborted : TxnOutcome::kCommitted);
    result.request = &req;
    stats_.Count(result.outcome, AbortReason::kNone);
    if (replica && !app_abort) {
      stats_.replica_reads++;
    }
    EraseState(st);
    const sim::Tick host_finish_cost = req.host_finish_cost;
    done(result);
    if (host_finish) {
      nic_->host_cores().Submit(host_finish_cost, [host_finish = std::move(host_finish)]() mutable {
        host_finish();
      });
    }
  }));
}

XenicNode::HostExec XenicNode::ExecuteOnHost(TxnState* st, NodeId shard) {
  const bool read_only = st->write_keys.empty() && st->req.local_log_writes.empty();
  for (int round = 0;; ++round) {
    for (size_t i = 0; i < st->read_keys.size(); ++i) {
      if (st->reads[i].found) {
        continue;
      }
      const auto& k = st->read_keys[i];
      auto r = ds_->FreshLookup(k.table, k.key);
      if (r) {
        st->reads[i] = ReadResult{true, r->seq, std::move(r->value)};
      }
    }
    for (size_t i = 0; i < st->write_keys.size(); ++i) {
      if (st->write_seqs[i] == 0) {
        const auto& k = st->write_keys[i];
        st->write_seqs[i] = ds_->FreshSeq(k.table, k.key).value_or(0);
      }
    }
    std::vector<KeyRef> add_reads;
    std::vector<KeyRef> add_writes;
    if (st->RunAppRound(round, &add_reads, &add_writes)) {
      return HostExec::kAppAbort;
    }
    assert((!read_only || add_writes.empty()) && "read-only transaction added writes");
    if (add_reads.empty() && add_writes.empty()) {
      return HostExec::kDone;
    }
    // Keys off the shard: restart on the distributed path (from the
    // original key set; nothing was locked).
    for (const auto* added : {&add_reads, &add_writes}) {
      for (const auto& k : *added) {
        if (map_->PrimaryOf(k.table, k.key) != shard) {
          return HostExec::kEscalate;
        }
      }
    }
    st->AppendKeys(add_reads, add_writes);
  }
}

bool XenicNode::ReplicaReadEligible(const TxnState& st, NodeId* shard_out) const {
  if (!features_->replica_reads || !features_->nic_log_apply || Cc2pl()) {
    // Requires the NIC applier (stability-gated backup state) and OCC --
    // 2PL reads take locks at the primary by design.
    return false;
  }
  if (!st.write_keys.empty() || !st.req.local_log_writes.empty() || st.read_keys.empty()) {
    return false;
  }
  const NodeId shard = map_->PrimaryOf(st.read_keys[0].table, st.read_keys[0].key);
  for (const auto& k : st.read_keys) {
    if (map_->PrimaryOf(k.table, k.key) != shard) {
      return false;  // multi-shard read set: no single backup holds it all
    }
  }
  if (shard == id() || map_->IsFailed(shard) || !repl_->IsBackupOf(id(), shard)) {
    return false;
  }
  *shard_out = shard;
  return true;
}

void XenicNode::LocalWritePath(TxnState* st) {
  stats_.local_fastpath++;
  const TxnHandle h = st->handle();
  // Optimistic host execution: read local values + run all rounds in one
  // charged block, producing the write set.
  sim::Tick cost = kHostInitCost + st->req.exec_cost;
  cost += kHostKeyCost *
          static_cast<sim::Tick>(st->read_keys.size() + st->write_keys.size());
  nic_->HostCompute(cost, sim::InlineCallback([this, h] {
    TxnState* st = Live(h);
    if (st == nullptr) {
      return;
    }
    switch (ExecuteOnHost(st, id())) {
      case HostExec::kEscalate:
        EscalateToDistributed(h);
        return;
      case HostExec::kAppAbort:
        AbortCleanup(st, TxnOutcome::kAppAborted);
        return;
      case HostExec::kDone:
        break;
    }

    // Ship the transaction state to the local NIC: acquire write locks and
    // re-validate the optimistic reads, then replicate.
    const uint32_t bytes =
        net::wire::WriteImages(st->writes.size(), txn::ValueBytes(st->writes));
    nic_->HostToNic(bytes, sim::InlineCallback([this, h] {
      TxnState* st = Live(h);
      if (st == nullptr) {
        return;
      }
      nic_->NicCompute(NicOpCost(*st), sim::InlineCallback([this, h] {
        TxnState* st = Live(h);
        if (st == nullptr) {
          return;
        }
        uint8_t contention = 0;
        if (!LockAll(st->id, st->write_keys, &contention)) {
          st->contention_hint = std::max(st->contention_hint, contention);
          st->Abort(AbortReason::kLockLocal);
          AbortCleanup(st, TxnOutcome::kAborted);
          return;
        }
        st->locked_shards.push_back(id());
        // Validate: every read and write key's version must still match
        // what the host saw (writes are now locked, reads are not).
        bool ok = true;
        store::NicIndex::LookupStats agg;
        const sim::Tick now = nic_->engine()->now();
        for (size_t i = 0; i < st->read_keys.size() && ok; ++i) {
          auto m = LookupAccum(st->read_keys[i], /*fetch_value=*/false, &agg);
          const Seq cur = m ? m->seq : 0;
          const TxnId owner = m ? m->lock_owner : store::kNoTxn;
          if (cur != st->reads[i].seq || (owner != store::kNoTxn && owner != st->id)) {
            ok = false;
            sketch_.RecordConflict(st->read_keys[i], now);
            st->contention_hint =
                std::max(st->contention_hint, sketch_.Level(st->read_keys[i], now));
          }
        }
        for (size_t i = 0; i < st->write_keys.size() && ok; ++i) {
          auto m = LookupAccum(st->write_keys[i], /*fetch_value=*/false, &agg);
          if ((m ? m->seq : 0) != st->write_seqs[i]) {
            ok = false;
            sketch_.RecordConflict(st->write_keys[i], now);
            st->contention_hint =
                std::max(st->contention_hint, sketch_.Level(st->write_keys[i], now));
          }
        }
        ChargeDmaReads(agg, sim::InlineCallback([this, h, ok] {
          TxnState* st = Live(h);
          if (st == nullptr) {
            return;
          }
          if (!ok) {
            st->Abort(AbortReason::kValidate);
            AbortCleanup(st, TxnOutcome::kAborted);
            return;
          }
          LogPhase(st);
        }));
      }));
    }));
  }));
}

// ---------------------------------------------------------------------------
// Locked-local path. The NIC locks the full read+write set up front,
// executes under the locks, and goes straight to LOG/COMMIT -- no
// validation race, hence no redo. Under 2PL every all-local write
// transaction takes it, and the policy decides whether a conflict aborts,
// waits or wounds. Under OCC it is the hot-key fast path
// (XenicFeatures::hot_key_fastpath, p4db-style is_hot routing): it takes
// only transactions whose write set hits a sketch-flagged hot key, and
// they wait only while the hot key is held -- *holding zero locks* (no
// hold-and-wait, so no deadlock) until the holder's release wakes them.
// ---------------------------------------------------------------------------

bool XenicNode::LockedLocalPath(TxnState* st) {
  if (Cc2pl()) {
    stats_.local_fastpath++;
  } else {
    if (!features_->hot_key_fastpath) {
      return false;
    }
    const sim::Tick now = nic_->engine()->now();
    auto hot = std::find_if(st->write_keys.begin(), st->write_keys.end(),
                            [&](const KeyRef& k) { return sketch_.IsHot(k, now); });
    if (hot == st->write_keys.end()) {
      return false;
    }
    st->hot_key = *hot;
    stats_.hot_path++;
  }
  const TxnHandle h = st->handle();
  // Same host->NIC handoff as the local write path, minus the optimistic
  // host execution: the work happens on the NIC under locks.
  const uint32_t bytes = net::wire::TxnDescriptor(st->read_keys.size(), st->write_keys.size(),
                                                  st->req.external_bytes);
  nic_->HostCompute(kHostInitCost, sim::InlineCallback([this, h, bytes] {
    nic_->HostToNic(bytes, sim::InlineCallback([this, h] {
      TxnState* st = Live(h);
      if (st == nullptr) {
        return;
      }
      nic_->NicCompute(NicOpCost(*st),
                       sim::InlineCallback([this, h] { LockedLocalAcquire(h, 0); }));
    }));
  }));
  return true;
}

void XenicNode::LockedLocalAcquire(TxnHandle h, uint32_t parks) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;  // aborted meanwhile (wounded, swept): the attempt just dies
  }
  const TxnId txn = h.txn;
  nic_->engine()->set_trace_ctx(txn);
  st->park_id = 0;
  uint8_t contention = 0;
  KeyRef conflict;
  if (!LockAll(txn, KeyUnion(st->read_keys, st->write_keys), &contention, &conflict)) {
    st->contention_hint = std::max(st->contention_hint, contention);
    const bool wait = Cc2pl() ? CcMayWait(txn, conflict, parks)
                              : conflict == st->hot_key && parks < kMaxParks;
    if (wait) {
      st->park_key = conflict;
      st->park_id =
          WaitForLock(h, conflict, /*local=*/true, sim::InlineCallback([this, h, parks] {
                        LockedLocalAcquire(h, parks + 1);
                      }));
      return;
    }
    // The policy says abort, or (OCC) a conflict on a cold key or a queue
    // that is not making progress: a normal abort, and the submitter's
    // retry policy decides.
    st->Abort(AbortReason::kLockLocal);
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  st->reads_locked = true;
  st->locked_shards.push_back(id());
  // Read the full read set and current write seqs under the locks.
  std::vector<uint32_t> read_idx(st->read_keys.size());
  for (uint32_t i = 0; i < read_idx.size(); ++i) {
    read_idx[i] = i;
  }
  store::NicIndex::LookupStats agg;
  ReadLocalSets(st, read_idx, &agg);
  ChargeDmaReads(agg, sim::InlineCallback([this, h] {
    TxnState* st = Live(h);
    if (st == nullptr) {
      return;
    }
    LockedExecute(st);
  }));
}

void XenicNode::LockedExecute(TxnState* st) {
  const TxnHandle h = st->handle();
  nic_->NicCompute(NicExecCost(st->req.exec_cost), sim::InlineCallback([this, h] {
    TxnState* st = Live(h);
    if (st == nullptr) {
      return;
    }
    std::vector<KeyRef> add_reads;
    std::vector<KeyRef> add_writes;
    if (st->RunAppRound(st->round++, &add_reads, &add_writes)) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }
    if (add_reads.empty() && add_writes.empty()) {
      LogPhase(st);
      return;
    }
    bool all_local = true;
    for (const auto* added : {&add_reads, &add_writes}) {
      for (const auto& k : *added) {
        all_local &= map_->PrimaryOf(k.table, k.key) == id();
      }
    }
    if (!all_local) {
      // Execution discovered remote keys: drop every lock and restart
      // through the distributed path (nothing is held while distributed
      // EXECUTE rounds run, so no cross-path deadlock is possible).
      UnlockAll(h.txn, KeyUnion(st->read_keys, st->write_keys));
      st->locked_shards.clear();
      st->reads_locked = false;
      EscalateToDistributed(h);
      return;
    }
    // Lock the newly added local keys in place (no parking mid-execution:
    // a conflict aborts and the submitter retries).
    std::vector<KeyRef> new_keys = KeyUnion(add_reads, add_writes);
    std::erase_if(new_keys, [st](const KeyRef& k) {
      return ContainsKey(st->read_keys, k) || ContainsKey(st->write_keys, k);
    });
    const auto read_base = static_cast<uint32_t>(st->read_keys.size());
    st->AppendKeys(add_reads, add_writes);
    uint8_t contention = 0;
    if (!new_keys.empty() && !LockAll(h.txn, new_keys, &contention)) {
      st->contention_hint = std::max(st->contention_hint, contention);
      st->Abort(AbortReason::kLockLocal);
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    std::vector<uint32_t> new_read_idx;
    for (uint32_t i = read_base; i < st->read_keys.size(); ++i) {
      new_read_idx.push_back(i);
    }
    store::NicIndex::LookupStats agg;
    ReadLocalSets(st, new_read_idx, &agg);
    ChargeDmaReads(agg, sim::InlineCallback([this, h] {
      TxnState* st = Live(h);
      if (st == nullptr) {
        return;
      }
      LockedExecute(st);
    }));
  }));
}

// ---------------------------------------------------------------------------
// Distributed path: coordinator side.
// ---------------------------------------------------------------------------

void XenicNode::EscalateToDistributed(TxnHandle h) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  // Reset the optimistic local progress and restart through the NIC.
  st->ResetKeys();
  const uint32_t bytes = net::wire::TxnDescriptor(st->read_keys.size(), st->write_keys.size(),
                                                  st->req.external_bytes);
  nic_->HostToNic(bytes, sim::InlineCallback([this, h] { CoordStartOnNic(h); }));
}

void XenicNode::CoordStartOnNic(TxnHandle h) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  st->coord_start = nic_->engine()->now();
  st->phase_start = st->coord_start;
  nic_->NicCompute(NicOpCost(*st), sim::InlineCallback([this, h] {
    TxnState* st = Live(h);
    if (st == nullptr) {
      return;
    }
    NodeId remote = 0;
    // The multi-hop shipped path is OCC-specific (its conflict handling is
    // abort-only and its locks are owned by two nodes at once); under a 2PL
    // policy every distributed transaction takes the EXECUTE pipeline,
    // which locks the read set and consults the policy on conflict.
    if (!Cc2pl() && features_->smart_remote_ops && features_->nic_execution &&
        features_->occ_multihop && st->req.allow_ship && ShipEligible(*st, &remote)) {
      ShippedPath(st, remote);
      return;
    }
    ExecutePhase(st);
  }));
}

bool XenicNode::ShipEligible(const TxnState& st, NodeId* remote_out) const {
  if (st.write_keys.empty()) {
    return false;  // read-only: the normal path already commits in one RTT
  }
  bool has_remote = false;
  NodeId remote = 0;
  auto check = [&](const KeyRef& k) {
    const NodeId p = map_->PrimaryOf(k.table, k.key);
    if (p == id()) {
      return true;
    }
    if (!has_remote) {
      has_remote = true;
      remote = p;
      return true;
    }
    return p == remote;
  };
  for (const auto& k : st.read_keys) {
    if (!check(k)) {
      return false;
    }
  }
  for (const auto& k : st.write_keys) {
    if (!check(k)) {
      return false;
    }
  }
  if (!has_remote) {
    return false;  // fully local: handled by the local path already
  }
  *remote_out = remote;
  return true;
}

void XenicNode::ExecutePhase(TxnState* st) {
  stats_.remote_rounds++;
  if (Cc2pl()) {
    // 2PL: the EXECUTE handlers lock read-set keys too, so commit and
    // abort must release them at every granted shard.
    st->reads_locked = true;
  }
  const size_t groups = st->GroupByShard(*map_, &shard_groups_);

  // Without the combined "smart" remote operations, each read is its own
  // request and write locks move to a separate post-execution round (the
  // one-sided-RDMA-style baseline in Figure 9). A 2PL policy overrides the
  // ablation: locking at execute time requires the combined operation.
  const bool split = !features_->smart_remote_ops && !Cc2pl();
  uint32_t pending = 0;
  for (size_t g = 0; g < groups; ++g) {
    pending += split ? static_cast<uint32_t>(shard_groups_[g].read_idx.size()) : 1;
  }
  st->pending = pending;
  if (st->pending == 0) {
    AfterExecuteRound(st);
    return;
  }
  for (size_t g = 0; g < groups; ++g) {
    const ShardGroup& group = shard_groups_[g];
    if (split) {
      for (uint32_t i : group.read_idx) {
        ExecSlot req = NewExecRequest(*st, group.primary, /*lock_only=*/false);
        req->reads.emplace_back(i, st->read_keys[i]);
        SendExecute(std::move(req));
      }
      continue;
    }
    ExecSlot req = NewExecRequest(*st, group.primary, /*lock_only=*/false);
    for (uint32_t i : group.read_idx) {
      req->reads.emplace_back(i, st->read_keys[i]);
    }
    for (uint32_t i : group.write_idx) {
      req->writes.emplace_back(i, st->write_keys[i]);
    }
    SendExecute(std::move(req));
  }
}

XenicNode::ExecSlot XenicNode::NewExecRequest(const TxnState& st, NodeId shard, bool lock_only) {
  ExecSlot req = exec_reqs_.AcquireHandle();
  ExecRequest& r = *req;
  r.h = st.handle();
  r.coord = id();
  r.shard = shard;
  r.lock_only = lock_only;
  r.reads.clear();
  r.writes.clear();
  r.lock_keys.clear();
  r.ok = false;
  r.contention = 0;
  r.next_read = 0;
  r.read_owner = store::kNoTxn;
  r.results.clear();
  r.write_seqs.clear();
  return req;
}

void XenicNode::SendExecute(ExecSlot req) {
  // Keys the server will lock: the write set, plus the read set under 2PL.
  ExecRequest& r = *req;
  for (const auto& [i, k] : r.writes) {
    (void)i;
    r.lock_keys.push_back(k);
  }
  if (Cc2pl()) {
    for (const auto& [i, k] : r.reads) {
      (void)i;
      if (!ContainsKey(r.lock_keys, k)) {
        r.lock_keys.push_back(k);
      }
    }
  }
  const uint32_t bytes = net::wire::ExecuteReq(r.reads.size(), r.writes.size());
  const NodeId shard = r.shard;
  const TxnId txn = r.h.txn;
  SendSlot<&XenicNode::ServeExecute>(net::MsgType::kExecute, shard, bytes, std::move(req), txn);
}

void XenicNode::OnExecuteResp(ExecSlot req) {
  const NodeId shard = req->shard;
  const bool lock_only = req->lock_only;
  TxnState* st = Live(req->h);
  if (st == nullptr) {
    // Raced with an abort (or this coordinator failed). If the server
    // granted locks, nobody will ever release them through the normal
    // paths: do it here.
    if (!crashed_ && req->ok) {
      ReleaseOrphanedLocks(req->h.txn, shard, req->lock_keys);
    }
    return;
  }
  if (req->ok) {
    for (auto& [i, r] : req->results) {
      st->reads[i] = std::move(r);
    }
    for (const auto& [i, s] : req->write_seqs) {
      st->write_seqs[i] = s;
    }
    // A grant holds the locks of `lock_keys`: the write keys whose seqs
    // came back, plus the read keys under 2PL.
    if (!req->lock_keys.empty()) {
      AddShard(&st->locked_shards, shard);
    }
  } else {
    st->Abort(AbortReason::kLockExecute);
    st->contention_hint = std::max(st->contention_hint, req->contention);
  }
  // Free the slot now: the next round acquires from the same table.
  req.Reset();
  assert(st->pending > 0);
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (!lock_only) {
    AfterExecuteRound(st);
  } else if (CheckReadWriteGap(st)) {
    ValidatePhase(st);
  }
}

bool XenicNode::CheckReadWriteGap(TxnState* st) {
  // Version-gap check for keys both read and written: with the combined
  // EXECUTE operation the lock and read happen atomically in one handler,
  // so the versions trivially match; with smart_remote_ops disabled
  // (separate read and lock requests, the Figure 9 baseline) a concurrent
  // commit can slip between them and must abort this transaction.
  for (size_t j = 0; j < st->write_keys.size(); ++j) {
    for (size_t i = 0; i < st->read_keys.size(); ++i) {
      if (st->read_keys[i] == st->write_keys[j] && st->reads[i].found &&
          st->reads[i].seq != st->write_seqs[j]) {
        st->Abort(AbortReason::kGap);
        AbortCleanup(st, TxnOutcome::kAborted);
        return false;
      }
    }
  }
  return true;
}

void XenicNode::AfterExecuteRound(TxnState* st) {
  if ((features_->smart_remote_ops || Cc2pl()) && !CheckReadWriteGap(st)) {
    return;
  }
  RunExecuteLogic(st);
}

void XenicNode::OnExecuteLogicDone(TxnHandle h) {
  TxnState* st = FindState(h);
  if (st == nullptr) {
    return;
  }
  if (st->app_abort) {
    AbortCleanup(st, TxnOutcome::kAppAborted);
    return;
  }
  if (st->HasNewKeys()) {
    // Execution added keys: another EXECUTE round (multi-shot).
    st->round++;
    ExecutePhase(st);
    return;
  }
  if (!features_->smart_remote_ops && !Cc2pl() && !st->write_keys.empty()) {
    LockRound(st);
    return;
  }
  ValidatePhase(st);
}

void XenicNode::LockRound(TxnState* st) {
  stats_.remote_rounds++;
  st->pending = static_cast<uint32_t>(st->write_keys.size());
  if (st->pending == 0) {
    ValidatePhase(st);
    return;
  }
  for (uint32_t i = 0; i < st->write_keys.size(); ++i) {
    const NodeId shard = map_->PrimaryOf(st->write_keys[i].table, st->write_keys[i].key);
    ExecSlot req = NewExecRequest(*st, shard, /*lock_only=*/true);
    req->writes.emplace_back(i, st->write_keys[i]);
    SendExecute(std::move(req));
  }
}

void XenicNode::ExecuteLogic(TxnHandle h) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  st->AppRound();
}

void XenicNode::RunExecuteLogic(TxnState* st) {
  const TxnHandle h = st->handle();
  if (features_->nic_execution && st->req.allow_ship) {
    nic_->NicCompute(NicExecCost(st->req.exec_cost), sim::InlineCallback([this, h] {
      ExecuteLogic(h);
      OnExecuteLogicDone(h);
    }));
    return;
  }

  // Host execution: ship read values up, compute, ship write values down
  // (two extra PCIe crossings on the critical path).
  const uint32_t up_bytes = net::wire::ReadSet(st->reads.size(), ValueBytes(st->reads));
  const sim::Tick exec_cost = st->req.exec_cost;
  nic_->NicToHost(up_bytes, sim::InlineCallback([this, h, exec_cost] {
    nic_->HostCompute(exec_cost, sim::InlineCallback([this, h] {
      ExecuteLogic(h);
      TxnState* st = Live(h);
      if (st == nullptr) {
        return;
      }
      const uint32_t down_bytes =
          net::wire::WriteImages(st->writes.size(), ValueBytes(st->writes));
      nic_->HostToNic(down_bytes, sim::InlineCallback([this, h] { OnExecuteLogicDone(h); }));
    }));
  }));
}

void XenicNode::ValidatePhase(TxnState* st) {
  EndPhase(st, "EXECUTE");
  if (!cc_policy().validates()) {
    // 2PL: every read happened under its lock inside EXECUTE, so the read
    // versions are stable by construction -- no validation round. Read-only
    // transactions commit here; CommitPhase releases the read locks at
    // every granted shard (reads_locked) and erases the state.
    //
    // "By construction" assumes the grantors are still in the cluster. If
    // the membership changed since submit, a lock we took at the evicted
    // node evaporated with it (recovery only rebuilds locks for swept
    // log records, and we have not logged yet), so a post-recovery txn may
    // be racing us on those keys right now. OCC's VALIDATE would catch the
    // torn read; 2PL has no second look, so fence on the map version.
    if (st->map_version != map_->version) {
      st->Abort(AbortReason::kEpochFence);
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      CommitPhase(st);
      return;
    }
    LogPhase(st);
    return;
  }
  // Keys to validate: read-set keys that are not written (written keys are
  // locked since EXECUTE), one request per primary in first-check order.
  std::vector<NodeId>& shards = validate_shards_;
  const uint32_t checks = st->ValidateShards(*map_, &shards);

  // Single-shard, single-round transactions read atomically inside one
  // EXECUTE handler; with the combined operations enabled, read-only ones
  // need no validation round. (With no writes every read is checked, so
  // `shards` is every shard the transaction touched.)
  const bool atomic_snapshot = features_->smart_remote_ops && st->round == 0 &&
                               st->write_keys.empty() && shards.size() == 1;
  if (shards.empty() || atomic_snapshot) {
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      EraseState(st);  // read-only: no locks to release, no commit phase
      return;
    }
    LogPhase(st);
    return;
  }

  // Without the combined operations, one VALIDATE request per key.
  const bool split = !features_->smart_remote_ops;
  stats_.remote_rounds++;
  st->pending = split ? checks : static_cast<uint32_t>(shards.size());
  auto send = [this, txn = st->id](NodeId primary, ValidateSlot req) {
    const uint32_t bytes = net::wire::ValidateReq(req->checks.size());
    SendSlot<&XenicNode::ServeValidate>(net::MsgType::kValidate, primary, bytes, std::move(req),
                                        txn);
  };
  for (NodeId p : shards) {
    ValidateSlot req;
    for (size_t i = 0; i < st->read_keys.size(); ++i) {
      const auto& k = st->read_keys[i];
      if (map_->PrimaryOf(k.table, k.key) != p || ContainsKey(st->write_keys, k)) {
        continue;
      }
      if (!req) {
        req = validate_reqs_.AcquireHandle();
        req->h = st->handle();
        req->coord = id();
        req->checks.clear();
      }
      req->checks.emplace_back(k, st->reads[i].seq);
      if (split) {
        send(p, std::move(req));
      }
    }
    if (req) {
      send(p, std::move(req));
    }
  }
}

void XenicNode::OnValidateResp(TxnHandle h, bool ok, uint8_t contention) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  if (!ok) {
    st->Abort(AbortReason::kValidate);
    st->contention_hint = std::max(st->contention_hint, contention);
  }
  assert(st->pending > 0);
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    EraseState(st);  // read-only: no locks to release, no commit phase
    return;
  }
  LogPhase(st);
}

void XenicNode::SendLogRecords(NodeId coord, const TxnState& st, NodeId shard,
                               uint32_t total_shards) {
  for (NodeId backup : repl_->BackupsOf(shard)) {
    // Each backup's record is built in its request slot, whose write
    // vector keeps its capacity: the backup's append moves the writes out.
    LogSlot req = log_reqs_.AcquireHandle();
    req->h = st.handle();
    req->coord = coord;
    store::LogRecord& rec = req->record;
    rec.type = store::LogRecordType::kLog;
    rec.txn = st.id;
    rec.lsn = 0;
    rec.total_shards = total_shards;
    rec.shard = shard;
    st.ShardWrites(*map_, shard, coord, &rec.writes);
    const uint32_t bytes = net::wire::LogAppend(rec.ByteSize());
    SendSlot<&XenicNode::ServeLog>(net::MsgType::kLog, backup, bytes, std::move(req), st.id);
  }
}

void XenicNode::LogPhase(TxnState* st) {
  EndPhase(st, "VALIDATE");
  // One LOG record per written shard, sent to each of that shard's backups.
  std::vector<NodeId>& shards = log_round_shards_;
  st->WrittenShards(*map_, id(), &shards);
  if (st->log_acks.Expect(repl_, shards) == 0) {
    // Replication factor 1: commit point reached immediately.
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
    return;
  }
  st->logs_sent = true;
  stats_.remote_rounds++;
  for (NodeId shard : shards) {
    SendLogRecords(id(), *st, shard, static_cast<uint32_t>(shards.size()));
  }
  if (st->log_acks.Met()) {
    // Quorum of one (the primary's own copy suffices): the commit point is
    // reached the moment the fan-out is on the wire. Clearing the tracker
    // turns every eventual ack into a late-arrival no-op.
    st->log_acks.Clear();
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
  }
}

void XenicNode::OnLogAck(TxnHandle h, NodeId from, NodeId shard) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  // The commit point: every written shard holds its record at as many
  // backups as the quorum needs (every live backup by default), and on the
  // shipped path the executor reported back. Report to the application,
  // then apply at the primaries in the background; CommitPhase may reuse
  // st->pending, since stragglers are ignored from here on.
  if (st->log_acks.Ack(from, shard)) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
  }
}

void XenicNode::CommitPhase(TxnState* st) {
  std::vector<NodeId>& shards = commit_round_shards_;
  st->WrittenShards(*map_, id(), &shards);
  if (features_->nic_log_apply && st->logs_sent) {
    // Stability notice for the NIC appliers: each backup parks a LOG
    // record until it learns the transaction reached its commit point
    // (otherwise a quorum straggler could apply a record whose transaction
    // later aborts). Fire-and-forget -- commit progress never waits on it.
    const TxnId stable_txn = st->id;
    for (NodeId shard : shards) {
      for (NodeId backup : repl_->BackupsOf(shard)) {
        XenicNode* server = (*peers_)[backup];
        transport_.Send(
            net::MsgType::kLogCommit, backup, net::wire::LogCommit(),
            [server, stable_txn] { server->ServeLogCommit(stable_txn); }, stable_txn);
      }
    }
  }
  if (st->reads_locked) {
    // Read locks can be held at shards with no writes at all: always under
    // 2PL, and on the OCC shipped path whenever the local or executor
    // shard's keys are read-only (e.g. a YCSB mix where the coordinator's
    // key isn't updated). Those shards get a release-only COMMIT; shards
    // already present from the write set are unaffected.
    for (const auto& k : st->read_keys) {
      AddShard(&shards, map_->PrimaryOf(k.table, k.key));
    }
  }
  st->pending = static_cast<uint32_t>(shards.size());
  const TxnId txn = st->id;
  if (st->pending == 0) {
    EraseState(st);
    return;
  }
  for (NodeId shard : shards) {
    CommitSlot req = commit_reqs_.AcquireHandle();
    CommitRequest& r = *req;
    r.h = st->handle();
    r.coord = id();
    st->ShardWrites(*map_, shard, id(), &r.writes);
    // The primary's COMMIT record covers datastore writes only:
    // workload-managed writes are applied by host_finish on the
    // coordinator and by the worker hook at backups (via LOG records).
    std::erase_if(r.writes,
                  [this](const store::LogWrite& w) { return w.table >= ds_->num_tables(); });
    // Read-set keys locked too are released with the commit message.
    r.release_keys.clear();
    if (st->reads_locked) {
      for (const auto& k : st->read_keys) {
        if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(st->write_keys, k)) {
          r.release_keys.push_back(k);
        }
      }
    }
    if (r.writes.empty() && r.release_keys.empty()) {
      if (--st->pending == 0) {
        EraseState(st);
        return;
      }
      continue;
    }
    const uint32_t bytes =
        net::wire::CommitMsg(r.writes.size(), ValueBytes(r.writes), r.release_keys.size());
    SendSlot<&XenicNode::ServeCommit>(net::MsgType::kCommit, shard, bytes, std::move(req), txn);
  }
}

void XenicNode::OnCommitAck(TxnHandle h) {
  TxnState* st = FindState(h);
  if (st == nullptr) {
    return;
  }
  assert(st->pending > 0);
  if (--st->pending == 0) {
    EraseState(st);
  }
}

void XenicNode::ReportAndFinish(TxnState* st, TxnOutcome outcome) {
  if (crashed_) {
    // The application died with the node: drop the callback (marking the
    // outcome as reported so later events cannot double-finish) and skip
    // stats -- a crashed node publishes nothing.
    st->done = nullptr;
    return;
  }
  if (st->coord_start != 0 && outcome == TxnOutcome::kCommitted) {
    const sim::Tick now = nic_->engine()->now();
    TracePhase("LOG", st->phase_start, now, st->id);
    TracePhase("txn", st->coord_start, now, st->id);
  }
  stats_.Count(outcome, st->abort_reason);
  if (outcome == TxnOutcome::kCommitted) {
    reported_committed_.Insert(st->id);
  }
  // The commit point was the log acks; the application learns the outcome
  // once the report crosses to the host.
  const uint32_t report = reports_.Put(st->TakeReport(TxnResult(outcome, st->contention_hint)));
  nic_->NicToHost(net::wire::Descriptor(), sim::InlineCallback([this, report] {
                    TxnCore::Report::Run(&reports_, report, &nic_->host_cores());
                  }));
}

bool XenicNode::HasReportedCommit(TxnId txn) const { return reported_committed_.Contains(txn); }

void XenicNode::ReleaseOrphanedLocks(TxnId txn, NodeId shard, const std::vector<KeyRef>& keys) {
  if (keys.empty()) {
    return;
  }
  ReleaseSlot req = NewReleaseRequest(txn);
  req->keys.assign(keys.begin(), keys.end());
  SendRelease(shard, std::move(req));
}

XenicNode::ReleaseSlot XenicNode::NewReleaseRequest(TxnId txn) {
  ReleaseSlot req = release_reqs_.AcquireHandle();
  req->txn = txn;
  req->keys.clear();
  return req;
}

void XenicNode::SendRelease(NodeId shard, ReleaseSlot req) {
  const TxnId txn = req->txn;
  const uint32_t bytes = net::wire::KeyList(req->keys.size());
  SendSlot<&XenicNode::ServeRelease>(net::MsgType::kRelease, shard, bytes, std::move(req), txn);
}

void XenicNode::AbortCleanup(TxnState* st, TxnOutcome outcome) {
  const TxnId txn = st->id;
  if (st->park_id != 0) {
    waiters_.Take(st->park_key, st->park_id);
  }
  // Release locks at every shard that acknowledged EXECUTE (or the local
  // lock set for local/shipped paths), read keys included where they were
  // locked.
  for (NodeId shard : st->locked_shards) {
    ReleaseSlot req = NewReleaseRequest(txn);
    std::vector<KeyRef>& keys = req->keys;
    for (const auto& k : st->write_keys) {
      if (map_->PrimaryOf(k.table, k.key) == shard) {
        keys.push_back(k);
      }
    }
    if (st->reads_locked) {
      for (const auto& k : st->read_keys) {
        if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(keys, k)) {
          keys.push_back(k);
        }
      }
    }
    if (!keys.empty()) {
      SendRelease(shard, std::move(req));
    }
  }
  ReportAndFinish(st, outcome);
  EraseState(st);
}

void XenicNode::TxnState::Init(TxnId txn, TxnRequest request, CommitCallback callback) {
  TxnCore::Init(txn, std::move(request), std::move(callback));
  locked_shards.clear();
  reads_locked = false;
  coord_start = 0;
  phase_start = 0;
  logs_sent = false;
  contention_hint = 0;
  map_version = 0;
  hot_key = {};
  park_key = {};
  park_id = 0;
}

// ---------------------------------------------------------------------------
// Multi-hop shipped execution (paper 4.2.3, Figure 7b).
// ---------------------------------------------------------------------------

void XenicNode::HomeKeys(const TxnState& st, std::vector<KeyRef>* keys,
                         std::vector<uint32_t>* reads) const {
  keys->clear();
  reads->clear();
  for (uint32_t i = 0; i < st.read_keys.size(); ++i) {
    if (map_->PrimaryOf(st.read_keys[i].table, st.read_keys[i].key) == id()) {
      keys->push_back(st.read_keys[i]);
      reads->push_back(i);
    }
  }
  for (const auto& k : st.write_keys) {
    if (map_->PrimaryOf(k.table, k.key) == id() && !ContainsKey(*keys, k)) {
      keys->push_back(k);
    }
  }
}

void XenicNode::ShippedPath(TxnState* st, NodeId remote) {
  stats_.shipped_multihop++;
  const TxnId txn = st->id;

  // Lock ALL local keys (reads included: the shipped path has no separate
  // validation phase) and read local read-set values.
  HomeKeys(*st, &ship_keys_, &ship_reads_);
  st->reads_locked = true;
  uint8_t contention = 0;
  if (!LockAll(txn, ship_keys_, &contention)) {
    st->contention_hint = std::max(st->contention_hint, contention);
    st->Abort(AbortReason::kLockShip);
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (!ship_keys_.empty()) {
    st->locked_shards.push_back(id());
  }

  // Read local read-set values and the current seqs of local write keys.
  store::NicIndex::LookupStats agg;
  ReadLocalSets(st, ship_reads_, &agg);

  ChargeDmaReads(agg, sim::InlineCallback([this, h = st->handle(), remote] {
    TxnState* st = FindState(h);
    if (st == nullptr) {
      return;
    }
    const uint32_t bytes = net::wire::ShipExec(
        st->read_keys.size(), st->write_keys.size(), st->req.external_bytes,
        ValueBytes(st->reads), st->req.local_log_writes.size(),
        ValueBytes(st->req.local_log_writes));
    // Expected completion signals: the EXEC result, which the commit point
    // always needs, plus the LOG acks of every written shard (sent by the
    // remote executor, which knows the final shard set -- precomputed here
    // since shipping fixes the key set).
    std::vector<NodeId>& shards = log_round_shards_;
    st->WrittenShards(*map_, id(), &shards);
    st->log_acks.Expect(repl_, shards);
    st->log_acks.Expect(kShipExecSignal, kShipExecSignal);

    XenicNode* server = (*peers_)[remote];
    transport_.Send(net::MsgType::kShipExec, remote, bytes,
                    sim::InlineCallback([this, server, h] { server->ServeShipExec(h, id()); }),
                    h.txn);
  }));
}

XenicNode::TxnState* XenicNode::ShipState(const ShipExecution& ship) {
  return crashed_ ? nullptr : (*peers_)[ship.coord]->FindState(ship.h);
}

void XenicNode::ServeShipExec(TxnHandle h, NodeId coord) {
  ShipSlot ship = ship_execs_.AcquireHandle();
  ship->h = h;
  ship->coord = coord;
  // A delayed delivery can arrive after an epoch change aborted the
  // transaction: its handle then resolves to null at the coordinator, even
  // once the state serves another transaction (dropping `ship` frees it).
  const TxnState* st = ShipState(*ship);
  if (st == nullptr) {
    return;
  }
  // Lock all keys homed here (reads and writes), read read-set values,
  // execute, then fan out LOG records to every backup with acks converging
  // at the coordinator NIC.
  HomeKeys(*st, &ship->keys, &ship->reads);
  nic_->NicCompute(kServeCost, sim::InlineCallback([this, ship = std::move(ship)]() mutable {
    ShipAttempt(std::move(ship), 0);
  }));
}

void XenicNode::ShipAttempt(ShipSlot ship, uint32_t parks) {
  if (crashed_) {
    return;
  }
  const TxnHandle h = ship->h;
  const TxnId txn = h.txn;
  nic_->engine()->set_trace_ctx(txn);
  // After a park, a crashed coordinator's handle still resolves (a crash
  // keeps its states for exactly these in-flight executions), so the state
  // check alone can't see the crash: check it directly rather than lock
  // and execute for a node that will never commit.
  XenicNode* coordinator = (*peers_)[ship->coord];
  TxnState* st = ShipState(*ship);
  if (st == nullptr || (parks > 0 && coordinator->crashed())) {
    return;
  }
  uint8_t contention = 0;
  KeyRef conflict{};
  if (!LockAll(txn, ship->keys, &contention, &conflict)) {
    if (MayParkRemote(txn, conflict, parks)) {
      // Hot key: the shipped execution is parked behind the holder
      // (zero locks held) instead of failing back to the coordinator.
      WaitForLock(h, conflict, /*local=*/false,
                  sim::InlineCallback([this, ship = std::move(ship), parks]() mutable {
                    ShipAttempt(std::move(ship), parks + 1);
                  }));
      return;
    }
    transport_.SendAck(net::MsgType::kShipExec, ship->coord,
                       sim::InlineCallback([coordinator, h, contention] {
                         coordinator->OnShipFailure(h, contention);
                       }),
                       txn);
    return;
  }

  store::NicIndex::LookupStats agg;
  ReadLocalSets(st, ship->reads, &agg);
  ChargeDmaReads(agg, sim::InlineCallback([this, ship = std::move(ship)]() mutable {
    ShipExecute(std::move(ship));
  }));
}

void XenicNode::ShipExecute(ShipSlot ship) {
  const TxnState* st = ShipState(*ship);
  if (st == nullptr) {
    UnlockAll(ship->h.txn, ship->keys);
    return;
  }
  // Execute on this NIC.
  const sim::Tick cost = NicExecCost(st->req.exec_cost);
  nic_->NicCompute(cost, sim::InlineCallback([this, ship = std::move(ship)]() mutable {
    ShipFinish(std::move(ship));
  }));
}

void XenicNode::ShipFinish(ShipSlot ship) {
  const TxnHandle h = ship->h;
  const TxnId txn = h.txn;
  TxnState* st = ShipState(*ship);
  if (st == nullptr) {
    UnlockAll(txn, ship->keys);
    return;
  }
  const NodeId coord = ship->coord;
  XenicNode* coordinator = (*peers_)[coord];
  std::vector<KeyRef> add_reads;
  std::vector<KeyRef> add_writes;
  st->app_abort = st->RunAppRound(0, &add_reads, &add_writes);
  assert(add_reads.empty() && add_writes.empty() &&
         "shipped transactions must be single-round (allow_ship misuse)");
  if (st->app_abort) {
    UnlockAll(txn, ship->keys);
    transport_.SendAck(net::MsgType::kShipExec, coord,
                       sim::InlineCallback([coordinator, h] { coordinator->OnShipFailure(h); }),
                       txn);
    return;
  }

  // LOG fan-out to all backups of all written shards; acks go straight to
  // the coordinator NIC (the multi-hop pattern).
  std::vector<NodeId>& shards = log_round_shards_;
  st->WrittenShards(*map_, coord, &shards);
  st->logs_sent = true;
  for (NodeId shard : shards) {
    SendLogRecords(coord, *st, shard, static_cast<uint32_t>(shards.size()));
  }

  // EXEC result back to the coordinator (write values for its local
  // commit); counts as one of the pending completion signals.
  const uint32_t result_bytes = net::wire::ExecResult(st->writes.size(), ValueBytes(st->writes));
  transport_.Send(net::MsgType::kExecReply, coord, result_bytes,
                  sim::InlineCallback([coordinator, h] {
                    coordinator->OnLogAck(h, kShipExecSignal, kShipExecSignal);
                  }),
                  txn);
}

void XenicNode::OnShipFailure(TxnHandle h, uint8_t contention) {
  TxnState* st = Live(h);
  if (st == nullptr) {
    return;
  }
  st->contention_hint = std::max(st->contention_hint, contention);
  const TxnOutcome outcome = st->app_abort ? TxnOutcome::kAppAborted : TxnOutcome::kAborted;
  if (outcome == TxnOutcome::kAborted) {
    st->Abort(AbortReason::kLockShip);
  }
  AbortCleanup(st, outcome);
}

// ---------------------------------------------------------------------------
// Server-side handlers.
// ---------------------------------------------------------------------------

bool XenicNode::LockAll(TxnId txn, const std::vector<KeyRef>& keys, uint8_t* contention,
                        KeyRef* conflict) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!ds_->index(keys[i].table).AcquireLock(keys[i].key, txn).ok()) {
      const sim::Tick now = nic_->engine()->now();
      sketch_.RecordConflict(keys[i], now);
      if (contention != nullptr) {
        *contention = std::max(*contention, sketch_.Level(keys[i], now));
      }
      if (conflict != nullptr) {
        *conflict = keys[i];
      }
      for (size_t j = 0; j < i; ++j) {
        ReleaseOne(txn, keys[j]);
      }
      return false;
    }
  }
  return true;
}

void XenicNode::UnlockAll(TxnId txn, const std::vector<KeyRef>& keys) {
  for (const auto& k : keys) {
    ReleaseOne(txn, k);
  }
}

void XenicNode::ReleaseOne(TxnId txn, const KeyRef& key) {
  ds_->index(key.table).ReleaseLock(key.key, txn);
  if (!waiters_.empty()) {
    WakeNext(key);
  }
}

// ---------------------------------------------------------------------------
// Lock waiting (one queue for local and remote requests under every
// policy) and 2PL conflict handling (WAIT_DIE / WOUND_WAIT, WOUND
// delivery).
// ---------------------------------------------------------------------------

bool XenicNode::MayParkRemote(TxnId txn, const KeyRef& conflict, uint32_t parks) {
  if (Cc2pl()) {
    return CcMayWait(txn, conflict, parks);
  }
  // A full queue means a convoy is forming: deny instead of queueing
  // behind it.
  return features_->hot_key_fastpath && parks < kRemoteMaxParks &&
         sketch_.IsHot(conflict, nic_->engine()->now()) &&
         waiters_.Count(conflict, kRemoteRank) < kRemoteQueueCap;
}

uint64_t XenicNode::WaitForLock(TxnHandle h, const KeyRef& key, bool local,
                                sim::SmallCallback resume) {
  const TxnId txn = h.txn;
  uint64_t rank = local ? kLocalRank : kRemoteRank;
  if (Cc2pl()) {
    stats_.cc_waits++;
    const TxnId holder = ds_->index(key.table).LockOwner(key.key);
    if (holder == store::kNoTxn) {
      // The holder released between the failed acquire and this decision
      // (lock rollbacks run inline). Re-attempt in a fresh event.
      nic_->engine()->ScheduleAfter(0, std::move(resume));
      return 0;
    }
    if (cc_policy().OnConflict(txn, holder) == CcAction::kWound) {
      // Abort the younger holder at its coordinator so the lock frees; the
      // message rides the transport (a self-wound schedules locally). The
      // holder may already be past its commit point, in which case the
      // wound is a no-op and we fall back to waiting for its release.
      stats_.cc_wounds++;
      const NodeId vcoord = store::TxnNode(holder);
      XenicNode* victim = (*peers_)[vcoord];
      transport_.Send(
          net::MsgType::kWound, vcoord, net::wire::Wound(),
          [victim, holder] { victim->ServeWound(holder); }, txn);
    }
    rank = CcPriority(txn);
  } else if (local) {
    stats_.hot_waits++;
  } else {
    stats_.hot_remote_parks++;
  }
  const uint64_t id = waiters_.Park(key, h, rank, std::move(resume));
  // Fallback wakeup: a release that bypasses this node's release paths
  // (recovery drops locks directly in the index) must not strand the
  // waiter. The timer takes its own entry by id, so it finds nothing once
  // a release has woken the waiter.
  nic_->engine()->ScheduleAfter(kParkTimeout, [this, key, id] {
    if (auto w = waiters_.Take(key, id)) {
      w->resume();
    }
  });
  return id;
}

void XenicNode::WakeNext(const KeyRef& key) {
  auto next = waiters_.PopNext(key, [this](TxnHandle h) {
    // Under 2PL, skip waiters whose transaction died while parked
    // (wounded, swept by recovery, or their coordinator crashed): wake the
    // next one instead of letting the release go unused until a timeout
    // fires. OCC must not skip: there a woken remote request whose
    // coordinator forgot the transaction uses up the wake (ExecuteAttempt
    // drops it), and the recorded schedules depend on it.
    if (!Cc2pl()) {
      return false;
    }
    XenicNode* coord = (*peers_)[store::TxnNode(h.txn)];
    return coord->crashed() || coord->FindState(h) == nullptr;
  });
  if (next) {
    // Resume in a fresh event: the release may happen inside another
    // transaction's lock rollback, mid-iteration over its key list. Each
    // resume target checks for a crash and restores its trace context.
    nic_->engine()->ScheduleAfter(0, std::move(next->resume));
  }
}

bool XenicNode::CcMayWait(TxnId txn, const KeyRef& conflict, uint32_t parks) const {
  const TxnId holder = ds_->index(conflict.table).LockOwner(conflict.key);
  if (holder == store::kNoTxn) {
    return true;  // released meanwhile: WaitForLock re-attempts at once
  }
  // Deny when the policy says abort or the park budget is spent: the
  // coordinator aborts (and retries) the requester.
  return cc_policy().OnConflict(txn, holder) != CcAction::kAbort && parks < kMaxParks;
}

void XenicNode::ServeWound(TxnId victim) {
  OnNic("hop.wound", victim, [this, victim] {
    // The lock names its owner by id only: the one lookup that walks the
    // pool.
    const std::optional<TxnHandle> h = HandleOf(victim);
    TxnState* st = h ? FindState(*h) : nullptr;
    if (st == nullptr || st->done == nullptr || st->logs_sent) {
      // Already finished, restarted under a new id, or past the commit
      // point (logs out): a wound must not undo a commit decision.
      return;
    }
    st->Abort(AbortReason::kWounded);
    // Abort NOW rather than lazily flagging: the victim may itself be
    // parked on a lock the wounder holds, and only an immediate release
    // breaks that cycle. In-flight responses tolerate the erased state
    // (ReleaseOrphanedLocks / FindState re-checks on every wake).
    AbortCleanup(st, TxnOutcome::kAborted);
  });
}

void XenicNode::ChargeDmaReads(const store::NicIndex::LookupStats& stats,
                               sim::Engine::Callback done) {
  if (stats.dma_reads == 0) {
    done();
    return;
  }
  const uint64_t per_read = stats.bytes_read / stats.dma_reads;
  // The reads of one operation are issued as one vector: they proceed in
  // parallel on the DMA engine; completion is when the last one lands.
  const uint32_t slot = fan_ins_.Put(DmaFanIn{stats.dma_reads, std::move(done)});
  for (uint32_t i = 0; i < stats.dma_reads; ++i) {
    nic_->DmaRead(per_read, sim::InlineCallback([this, slot] {
      if (--fan_ins_[slot].remaining == 0) {
        sim::Engine::Callback last = fan_ins_.Take(slot).done;
        last();
      }
    }));
  }
}

void XenicNode::ServeExecute(ExecSlot req) {
  const TxnId txn = req->h.txn;
  OnNic("hop.execute", txn,
        [this, req = std::move(req)]() mutable { ExecuteAttempt(std::move(req), 0); });
}

void XenicNode::ExecuteAttempt(ExecSlot req, uint32_t parks) {
  if (crashed_) {
    return;  // the node died while this request was parked
  }
  const TxnId txn = req->h.txn;
  nic_->engine()->set_trace_ctx(txn);
  XenicNode* coord = (*peers_)[req->coord];
  // A wake after a park must re-check the coordinator: if it crashed, or
  // recovery swept the transaction while we waited, granting locks now
  // would strand them (nobody will release). Dropping the reply is what a
  // lost request looks like, which both of those paths already handle.
  if (parks > 0 && (coord->crashed() || coord->FindState(req->h) == nullptr)) {
    return;
  }
  // Lock the write set first (all-or-nothing at this shard); a 2PL policy
  // locks the read set in the same step, making the reads below stable
  // without a validation round.
  uint8_t lock_contention = 0;
  KeyRef conflict{};
  if (!LockAll(txn, req->lock_keys, &lock_contention, &conflict)) {
    // WAIT_DIE / WOUND_WAIT may park (and wound) instead of denying; NO_WAIT
    // and an exhausted park budget deny, and the coordinator aborts exactly
    // like an OCC conflict. Under OCC a hot key parks the pending reply
    // behind the holder (zero locks held) instead of bouncing an
    // abort-retry cycle through the coordinator; timeout, a full queue, or
    // an exhausted park budget denies exactly as the unparked path would.
    if (MayParkRemote(txn, conflict, parks)) {
      const TxnHandle h = req->h;
      WaitForLock(h, conflict, /*local=*/false,
                  sim::InlineCallback([this, req = std::move(req), parks]() mutable {
                    ExecuteAttempt(std::move(req), parks + 1);
                  }));
      return;
    }
    req->contention = lock_contention;
    ReplyExecute(std::move(req));
    return;
  }
  req->ok = true;
  ExecuteReadStep(std::move(req));
}

void XenicNode::ExecuteReadStep(ExecSlot req) {
  ExecRequest& r = *req;
  if (r.next_read == r.reads.size()) {
    ExecuteFinish(std::move(req));
    return;
  }
  const auto [i, key] = r.reads[r.next_read];
  store::NicIndex::LookupStats s;
  auto obj = ds_->index(key.table).LookupRemote(key.key, &s);
  r.read_owner = obj ? obj->lock_owner : store::kNoTxn;
  r.results.emplace_back(i, obj ? ReadResult{true, obj->seq, std::move(obj->value)} : ReadResult{});
  ChargeDmaReads(s, sim::InlineCallback([this, req = std::move(req)]() mutable {
    ExecuteReadDone(std::move(req));
  }));
}

void XenicNode::ExecuteReadDone(ExecSlot req) {
  ExecRequest& r = *req;
  const KeyRef key = r.reads[r.next_read++].second;
  // Abort when a read-set key is locked by another transaction (paper 4.2
  // step 2).
  if (r.read_owner != store::kNoTxn && r.read_owner != r.h.txn) {
    r.results.pop_back();
    r.ok = false;
    const sim::Tick now = nic_->engine()->now();
    sketch_.RecordConflict(key, now);
    r.contention = std::max(r.contention, sketch_.Level(key, now));
  }
  ExecuteReadStep(std::move(req));
}

void XenicNode::ExecuteFinish(ExecSlot req) {
  if (!req->ok) {
    UnlockAll(req->h.txn, req->lock_keys);
    ReplyExecute(std::move(req));
    return;
  }
  // Current versions for the write set (from NIC metadata; absent keys are
  // inserts with seq 0).
  ExecRequest& r = *req;
  store::NicIndex::LookupStats agg;
  for (const auto& [i, k] : r.writes) {
    auto m = LookupAccum(k, /*fetch_value=*/false, &agg);
    r.write_seqs.emplace_back(i, m ? m->seq : 0);
  }
  ChargeDmaReads(agg, sim::InlineCallback([this, req = std::move(req)]() mutable {
    ReplyExecute(std::move(req));
  }));
}

void XenicNode::ReplyExecute(ExecSlot req) {
  ExecRequest& r = *req;
  if (!r.ok) {
    r.results.clear();  // a denial carries no reads or versions
    r.write_seqs.clear();
  }
  const uint32_t bytes =
      r.lock_only ? net::wire::SeqList(r.write_seqs.size())
                  : net::wire::ExecuteReply(r.results.size(), ValueBytes(r.results),
                                            r.write_seqs.size());
  const NodeId coord = r.coord;
  const TxnId txn = r.h.txn;
  SendSlot<&XenicNode::OnExecuteResp>(net::MsgType::kExecReply, coord, bytes, std::move(req), txn);
}

void XenicNode::ServeValidate(ValidateSlot req) {
  // The VALIDATE wire message doesn't carry the txn id in-band; the causal
  // trace context delivered with the message names it for the span tree.
  OnNic("hop.validate", nic_->engine()->trace_ctx(), [this, req = std::move(req)]() mutable {
    bool ok = true;
    uint8_t contention = 0;
    store::NicIndex::LookupStats agg;
    const sim::Tick now = nic_->engine()->now();
    for (const auto& [k, expected] : req->checks) {
      auto m = LookupAccum(k, /*fetch_value=*/false, &agg);
      const Seq cur = m ? m->seq : 0;
      const TxnId owner = m ? m->lock_owner : store::kNoTxn;
      if (cur != expected || owner != store::kNoTxn) {
        ok = false;
        sketch_.RecordConflict(k, now);
        contention = std::max(contention, sketch_.Level(k, now));
      }
    }
    ChargeDmaReads(agg, sim::InlineCallback([this, req = std::move(req), ok, contention]() mutable {
      XenicNode* coord = (*peers_)[req->coord];
      const TxnHandle h = req->h;
      req.Reset();
      transport_.SendAck(net::MsgType::kValidate, coord->id(),
                         sim::InlineCallback([coord, h, ok, contention] {
                           coord->OnValidateResp(h, ok, contention);
                         }),
                         h.txn);
    }));
  });
}

void XenicNode::AppendWhenSpace(uint32_t bytes, sim::SmallCallback append) {
  if (crashed_) {
    return;  // the DMA target is gone; retry loops die with the node
  }
  TryAppend(appends_.Put(PendingAppend{bytes, std::move(append)}));
}

void XenicNode::TryAppend(uint32_t slot) {
  if (crashed_) {
    appends_.Take(slot);  // the DMA target is gone; retry loops die with the node
    return;
  }
  if (ds_->log().Full()) {
    // Host has fallen behind: back-pressure by retrying until workers free
    // ring space. Commit-point decisions never observe a failed append.
    nic_->engine()->ScheduleAfter(2 * sim::kNsPerUs,
                                  sim::InlineCallback([this, slot] { TryAppend(slot); }));
    return;
  }
  // The record becomes host-visible when the DMA completes: the caller's
  // continuation runs then and appends the record last, in the same event,
  // so the host workers can never observe the record before the NIC's own
  // bookkeeping (cache pinning) is in place. The append schedules nothing,
  // and no continuation reads the log or its pending index, so their order
  // within the event moves nothing.
  nic_->DmaWrite(appends_[slot].bytes, sim::InlineCallback([this, slot] {
    if (crashed_) {
      appends_.Take(slot);
      return;
    }
    if (ds_->log().Full()) {
      TryAppend(slot);
      return;
    }
    appends_.Take(slot).append();
  }));
}

void XenicNode::AppendLanded(const store::LogHeader& header,
                             std::vector<store::LogWrite>* writes) {
  const auto result = ds_->Append(header, writes);
  assert(result.ok());
  (void)result;
}

void XenicNode::ServeLog(LogSlot req) {
  const TxnId txn = req->record.txn;
  OnNic("hop.log", txn, [this, req = std::move(req)]() mutable {
    const auto bytes = static_cast<uint32_t>(req->record.ByteSize());
    AppendWhenSpace(bytes, sim::InlineCallback([this, req = std::move(req)]() mutable {
      XenicNode* coord = (*peers_)[req->coord];
      const TxnHandle h = req->h;
      const NodeId from = id();
      const NodeId shard = req->record.shard;
      transport_.SendAck(net::MsgType::kLog, coord->id(),
                         sim::InlineCallback([coord, h, from, shard] {
                           coord->OnLogAck(h, from, shard);
                         }),
                         h.txn);
      AppendLanded(req->record, &req->record.writes);
    }));
  });
}

void XenicNode::ApplyCommitAtNic(TxnId txn, const std::vector<store::LogWrite>& writes) {
  if (crashed_) {
    return;
  }
  for (const auto& w : writes) {
    if (w.table >= ds_->num_tables()) {
      continue;  // workload-managed: applied by host workers only
    }
    if (w.is_delete) {
      // Deletes are applied to the host structure synchronously at commit
      // time (no stale-read window via the cache).
      ds_->table(w.table).Erase(w.key);
    } else {
      ds_->index(w.table).ApplyCommit(w.key, w.value, w.seq);
    }
    ReleaseOne(txn, KeyRef{w.table, w.key});
  }
}

void XenicNode::ServeCommit(CommitSlot req) {
  OnNic(nullptr, store::kNoTxn, [this, req = std::move(req)]() mutable {
    const auto bytes = static_cast<uint32_t>(store::LogRecordBytes(req->writes));
    // The commit record is applied by the host workers; cache entries are
    // updated and pinned now, and locks release once the DMA completes.
    AppendWhenSpace(bytes, sim::InlineCallback([this, req = std::move(req)]() mutable {
      const TxnHandle h = req->h;
      const TxnId txn = h.txn;
      for (const auto& k : req->release_keys) {
        ReleaseOne(txn, k);
      }
      ApplyCommitAtNic(txn, req->writes);
      XenicNode* coord = (*peers_)[req->coord];
      transport_.SendAck(net::MsgType::kCommit, coord->id(),
                         sim::InlineCallback([coord, h] { coord->OnCommitAck(h); }), txn);
      store::LogHeader header;
      header.type = store::LogRecordType::kCommit;
      header.txn = txn;
      header.shard = id();
      AppendLanded(header, &req->writes);
    }));
  });
}

void XenicNode::ServeRelease(ReleaseSlot req) {
  OnNic(nullptr, store::kNoTxn, [this, req = std::move(req)] { UnlockAll(req->txn, req->keys); });
}

void XenicNode::ServeLogCommit(TxnId txn) {
  OnNic(nullptr, store::kNoTxn, [this, txn] { ds_->log().MarkStable(txn); });
}

void XenicNode::ServeLeaseHandoff(NodeId from) {
  (void)from;  // the routing flip itself happens in txn::PlannedHandoff
  OnNic(nullptr, store::kNoTxn, [] {});
}

// ---------------------------------------------------------------------------
// Robinhood workers (paper step 7).
// ---------------------------------------------------------------------------

void XenicNode::StartWorkers(uint32_t count, sim::Tick poll_interval) {
  if (crashed_) {
    return;  // dead nodes stay dead
  }
  drain_.Start(count, poll_interval);
}

void XenicNode::StopWorkers() { drain_.Stop(); }

sim::TraceSink* XenicNode::PhaseLane() {
  sim::TraceSink* t = nic_->engine()->trace();
  if (t != nullptr && t != trace_sink_) {
    trace_sink_ = t;
    trace_track_ = t->RegisterTrack("txn_phases", "n" + std::to_string(id()));
  }
  return t;
}

void XenicNode::TracePhase(const char* name, sim::Tick start, sim::Tick end, TxnId txn) {
  if (sim::TraceSink* t = PhaseLane()) {
    t->Span(trace_track_, name, start, end, txn);
  }
}

void XenicNode::TraceInstant(const char* name, TxnId txn) {
  if (sim::TraceSink* t = PhaseLane()) {
    t->Instant(trace_track_, name, nic_->engine()->now(), txn);
  }
}

void XenicNode::EndPhase(TxnState* st, const char* name) {
  if (st->coord_start == 0) {
    return;
  }
  const sim::Tick now = nic_->engine()->now();
  TracePhase(name, st->phase_start, now, st->id);
  st->phase_start = now;
}

// ---------------------------------------------------------------------------
// Recovery support.
// ---------------------------------------------------------------------------

size_t XenicNode::RebuildLocksFromLog(const std::vector<store::LogRecord>& unacked) {
  size_t locked = 0;
  for (const auto& rec : unacked) {
    for (const auto& w : rec.writes) {
      if (w.table >= ds_->num_tables()) {
        continue;
      }
      if (ds_->index(w.table).AcquireLock(w.key, rec.txn).ok()) {
        locked++;
      }
    }
  }
  return locked;
}

XenicNode::ParkedSlots XenicNode::parked_slots() const {
  ParkedSlots p;
  p.requests = exec_reqs_.live() + validate_reqs_.live() + log_reqs_.live() +
               commit_reqs_.live() + release_reqs_.live() + ship_execs_.live();
  p.reports = reports_.live();
  p.appends = appends_.live();
  p.fan_ins = fan_ins_.live();
  return p;
}

void XenicNode::DropParked() {
  waiters_.Clear();
  appends_ = {};
  fan_ins_ = {};
}

void XenicNode::Crash() {
  crashed_ = true;
  drain_.Stop();  // host workers or NIC appliers die with the node
  // Parked lock requests die with the node. A remote request's reply is
  // never sent, which is exactly what a request lost with the node looks
  // like to the coordinator (recovery's wedged-txn sweep resolves it);
  // clearing the queue frees each request's slot at its coordinator.
  waiters_.Clear();
  // The coordinator states stay in the pool: shipped executions in flight
  // at other nodes still resolve their handles and run to completion.
}

std::vector<XenicNode::WedgedTxn> XenicNode::WedgedOn(NodeId failed, bool backup_touch) const {
  std::vector<WedgedTxn> out;
  if (crashed_) {
    return out;
  }
  pool_.ForEachLive([&](const TxnState& st) {
    if (st.done == nullptr) {
      return;  // outcome already reported; the commit phase finishes on its own
    }
    bool touches = false;
    for (const auto& k : st.read_keys) {
      touches |= map_->PrimaryOf(k.table, k.key) == failed;
    }
    for (const auto& k : st.write_keys) {
      const NodeId p = map_->PrimaryOf(k.table, k.key);
      touches |= p == failed;
      // A written shard whose backup died can never collect all LOG acks.
      // A planned handoff (backup_touch=false) only wedges transactions
      // whose PRIMARY is departing: the node stays live as a backup, so
      // its acks keep flowing.
      if (backup_touch && !touches) {
        for (NodeId b : repl_->BackupsOf(p)) {
          touches |= b == failed;
        }
      }
    }
    // Nor can a LOG round that awaits the dead node's ack for a shard an
    // earlier failover moved off its chain.
    touches |= backup_touch && st.log_acks.AwaitedFrom(failed).has_value();
    if (!touches) {
      return;
    }
    WedgedTxn w;
    w.h = st.handle();
    w.logs_sent = st.logs_sent;
    w.keys = KeyUnion(st.read_keys, st.write_keys);
    if (st.logs_sent) {
      // Reconstruct the LOG fan-out (one record per written shard) so the
      // sweep can check which live backups already hold or applied it.
      std::vector<NodeId> shards;
      st.WrittenShards(*map_, id(), &shards);
      for (NodeId shard : shards) {
        store::LogRecord rec;
        rec.type = store::LogRecordType::kLog;
        rec.txn = st.id;
        rec.total_shards = static_cast<uint32_t>(shards.size());
        rec.shard = shard;
        st.ShardWrites(*map_, shard, id(), &rec.writes);
        w.records.emplace_back(shard, std::move(rec));
      }
    }
    out.push_back(std::move(w));
  });
  // The sweep resolves them in txn-id order, not in the pool's slot order.
  std::sort(out.begin(), out.end(),
            [](const WedgedTxn& a, const WedgedTxn& b) { return a.h.txn < b.h.txn; });
  return out;
}

std::optional<TxnHandle> XenicNode::HandleOf(TxnId txn) const {
  std::optional<TxnHandle> h;
  pool_.ForEachLive([&](const TxnState& st) {
    if (st.id == txn) {
      h = st.handle();
    }
  });
  return h;
}

size_t XenicNode::ForceCommitWedged(TxnHandle h, NodeId failed) {
  TxnState* st = Live(h);
  if (st == nullptr || st->done == nullptr) {
    return 0;
  }
  // One ack per record the failed node holds, each for its own shard,
  // until the commit point frees the state.
  size_t synthesized = 0;
  while (FindState(h) != nullptr) {
    const std::optional<NodeId> shard = st->log_acks.AwaitedFrom(failed);
    if (!shard) {
      break;
    }
    OnLogAck(h, failed, *shard);
    synthesized++;
  }
  return synthesized;
}

void XenicNode::ForceAbortWedged(TxnHandle h) {
  TxnState* st = Live(h);
  if (st == nullptr || st->done == nullptr) {
    return;
  }
  // The sweep released every lock synchronously; suppress the release
  // fan-out (the messages would be harmless owner-checked no-ops, but a
  // dead shard's would be dropped anyway).
  st->locked_shards.clear();
  AbortCleanup(st, TxnOutcome::kAborted);
}

}  // namespace xenic::txn
