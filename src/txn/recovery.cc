#include "src/txn/recovery.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "src/net/message.h"

namespace xenic::txn {

namespace {

// One transaction's replicated-but-unacknowledged log footprint across the
// live cluster: per written shard, the record and the set of live nodes
// holding a copy.
struct ShardRecord {
  store::LogRecord record;
  std::vector<NodeId> holders;
  // Live nodes whose applied-record index shows they applied (and possibly
  // reclaimed) this shard's record -- receipt evidence with no log copy
  // left. An entry created from this evidence alone has an empty `record`:
  // nothing to re-apply (the evidence is that it already was).
  std::vector<NodeId> appliers;
};
struct TxnLogState {
  uint32_t total_shards = 1;
  std::map<NodeId, ShardRecord> shards;  // keyed by the shard's primary
};

// The log evidence of one failover, by transaction. Collected once; a step
// that tombstones a transaction erases it, as a fresh scan would skip it.
using Evidence = std::map<store::TxnId, TxnLogState>;

bool Contains(const std::vector<NodeId>& nodes, NodeId n) {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}

// Which shard a record belongs to: the primary of its first write under the
// pre-failure map (every record's writes target exactly one shard).
NodeId ShardOfRecord(const ClusterMap& map, const store::LogRecordView& rec) {
  assert(!rec.writes.empty());
  return map.PrimaryOf(rec.writes.front().table, rec.writes.front().key);
}

// Fold the applied-record indexes of the live nodes into `t`.
void AddAppliers(XenicCluster& cluster, store::TxnId txn, const std::vector<NodeId>& live,
                 TxnLogState* t) {
  for (NodeId n : live) {
    for (NodeId shard : cluster.datastore(n).AppliedShardsOf(txn, &t->total_shards)) {
      t->shards[shard].appliers.push_back(n);
    }
  }
}

// Scan every live node's log for unacknowledged LOG records, grouped by
// transaction. Tombstoned records (epoch-aborted transactions) are dead and
// excluded.
Evidence CollectEvidence(XenicCluster& cluster, const std::vector<NodeId>& live) {
  const ClusterMap& map = cluster.map();
  Evidence out;
  for (NodeId n : live) {
    auto& ds = cluster.datastore(n);
    const store::CommitLog& log = ds.log();
    for (size_t i = 0; i < log.unreclaimed(); ++i) {
      const store::LogRecordView& rec = log.Record(i);
      if (rec.type != store::LogRecordType::kLog || rec.writes.empty() ||
          ds.IsTombstoned(rec.txn)) {
        continue;
      }
      TxnLogState& t = out[rec.txn];
      t.total_shards = std::max(t.total_shards, rec.total_shards);
      auto [it, inserted] = t.shards.try_emplace(ShardOfRecord(map, rec));
      if (inserted) {
        it->second.record = store::LogRecord{rec, {rec.writes.begin(), rec.writes.end()}};
      }
      it->second.holders.push_back(n);
    }
  }
  // Second evidence pass: a record applied and reclaimed leaves no log copy
  // but the datastore's applied-record index still names its (txn, shard).
  // Without this a committed transaction whose records were consumed on
  // every replica of one shard looks incomplete ("t.shards.size() <
  // total_shards") and gets discarded -- resurrecting pre-transaction
  // versions on the promoted primary.
  for (auto& [txn, t] : out) {
    AddAppliers(cluster, txn, live, &t);
  }
  return out;
}

// A backup's host workers apply LOG records eagerly and reclaim them, so
// "holds the record" has two forms of evidence: the record is still in the
// node's log, or every one of its datastore writes already reached the
// node's tables (seqs are monotone, so a later version also proves the
// write took effect). Records carrying only workload-managed writes leave
// no table evidence; for those only the log counts.
bool AppliedAt(const store::Datastore& ds, const store::LogRecord& rec) {
  bool any = false;
  for (const auto& w : rec.writes) {
    if (w.table >= ds.num_tables()) {
      continue;
    }
    any = true;
    const auto seq = ds.table(w.table).GetSeq(w.key);
    if (w.is_delete) {
      continue;  // an erased key proves nothing either way; skip
    }
    if (!seq.has_value() || *seq < w.seq) {
      return false;
    }
  }
  return any;
}

// Global completeness rule: records exist for every written shard and each
// gathered enough copies -- among live holders plus unobservable dead
// backups, counted conservatively for commit -- to have reached the
// coordinator's commit point (repl::ReplicationGroup::CompletenessThreshold;
// at the default wait-for-all quorum this reduces to "every live backup
// holds or applied it"). Exactly then may the coordinator have collected
// its LOG acks and reported commit.
bool IsComplete(XenicCluster& cluster, const TxnLogState& t, const std::vector<NodeId>& live) {
  if (t.shards.size() < t.total_shards) {
    return false;
  }
  for (const auto& [shard, sr] : t.shards) {
    size_t evidence = 0;
    for (NodeId b : cluster.repl().BackupsOf(shard)) {
      // The dead backup's copy is unobservable: it may have acked before
      // dying, so count it toward the coordinator's quorum (roll-forward of
      // a maybe-reported transaction is the safe direction).
      if (!Contains(live, b) || Contains(sr.holders, b) || Contains(sr.appliers, b) ||
          AppliedAt(cluster.datastore(b), sr.record)) {
        evidence++;
      }
    }
    if (evidence < cluster.repl().CompletenessThreshold(shard)) {
      return false;
    }
  }
  return true;
}

// The one seq-guarded recovery write: apply `w` at `ds` only if it is newer
// than what `ds` holds, then drop the NIC's cached copy and refresh the
// segment hint so lookups refill from the host table. Returns whether it
// wrote.
bool WriteIfNewer(store::Datastore& ds, const store::LogWrite& w) {
  if (w.table >= ds.num_tables()) {
    return false;  // workload-managed state is rebuilt by workload-level recovery
  }
  auto& t = ds.table(w.table);
  if (w.seq <= t.GetSeq(w.key).value_or(0)) {
    return false;
  }
  if (w.is_delete) {
    t.Erase(w.key);
  } else {
    t.Apply(w.key, w.value, w.seq);
  }
  ds.index(w.table).Invalidate(w.key);
  const size_t seg = t.SegmentOfKey(w.key);
  ds.index(w.table).UpdateHint(seg, t.SegmentMaxDisp(seg), t.SegmentHasOverflow(seg));
  return true;
}

// Roll a dead coordinator's committed writes forward at a live primary that
// keeps serving. A key whose last COMMIT is still pending in the log there
// has a pinned cached copy and a pending-index entry that shadow the host
// table, and that record's apply would overwrite the table: such writes go
// through the commit path instead, as a COMMIT record behind the pending
// one, applied at the NIC (or, with the log ring full, the table as before).
void RollForwardAtPrimary(store::Datastore& ds, store::TxnId txn,
                          const std::vector<store::LogWrite>& writes) {
  store::LogRecord commit;
  commit.type = store::LogRecordType::kCommit;
  commit.txn = txn;
  const bool can_append = !ds.log().Full();
  for (const auto& w : writes) {
    if (w.table >= ds.num_tables()) {
      continue;
    }
    const std::optional<store::Seq> fresh = ds.FreshSeq(w.table, w.key);
    if (!can_append || fresh == ds.table(w.table).GetSeq(w.key)) {
      WriteIfNewer(ds, w);
    } else if (w.seq > fresh.value_or(0)) {
      commit.writes.push_back(w);
    }
  }
  if (commit.writes.empty()) {
    return;
  }
  for (const auto& w : commit.writes) {
    ds.index(w.table).ApplyCommit(w.key, w.value, w.seq);
  }
  ds.Append(commit, &commit.writes);
}

// The roll-forward step: apply the writes of a committed record that land
// on `shard` at the node taking the shard over.
void RollForward(store::Datastore& ds, const ClusterMap& map, const store::LogRecordView& rec,
                 NodeId shard) {
  for (const auto& w : rec.writes) {
    if (w.table < ds.num_tables() && map.PrimaryOf(w.table, w.key) == shard) {
      WriteIfNewer(ds, w);
    }
  }
}

// The promoted node's NIC cache was never maintained by the commit
// protocol for the shard it takes over (a backup's NIC serves no lookups):
// drop those entries so lookups refill from the host tables. Returns
// entries dropped.
size_t DropCachedShard(XenicCluster& cluster, NodeId promoted, NodeId shard) {
  size_t dropped = 0;
  auto& ds = cluster.datastore(promoted);
  for (store::TableId t = 0; t < ds.num_tables(); ++t) {
    for (const auto& e : ds.index(t).CachedEntries()) {
      if (cluster.map().PrimaryOf(t, e.key) == shard) {
        ds.index(t).Invalidate(e.key);
        dropped++;
      }
    }
  }
  return dropped;
}

// Abort a wedged transaction across the cluster, exactly once: tombstone
// its records on every live node (no backup may apply them, and no
// recovery scan may roll them forward), release its keys at their
// primaries (shipped transactions lock read keys at the remote executor
// without recording it, so sweep the full key set -- ReleaseLock is
// owner-checked), then abort it at its coordinator.
void AbortEverywhere(XenicCluster& cluster, const std::vector<NodeId>& live, XenicNode& coord,
                     const XenicNode::WedgedTxn& w) {
  for (NodeId m : live) {
    cluster.datastore(m).TombstoneTxn(w.h.txn);
  }
  for (NodeId m : live) {
    auto& ds = cluster.datastore(m);
    for (const auto& k : w.keys) {
      if (k.table < ds.num_tables() && cluster.map().PrimaryOf(k.table, k.key) == m) {
        ds.index(k.table).ReleaseLock(k.key, w.h.txn);
      }
    }
  }
  coord.ForceAbortWedged(w.h);
}

// Epoch-change sweep: every live coordinator's wedged transactions --
// unreported in-flight transactions involving the failed node -- are
// resolved exactly once. A transaction whose own LOG records are complete
// (IsComplete) is committed by synthesizing the dead node's acks; anything
// pre-LOG, or with too few copies at live backups (in flight or
// back-pressured), aborts. Returns the committed transactions.
std::vector<store::TxnId> SweepWedgedTxns(XenicCluster& cluster, NodeId failed,
                                          const std::vector<NodeId>& live, Evidence& ev,
                                          CrashReport* report) {
  std::vector<store::TxnId> committed;
  for (NodeId n : live) {
    XenicNode& node = cluster.node(n);
    for (auto& w : node.WedgedOn(failed)) {
      bool complete = false;
      if (w.logs_sent && !w.records.empty()) {
        // The coordinator knows every written shard, including one whose
        // only copies died with the failed node.
        TxnLogState t;
        t.total_shards = static_cast<uint32_t>(w.records.size());
        const auto found = ev.find(w.h.txn);
        for (auto& [shard, rec] : w.records) {
          ShardRecord& sr = t.shards[shard];
          sr.record = std::move(rec);
          if (found != ev.end()) {
            if (auto it = found->second.shards.find(shard); it != found->second.shards.end()) {
              sr.holders = it->second.holders;
              sr.appliers = it->second.appliers;
            }
          }
        }
        complete = IsComplete(cluster, t, live);
      }
      if (complete) {
        report->acks_synthesized += node.ForceCommitWedged(w.h, failed);
        report->sweep_committed++;
        committed.push_back(w.h.txn);
      } else {
        AbortEverywhere(cluster, live, node, w);
        ev.erase(w.h.txn);
        report->sweep_aborted++;
      }
    }
  }
  return committed;
}

// Promote `promoted` (a backup) to primary for the shards of `failed`:
// rebuild lock state at the new primary from the in-doubt records of those
// shards, then roll forward transactions whose LOG records reached every
// surviving replica of every written shard (the coordinator may have
// reported commit) and discard the rest, releasing locks and tombstoning
// the discarded records so no surviving backup applies them later.
// `known_committed` lists transactions the sweep decided to commit (their
// coordinator is live and was unwedged by synthesizing the dead node's
// acks): they are rolled forward regardless of what the log scan alone can
// prove.
void RecoverShard(XenicCluster& cluster, NodeId failed, NodeId promoted,
                  const std::vector<NodeId>& live, Evidence& ev,
                  const std::vector<store::TxnId>& known_committed, CrashReport* report) {
  const ClusterMap& map = cluster.map();
  assert(cluster.repl().IsBackupOf(promoted, failed) &&
         "promoted node must be a backup of the failed primary");

  struct InDoubt {
    store::TxnId txn;
    const store::LogRecord* record;  // into `ev`
    bool complete;
  };
  std::vector<InDoubt> in_doubt;
  for (const auto& [txn, state] : ev) {
    auto it = state.shards.find(failed);
    if (it == state.shards.end()) {
      continue;
    }
    // Three sources of commit evidence, in order of strength: the log scan
    // itself (a record on every live backup of every written shard), the
    // epoch sweep's forced-commit list, and -- for transactions whose
    // coordinator survived -- the coordinator's reported outcome. The last
    // one matters when a reported transaction's records were applied and
    // reclaimed on some shards before the failure (no trace left for the
    // scan) while a stalled backup still holds the failed shard's record.
    const NodeId coord = store::TxnNode(txn);
    const bool coord_says_committed = coord < cluster.size() &&
                                      !cluster.node(coord).crashed() &&
                                      cluster.node(coord).HasReportedCommit(txn);
    const bool complete =
        IsComplete(cluster, state, live) ||
        std::find(known_committed.begin(), known_committed.end(), txn) !=
            known_committed.end() ||
        coord_says_committed;
    report->records_scanned += it->second.holders.size();
    in_doubt.push_back({txn, &it->second.record, complete});
  }

  DropCachedShard(cluster, promoted, failed);

  // Rebuild lock state at the new primary before serving (4.2.1: "lock
  // state is reconstructed ... Once all locks are set, the shard can serve
  // new transactions").
  std::vector<store::LogRecord> records;
  records.reserve(in_doubt.size());
  for (const InDoubt& d : in_doubt) {
    records.push_back(*d.record);
  }
  report->locks_rebuilt = cluster.node(promoted).RebuildLocksFromLog(records);

  auto& ds = cluster.datastore(promoted);
  for (const InDoubt& d : in_doubt) {
    if (d.complete) {
      RollForward(ds, map, *d.record, failed);
    }
    for (const auto& w : d.record->writes) {
      if (w.table < ds.num_tables() && map.PrimaryOf(w.table, w.key) == failed) {
        ds.index(w.table).ReleaseLock(w.key, d.txn);
      }
    }
    if (d.complete) {
      // Mark the commit stable at every survivor: with the NIC applier
      // armed (features.nic_log_apply) a kLog record is parked until its
      // transaction's commit point is known, and the dead coordinator can
      // no longer say so. Recovery is the stability authority here.
      for (NodeId n : live) {
        cluster.datastore(n).log().MarkStable(d.txn);
      }
      report->rolled_forward++;
    } else {
      for (NodeId n : live) {
        cluster.datastore(n).TombstoneTxn(d.txn);
      }
      ev.erase(d.txn);
      report->discarded++;
    }
  }
}

// Coordinator-failure sweep: transactions coordinated by `failed` can leave
// locks (EXECUTE acquires them eagerly) and replicated-but-unapplied LOG
// records at live primaries. Complete transactions are rolled forward at
// the live primaries (with NIC caches refreshed), incomplete ones are
// tombstoned; either way every lock such a transaction holds is released.
void RecoverCoordinatorLocks(XenicCluster& cluster, NodeId failed,
                             const std::vector<NodeId>& live, const Evidence& ev,
                             CrashReport* report) {
  // Candidates: transactions coordinated by the failed node that left
  // either orphaned locks or replicated records.
  std::map<store::TxnId, bool> candidates;  // txn -> has log records
  for (const auto& [txn, state] : ev) {
    (void)state;
    if (store::TxnNode(txn) == failed) {
      candidates[txn] = true;
    }
  }
  for (NodeId n : live) {
    auto& ds = cluster.datastore(n);
    for (store::TableId t = 0; t < ds.num_tables(); ++t) {
      for (const auto& lk : ds.index(t).LockedKeys()) {
        if (store::TxnNode(lk.owner) == failed) {
          candidates.try_emplace(lk.owner, ev.count(lk.owner) > 0);
        }
      }
    }
  }

  for (const auto& [txn, has_records] : candidates) {
    report->coord_swept++;
    // A transaction whose records were all applied and reclaimed left only
    // the applied-record indexes (and its locks) behind.
    TxnLogState applied;
    if (!has_records) {
      AddAppliers(cluster, txn, live, &applied);
    }
    const TxnLogState& t = has_records ? ev.at(txn) : applied;
    if (IsComplete(cluster, t, live)) {
      // The dead coordinator may have reported commit: finish its job at
      // every live primary (the failed shard itself is RecoverShard's).
      for (const auto& [shard, sr] : t.shards) {
        if (shard == failed || !Contains(live, shard)) {
          continue;
        }
        std::vector<store::LogWrite> writes = sr.record.writes;
        if (writes.empty() && !sr.appliers.empty()) {
          // No copy of the record is left, but a backup applied it, and the
          // keys the transaction still locks here have no newer writer:
          // take their values from that backup.
          auto& ds = cluster.datastore(shard);
          auto& backup = cluster.datastore(sr.appliers.front());
          for (store::TableId tb = 0; tb < ds.num_tables(); ++tb) {
            for (const auto& lk : ds.index(tb).LockedKeys()) {
              if (lk.owner != txn) {
                continue;
              }
              if (const auto entry = backup.table(tb).Lookup(lk.key)) {
                writes.push_back(store::LogWrite{tb, lk.key, entry->seq, entry->value, false});
              }
            }
          }
        }
        RollForwardAtPrimary(cluster.datastore(shard), txn, writes);
      }
      // The dead coordinator never sent its stability notices; unblock any
      // armed NIC appliers still parked on this transaction's records.
      for (NodeId n : live) {
        cluster.datastore(n).log().MarkStable(txn);
      }
      report->coord_rolled_forward++;
    } else {
      for (NodeId n : live) {
        cluster.datastore(n).TombstoneTxn(txn);
      }
      report->coord_discarded++;
    }
    // Either way, every lock the transaction holds at a live node dies.
    for (NodeId n : live) {
      auto& ds = cluster.datastore(n);
      for (store::TableId t = 0; t < ds.num_tables(); ++t) {
        for (const auto& lk : ds.index(t).LockedKeys()) {
          if (lk.owner == txn) {
            ds.index(t).ReleaseLock(lk.key, txn);
            report->locks_released++;
          }
        }
      }
    }
  }
}

// Re-replication after a primary-role move. LOG fan-out follows the
// SERVING node's backup chain, so when a shard moves to `to_primary` its
// backups start receiving the shard's records -- but they never held its
// base snapshot. This copies every entry of
// `holder`'s host tables whose key currently routes to `routed` (the
// pre-flip serving node) into `to_primary` and each of its live backups.
// Without it a SECOND failure of the new serving node would promote a
// backup with only the post-move tail of the shard. Returns entries copied.
size_t TransferShardState(XenicCluster& cluster, NodeId holder, NodeId routed,
                          NodeId to_primary) {
  std::vector<NodeId> targets;
  targets.push_back(to_primary);
  for (NodeId b : cluster.repl().BackupsOf(to_primary)) {
    targets.push_back(b);
  }
  size_t copied = 0;
  auto& src = cluster.datastore(holder);
  for (store::TableId t = 0; t < src.num_tables(); ++t) {
    for (store::Key k : src.table(t).Keys()) {
      if (cluster.map().PrimaryOf(t, k) != routed) {
        continue;
      }
      const auto entry = src.table(t).Lookup(k);
      if (!entry) {
        continue;
      }
      const store::LogWrite w{t, k, entry->seq, entry->value, false};
      for (NodeId n : targets) {
        if (n != holder && !cluster.node(n).crashed() && WriteIfNewer(cluster.datastore(n), w)) {
          copied++;
        }
      }
    }
  }
  return copied;
}

}  // namespace

CrashReport CrashFailover(XenicCluster& cluster, NodeId failed) {
  CrashReport report;
  const std::optional<NodeId> backup = cluster.FirstLiveBackup(failed);
  assert(backup.has_value() && "no live backup to promote");
  if (cluster.Serves(failed)) {
    report.promoted = backup;
  }
  const std::vector<NodeId> live = cluster.LiveNodes();
  Evidence ev = CollectEvidence(cluster, live);

  // Order matters: resolve wedged transactions at live coordinators first
  // (commit the provably replicated, abort and tombstone the rest), then
  // recover the failed shards and the failed coordinator's leftovers
  // against the pre-failure map, and only then move the routing.
  const std::vector<store::TxnId> committed = SweepWedgedTxns(cluster, failed, live, ev, &report);
  if (report.promoted) {
    RecoverShard(cluster, failed, *report.promoted, live, ev, committed, &report);
  }
  RecoverCoordinatorLocks(cluster, failed, live, ev, &report);
  if (report.promoted) {
    // Re-replicate while the map still routes the failed node's keys here:
    // the recovered state (backup base plus the rolled-forward in-doubt
    // tail) is now authoritative at the promoted node.
    TransferShardState(cluster, *report.promoted, failed, *report.promoted);
    cluster.MoveShards(failed, *report.promoted);
  }
  // Evict the dead node from the membership view last: the sweep and the
  // recovery steps above reason about the pre-failure replica chains, but
  // from here on LOG fan-out must not wait on the dead backup's ack.
  cluster.Evict(failed);
  return report;
}

HandoffReport PlannedHandoff(XenicCluster& cluster, NodeId from) {
  HandoffReport report;
  if (cluster.node(from).crashed() || !cluster.Serves(from)) {
    // A dead node's lease cannot be handed off, only swept, and a node
    // that serves no shard holds no lease.
    return report;
  }
  const std::optional<NodeId> promoted = cluster.FirstLiveBackup(from);
  if (!promoted) {
    return report;
  }
  const std::vector<NodeId> live = cluster.LiveNodes();

  // Straggler sweep, pure abort. A transaction still in flight against the
  // departing primary could otherwise complete after the routing flip and
  // address its COMMIT (or a shipped execution's late-arriving acks) to the
  // new primary, leaking locks at the old one -- which, unlike in crash
  // recovery, stays alive to honor them. Only transactions whose PRIMARY
  // role is moving are touched (backup_touch=false): `from` keeps acking as
  // a backup. These transactions have not reported, so the abort is clean.
  for (NodeId n : live) {
    XenicNode& node = cluster.node(n);
    for (const auto& w : node.WedgedOn(from, /*backup_touch=*/false)) {
      AbortEverywhere(cluster, live, node, w);
      report.stragglers_aborted++;
    }
  }

  // Roll the promoted node forward. Its log drain may be stalled, leaving
  // LOG records of committed transactions unapplied, and the transfer below
  // copies only the departing primary's host tables. With the stragglers
  // tombstoned, what remains in its log for the moving shards is committed.
  auto& promoted_ds = cluster.datastore(*promoted);
  const store::CommitLog& promoted_log = promoted_ds.log();
  for (size_t i = 0; i < promoted_log.unreclaimed(); ++i) {
    const store::LogRecordView& rec = promoted_log.Record(i);
    if (rec.type == store::LogRecordType::kLog && !promoted_ds.IsTombstoned(rec.txn)) {
      RollForward(promoted_ds, cluster.map(), rec, from);
    }
  }

  report.cache_invalidated = DropCachedShard(cluster, *promoted, from);
  // Re-replicate before the flip. The departing primary is alive and
  // authoritative, so it copies its entries for every key it serves.
  report.records_transferred = TransferShardState(cluster, from, from, *promoted);

  // The lease itself crosses the wire (accounting; the flip below is
  // synchronous, modeling a new primary that serves the instant its lease
  // is valid -- the paper's planned reconfiguration has no detection or
  // scan delay).
  XenicNode* server = &cluster.node(*promoted);
  cluster.node(from).transport().Send(
      net::MsgType::kLeaseHandoff, *promoted, net::wire::LeaseHandoff(),
      [server, from] { server->ServeLeaseHandoff(from); }, 0);

  // `from` stays in the membership view (live coordinator, live backup);
  // only the primary role moves.
  cluster.MoveShards(from, *promoted);
  report.performed = true;
  report.promoted = *promoted;
  return report;
}

}  // namespace xenic::txn
