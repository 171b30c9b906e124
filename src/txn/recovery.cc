#include "src/txn/recovery.h"

#include <algorithm>
#include <cassert>

namespace xenic::txn {

ClusterManager::ClusterManager(sim::Engine* engine, uint32_t num_nodes,
                               sim::Tick lease_duration)
    : engine_(engine),
      lease_duration_(lease_duration),
      lease_expiry_(num_nodes, lease_duration),
      failed_(num_nodes, false) {}

void ClusterManager::RenewLease(NodeId node) {
  if (!failed_[node]) {
    lease_expiry_[node] = engine_->now() + lease_duration_;
  }
}

bool ClusterManager::IsAlive(NodeId node) const {
  return !failed_[node] && lease_expiry_[node] > engine_->now();
}

std::vector<NodeId> ClusterManager::ExpiredLeases() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < lease_expiry_.size(); ++n) {
    if (!failed_[n] && lease_expiry_[n] <= engine_->now()) {
      out.push_back(n);
    }
  }
  return out;
}

void ClusterManager::MarkFailed(NodeId node) {
  if (!failed_[node]) {
    failed_[node] = true;
    epoch_++;
  }
}

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

std::vector<NodeId> LiveNodes(XenicCluster& cluster, NodeId failed) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    if (n != failed && !cluster.node(n).crashed()) {
      out.push_back(n);
    }
  }
  return out;
}

// Which shard a record belongs to: the primary of its first write under the
// pre-failure map (every record's writes target exactly one shard).
NodeId ShardOfRecord(const ClusterMap& map, const store::LogRecord& rec) {
  assert(!rec.writes.empty());
  return map.PrimaryOf(rec.writes.front().table, rec.writes.front().key);
}

// Scan every live node's log for unacknowledged LOG records, grouped by
// transaction. Tombstoned records (epoch-aborted transactions) are dead and
// excluded.
std::map<store::TxnId, TxnLogState> CollectInFlight(XenicCluster& cluster, const ClusterMap& map,
                                                    const std::vector<NodeId>& live) {
  std::map<store::TxnId, TxnLogState> out;
  for (NodeId n : live) {
    auto& ds = cluster.datastore(n);
    for (const auto& rec : ds.log().Snapshot()) {
      if (rec.type != store::LogRecordType::kLog || rec.writes.empty() ||
          ds.IsTombstoned(rec.txn)) {
        continue;
      }
      TxnLogState& t = out[rec.txn];
      t.total_shards = std::max(t.total_shards, rec.total_shards);
      auto [it, inserted] = t.shards.try_emplace(ShardOfRecord(map, rec));
      if (inserted) {
        it->second.record = rec;
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
    for (NodeId n : live) {
      const auto& ds = cluster.datastore(n);
      for (NodeId shard : ds.AppliedShardsOf(txn)) {
        auto [it, inserted] = t.shards.try_emplace(shard);
        (void)inserted;
        it->second.appliers.push_back(n);
      }
    }
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
bool IsComplete(XenicCluster& cluster, const TxnLogState& t,
                const std::vector<NodeId>& live) {
  if (t.shards.size() < t.total_shards) {
    return false;
  }
  for (const auto& [shard, sr] : t.shards) {
    size_t evidence = 0;
    for (NodeId b : cluster.repl().BackupsOf(shard)) {
      const bool is_live = std::find(live.begin(), live.end(), b) != live.end();
      if (!is_live) {
        // The dead backup's copy is unobservable: it may have acked before
        // dying, so count it toward the coordinator's quorum (roll-forward
        // of a maybe-reported transaction is the safe direction).
        evidence++;
        continue;
      }
      const bool holds =
          std::find(sr.holders.begin(), sr.holders.end(), b) != sr.holders.end() ||
          std::find(sr.appliers.begin(), sr.appliers.end(), b) != sr.appliers.end() ||
          AppliedAt(cluster.datastore(b), sr.record);
      if (holds) {
        evidence++;
      }
    }
    if (evidence < cluster.repl().CompletenessThreshold(shard)) {
      return false;
    }
  }
  return true;
}

// Apply one write at `ds` if newer, refreshing the NIC index so cached
// copies and location hints cannot go stale.
void ApplyRecoveredWrite(store::Datastore& ds, const store::LogWrite& w) {
  if (w.table >= ds.num_tables()) {
    return;  // workload-managed state is rebuilt by workload-level recovery
  }
  auto& t = ds.table(w.table);
  const auto current = t.GetSeq(w.key).value_or(0);
  if (w.seq > current) {
    if (w.is_delete) {
      t.Erase(w.key);
    } else {
      t.Apply(w.key, w.value, w.seq);
    }
    ds.index(w.table).Invalidate(w.key);
    const size_t seg = t.SegmentOfKey(w.key);
    ds.index(w.table).UpdateHint(seg, t.SegmentMaxDisp(seg), t.SegmentHasOverflow(seg));
  }
}

}  // namespace

EpochSweepReport SweepWedgedTxns(XenicCluster& cluster, NodeId failed) {
  EpochSweepReport report;
  const ClusterMap& map = cluster.map();
  const std::vector<NodeId> live = LiveNodes(cluster, failed);
  for (NodeId n : live) {
    XenicNode& node = cluster.node(n);
    for (const auto& w : node.WedgedOn(failed)) {
      // Commit iff the fan-out demonstrably reached the commit point for
      // every written shard: enough copies among live backups (dead
      // backups count conservatively -- their ack may have been the one
      // that completed the quorum) that only the dead node's acks are
      // missing, and the commit decision is forced. Anything pre-LOG, or
      // with too few records at live backups (in-flight or
      // back-pressured), aborts.
      bool complete = w.logs_sent && !w.records.empty();
      for (const auto& [shard, rec] : w.records) {
        if (!complete) {
          break;
        }
        size_t evidence = 0;
        for (NodeId b : cluster.repl().BackupsOf(shard)) {
          if (std::find(live.begin(), live.end(), b) == live.end()) {
            evidence++;  // unobservable dead backup: counted for commit
            continue;
          }
          bool holds = AppliedAt(cluster.datastore(b), rec);
          if (!holds) {
            for (const auto& r : cluster.datastore(b).log().Snapshot()) {
              if (r.txn == w.id && !r.writes.empty() && ShardOfRecord(map, r) == shard) {
                holds = true;
                break;
              }
            }
          }
          if (holds) {
            evidence++;
          }
        }
        if (evidence < cluster.repl().CompletenessThreshold(shard)) {
          complete = false;
        }
      }
      if (complete) {
        report.acks_synthesized += node.ForceCommitWedged(w.id, failed);
        report.committed++;
        report.committed_txns.push_back(w.id);
      } else {
        // Abort decision is made exactly once, here: tombstone any records
        // the transaction already replicated (live backups must never
        // apply them, and the recovery scan must not roll them forward),
        // release its locks cluster-wide (shipped transactions lock read
        // keys at the remote executor without recording it, so sweep the
        // full key set -- ReleaseLock is owner-checked), then abort.
        for (NodeId m : live) {
          cluster.datastore(m).TombstoneTxn(w.id);
        }
        for (NodeId m : live) {
          auto& ds = cluster.datastore(m);
          for (const auto& k : w.keys) {
            if (k.table < ds.num_tables() && map.PrimaryOf(k.table, k.key) == m) {
              ds.index(k.table).ReleaseLock(k.key, w.id);
            }
          }
        }
        node.ForceAbortWedged(w.id);
        report.aborted++;
      }
    }
  }
  return report;
}

RecoveryReport RecoverShard(XenicCluster& cluster, NodeId failed, NodeId promoted,
                            const std::vector<store::TxnId>& known_committed) {
  RecoveryReport report;
  const ClusterMap& map = cluster.map();
  const auto backups = cluster.repl().BackupsOf(failed);
  assert(std::find(backups.begin(), backups.end(), promoted) != backups.end() &&
         "promoted node must be a backup of the failed primary");

  const std::vector<NodeId> live = LiveNodes(cluster, failed);

  // Collect the cluster-wide in-flight log state, then restrict attention
  // to transactions with a record on the failed shard.
  std::map<store::TxnId, TxnLogState> all_in_flight = CollectInFlight(cluster, map, live);
  struct Found {
    store::LogRecord record;
    size_t copies = 0;
    bool complete = false;
  };
  std::map<store::TxnId, Found> in_flight;
  for (const auto& [txn, state] : all_in_flight) {
    auto it = state.shards.find(failed);
    if (it == state.shards.end()) {
      continue;
    }
    Found f;
    f.record = it->second.record;
    f.copies = it->second.holders.size();
    // Three sources of commit evidence, in order of strength: the log scan
    // itself (a record on every live backup of every written shard), the
    // epoch sweep's forced-commit list, and -- for transactions whose
    // coordinator survived -- the coordinator's reported outcome. The last
    // one matters when a reported transaction's records were applied and
    // reclaimed on some shards before the failure (no trace left for the
    // scan) while a stalled backup still holds the failed shard's record.
    const NodeId coord = store::TxnNode(txn);
    const bool coord_says_committed =
        coord < cluster.size() && !cluster.node(coord).crashed() &&
        cluster.node(coord).HasReportedCommit(txn);
    f.complete = IsComplete(cluster, state, live) ||
                 std::find(known_committed.begin(), known_committed.end(), txn) !=
                     known_committed.end() ||
                 coord_says_committed;
    report.records_scanned += f.copies;
    in_flight.emplace(txn, std::move(f));
  }

  // The promoted node's NIC cache was never maintained by the commit
  // protocol for the failed shard (backups' NICs serve no lookups):
  // invalidate every cached value of that shard so lookups refill from the
  // recovered host table.
  auto& promoted_ds = cluster.datastore(promoted);
  for (store::TableId t = 0; t < promoted_ds.num_tables(); ++t) {
    for (const auto& e : promoted_ds.index(t).CachedEntries()) {
      if (map.PrimaryOf(t, e.key) == failed) {
        promoted_ds.index(t).Invalidate(e.key);
      }
    }
  }

  // Rebuild lock state at the new primary before serving (4.2.1: "lock
  // state is reconstructed ... Once all locks are set, the shard can serve
  // new transactions").
  XenicNode& new_primary = cluster.node(promoted);
  std::vector<store::LogRecord> records;
  records.reserve(in_flight.size());
  for (auto& [txn, f] : in_flight) {
    records.push_back(f.record);
  }
  report.locks_rebuilt = new_primary.RebuildLocksFromLog(records);

  // Reconcile: a transaction whose LOG records reached every surviving
  // replica of every written shard may have been reported committed -- roll
  // it forward; anything else never committed and is discarded (and
  // tombstoned so no survivor's worker applies it later).
  for (auto& [txn, f] : in_flight) {
    auto& ds = cluster.datastore(promoted);
    for (const auto& w : f.record.writes) {
      if (w.table >= ds.num_tables()) {
        continue;
      }
      if (map.PrimaryOf(w.table, w.key) != failed) {
        continue;
      }
      if (f.complete) {
        ApplyRecoveredWrite(ds, w);
      }
      ds.index(w.table).ReleaseLock(w.key, txn);
    }
    if (f.complete) {
      // Mark the commit stable at every survivor: with the NIC applier
      // armed (features.nic_log_apply) a kLog record is parked until its
      // transaction's commit point is known, and the dead coordinator can
      // no longer say so. Recovery is the stability authority here.
      for (NodeId n : live) {
        cluster.datastore(n).log().MarkStable(txn);
      }
      report.rolled_forward++;
    } else {
      for (NodeId n : live) {
        cluster.datastore(n).TombstoneTxn(txn);
      }
      report.discarded++;
    }
  }
  return report;
}

CoordinatorSweepReport RecoverCoordinatorLocks(XenicCluster& cluster, NodeId failed) {
  CoordinatorSweepReport report;
  const ClusterMap& map = cluster.map();
  const std::vector<NodeId> live = LiveNodes(cluster, failed);
  std::map<store::TxnId, TxnLogState> in_flight = CollectInFlight(cluster, map, live);

  // Candidates: transactions coordinated by the failed node that left
  // either orphaned locks (EXECUTE locks eagerly) or replicated records.
  std::map<store::TxnId, bool> candidates;  // txn -> has log records
  for (const auto& [txn, state] : in_flight) {
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
          candidates.try_emplace(lk.owner, in_flight.count(lk.owner) > 0);
        }
      }
    }
  }

  for (const auto& [txn, has_records] : candidates) {
    report.txns_swept++;
    const bool complete =
        has_records && IsComplete(cluster, in_flight.at(txn), live);
    if (complete) {
      // The dead coordinator may have reported commit: finish its job at
      // every live primary (the failed shard itself is RecoverShard's).
      for (const auto& [shard, sr] : in_flight.at(txn).shards) {
        if (shard == failed ||
            std::find(live.begin(), live.end(), shard) == live.end()) {
          continue;
        }
        for (const auto& w : sr.record.writes) {
          ApplyRecoveredWrite(cluster.datastore(shard), w);
        }
      }
      // The dead coordinator never sent its stability notices; unblock any
      // armed NIC appliers still parked on this transaction's records.
      for (NodeId n : live) {
        cluster.datastore(n).log().MarkStable(txn);
      }
      report.rolled_forward++;
    } else {
      for (NodeId n : live) {
        cluster.datastore(n).TombstoneTxn(txn);
      }
      report.discarded++;
    }
    // Either way, every lock the transaction holds at a live node dies.
    for (NodeId n : live) {
      auto& ds = cluster.datastore(n);
      for (store::TableId t = 0; t < ds.num_tables(); ++t) {
        for (const auto& lk : ds.index(t).LockedKeys()) {
          if (lk.owner == txn) {
            ds.index(t).ReleaseLock(lk.key, txn);
            report.locks_released++;
          }
        }
      }
    }
  }
  return report;
}

}  // namespace xenic::txn
