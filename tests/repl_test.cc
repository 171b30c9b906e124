// Replication-subsystem tests: quorum accounting (ReplicationGroup), the
// crash-guard boundary at exactly-quorum survivors, roll-forward/discard
// conformance under configured quorums at replication 3 and 5, the NIC log
// applier's continuous backup apply, fenced replica reads, and planned
// lease handoff (routing flip without crash, chain rewrite, and
// byte-determinism of a handoff chaos run across engine-job counts).

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/chaos/chaos_run.h"
#include "src/repl/failover.h"
#include "src/txn/recovery.h"

namespace xenic::repl {
namespace {

using store::GetI64;
using store::PutI64;
using store::Value;
using txn::ExecRound;
using txn::HashPartitioner;
using txn::RecoveryReport;
using txn::TxnOutcome;
using txn::TxnRequest;
using txn::XenicCluster;
using txn::XenicClusterOptions;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out(16, 0);
  PutI64(out, 0, v);
  return out;
}

XenicClusterOptions Opts(uint32_t nodes, uint32_t repl, uint32_t quorum = 0) {
  XenicClusterOptions o;
  o.num_nodes = nodes;
  o.replication = repl;
  o.quorum = quorum;
  o.tables = {store::TableSpec{kBank, "bank", 12, 16, 8, 8}};
  o.workers_per_node = 2;
  return o;
}

store::Key KeyOn(const XenicCluster& c, store::NodeId node, uint64_t salt = 0) {
  for (store::Key k = salt * 100000 + 1;; ++k) {
    if (c.map().PrimaryOf(kBank, k) == node) {
      return k;
    }
  }
}

TxnRequest Transfer(store::Key a, store::Key b, int64_t amt) {
  TxnRequest req;
  req.reads = {{kBank, a}, {kBank, b}};
  req.writes = {{kBank, a}, {kBank, b}};
  req.execute = [amt](ExecRound& er) {
    (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) - amt);
    (*er.writes)[1].value = Balance(GetI64((*er.reads)[1].value, 0) + amt);
  };
  return req;
}

void RunToDone(XenicCluster& c, bool* done) {
  for (int i = 0; i < 5000 && !*done; ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
  }
  ASSERT_TRUE(*done);
  c.engine().RunFor(1000 * sim::kNsPerUs);
  c.StopWorkers();
  c.engine().Run();
}

// ---------------------------------------------------------------- quorum --

TEST(ReplicationGroupTest, DefaultIsWaitForAll) {
  HashPartitioner part(6);
  XenicCluster c(Opts(6, 3), &part);
  const ReplicationGroup& rg = c.repl();
  EXPECT_EQ(rg.replication(), 3u);
  EXPECT_EQ(rg.quorum(), 3u);
  EXPECT_FALSE(rg.QuorumArmed());
  EXPECT_EQ(rg.AcksRequired(0), rg.BackupsOf(0).size());
  EXPECT_EQ(rg.CompletenessThreshold(0), rg.BackupsOf(0).size());
}

TEST(ReplicationGroupTest, QuorumArmsAndClamps) {
  HashPartitioner part(6);
  XenicCluster c(Opts(6, 3, 2), &part);
  const ReplicationGroup& rg = c.repl();
  EXPECT_EQ(rg.quorum(), 2u);
  EXPECT_TRUE(rg.QuorumArmed());
  // Quorum counts the primary: one backup ack reaches 2 total copies.
  EXPECT_EQ(rg.AcksRequired(0), 1u);
  EXPECT_EQ(rg.CompletenessThreshold(0), 1u);

  // Over-asking clamps back to wait-for-all.
  XenicCluster c2(Opts(6, 3, 7), &part);
  EXPECT_EQ(c2.repl().quorum(), 3u);
  EXPECT_FALSE(c2.repl().QuorumArmed());
}

// Satellite: the chaos crash guard, driven by the configured group rather
// than a hard-coded constant. A crash is admissible exactly when the
// survivors still form a commit quorum.
TEST(ReplicationGroupTest, CrashAllowedAtExactlyQuorumSurvivors) {
  HashPartitioner part(6);
  XenicCluster c(Opts(6, 3, 2), &part);
  const ReplicationGroup& rg = c.repl();
  // 3 live, quorum 2: crashing one leaves exactly quorum -- allowed.
  EXPECT_TRUE(rg.CrashAllowed(3));
  // 2 live: a crash would leave sub-quorum survivors -- refused.
  EXPECT_FALSE(rg.CrashAllowed(2));

  // Default (wait-for-all, quorum == replication == 3): the historical
  // guard shape, crash only while more than `replication` nodes live.
  XenicCluster d(Opts(6, 3), &part);
  EXPECT_TRUE(d.repl().CrashAllowed(4));
  EXPECT_FALSE(d.repl().CrashAllowed(3));
}

TEST(ReplicationGroupTest, IsBackupOfWalksChainAndSkipsFailed) {
  HashPartitioner part(6);
  XenicCluster c(Opts(6, 3), &part);
  const ReplicationGroup& rg = c.repl();
  const auto backups = rg.BackupsOf(2);
  ASSERT_EQ(backups.size(), 2u);
  for (store::NodeId b : backups) {
    EXPECT_TRUE(rg.IsBackupOf(b, 2));
  }
  EXPECT_FALSE(rg.IsBackupOf(2, 2));
  // BackupsOf is a view: hold the node id, not the view, across MarkFailed.
  const store::NodeId first = backups[0];
  c.mutable_map().MarkFailed(first);
  EXPECT_FALSE(rg.IsBackupOf(first, 2));
  EXPECT_EQ(backups.size(), 1u);
}

// --------------------------------------- roll-forward/discard conformance --

store::LogRecord LogRec(store::TxnId txn, store::Key key, int64_t v) {
  store::LogRecord rec;
  rec.type = store::LogRecordType::kLog;
  rec.txn = txn;
  rec.writes.push_back(store::LogWrite{kBank, key, 2, Balance(v), false});
  return rec;
}

// Shared scenario: a LOG record reached `copies` of the failed primary's
// backups before the crash. Returns the recovery report.
RecoveryReport RecoverWithCopies(uint32_t nodes, uint32_t repl, uint32_t quorum,
                                 size_t copies) {
  HashPartitioner part(nodes);
  XenicCluster c(Opts(nodes, repl, quorum), &part);
  const store::NodeId failed = 1;
  const store::Key key = KeyOn(c, failed);
  c.LoadReplicated(kBank, key, Balance(100));
  const auto backups = c.repl().BackupsOf(failed);
  EXPECT_EQ(backups.size(), static_cast<size_t>(repl - 1));
  EXPECT_LE(copies, backups.size());
  const store::TxnId txn = store::MakeTxnId(0, 42);
  for (size_t i = 0; i < copies; ++i) {
    EXPECT_TRUE(c.datastore(backups[i]).log().Append(LogRec(txn, key, 150)).ok());
  }
  return RecoverShard(c, failed, backups[0]);
}

TEST(ReplQuorumRecoveryTest, Replication3QuorumButNotAllRollsForward) {
  // quorum 2 of 3: the coordinator commits after ONE backup ack, so a
  // single surviving copy proves the transaction may have reported.
  RecoveryReport r = RecoverWithCopies(4, 3, 2, 1);
  EXPECT_EQ(r.rolled_forward, 1u);
  EXPECT_EQ(r.discarded, 0u);
}

TEST(ReplQuorumRecoveryTest, Replication3WaitForAllDiscardsSingleCopy) {
  // Same single-copy evidence, but at wait-for-all the commit point needs
  // both backups: the record must be discarded.
  RecoveryReport r = RecoverWithCopies(4, 3, 0, 1);
  EXPECT_EQ(r.rolled_forward, 0u);
  EXPECT_EQ(r.discarded, 1u);
}

TEST(ReplQuorumRecoveryTest, Replication5QuorumButNotAllRollsForward) {
  // quorum 3 of 5 (2 backup acks): two surviving copies out of four
  // backups reach the commit point.
  RecoveryReport r = RecoverWithCopies(6, 5, 3, 2);
  EXPECT_EQ(r.rolled_forward, 1u);
  EXPECT_EQ(r.discarded, 0u);
}

TEST(ReplQuorumRecoveryTest, Replication5SubQuorumDiscards) {
  // One copy is sub-quorum at quorum 3: the coordinator cannot have
  // collected its acks, so recovery discards.
  RecoveryReport r = RecoverWithCopies(6, 5, 3, 1);
  EXPECT_EQ(r.rolled_forward, 0u);
  EXPECT_EQ(r.discarded, 1u);
}

// ------------------------------------------------ quorum ack attribution --

bool HoldsRecord(XenicCluster& c, store::NodeId node, store::TxnId txn, store::NodeId shard) {
  for (const auto& rec : c.datastore(node).log().Snapshot()) {
    if (rec.type == store::LogRecordType::kLog && rec.txn == txn && rec.shard == shard) {
      return true;
    }
  }
  return false;
}

TEST(ReplQuorumAckTest, EachShardReachesItsQuorumWithItsOwnAcks) {
  // Five nodes, three copies, quorum 2: each written shard needs one
  // backup ack. Shards 0 and 1 share backup 2 (0 -> {1, 2}, 1 -> {2, 3}).
  // Shard 0's record is large, so node 2 appends and acks shard 1's record
  // first; node 1's LOG acks are held back. Shard 0 can then reach its
  // quorum only through node 2's ack for shard 0, which node 2 sends after
  // appending that record: when the application hears the commit, node 2
  // must hold it. Crediting node 2's shard-1 ack to shard 0 would report
  // the commit while node 2 is still appending.
  constexpr store::TableId kBig = 1;
  XenicClusterOptions o = Opts(5, 3, 2);
  o.tables.push_back(store::TableSpec{kBig, "big", 10, 1024, 8, 8});
  HashPartitioner part(5);
  XenicCluster c(o, &part);
  TxnRequest req;
  for (store::Key k = 1; req.writes.size() < 64; ++k) {
    if (c.map().PrimaryOf(kBig, k) == 0) {
      req.writes.push_back({kBig, k});
    }
  }
  req.writes.push_back({kBank, KeyOn(c, 1)});
  for (const auto& w : req.writes) {
    c.LoadReplicated(w.table, w.key, Value(w.table == kBig ? 1024 : 16, 0));
  }
  req.allow_ship = false;
  req.execute = [](ExecRound& er) {
    for (size_t i = 0; i < er.writes->size(); ++i) {
      (*er.writes)[i].value = Value((*er.write_keys)[i].table == kBig ? 1024 : 16, 1);
    }
  };
  net::Transport::TypedFault hold;
  hold.match = {net::MsgType::kAck, net::MsgType::kLog};
  hold.retransmit_delay = 500 * sim::kNsPerUs;
  c.node(1).transport().set_typed_fault(hold);

  bool done = false;
  store::TxnId txn = 0;
  txn = c.node(4).Submit(std::move(req), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    EXPECT_TRUE(HoldsRecord(c, 2, txn, 0)) << "commit reported before shard 0's quorum";
    EXPECT_TRUE(HoldsRecord(c, 2, txn, 1));
    done = true;
  });
  c.engine().RunFor(1000 * sim::kNsPerUs);
  EXPECT_TRUE(done);
}

// ----------------------------------------------------- NIC log applier --

TEST(NicLogApplierTest, ContinuouslyAppliesBackupState) {
  XenicClusterOptions o = Opts(3, 2);
  o.features.nic_log_apply = true;
  HashPartitioner part(3);
  XenicCluster c(o, &part);
  const store::Key a = KeyOn(c, 0);
  const store::Key b = KeyOn(c, 1);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(100));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(Transfer(a, b, 30), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);

  EXPECT_GT(c.TotalStats().nic_log_applied, 0u);
  // The backup of b's shard holds the post-commit value: the applier kept
  // the replica continuously current, no recovery scan required.
  const store::NodeId backup = c.repl().BackupsOf(1)[0];
  auto r = c.datastore(backup).table(kBank).Lookup(b);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(GetI64(r->value, 0), 130);
}

// ------------------------------------------------------- replica reads --

TEST(ReplicaReadTest, BackupServesFencedReadLocally) {
  XenicClusterOptions o = Opts(3, 2);
  o.features.nic_log_apply = true;
  o.features.replica_reads = true;
  HashPartitioner part(3);
  XenicCluster c(o, &part);
  const store::Key key = KeyOn(c, 1);
  c.LoadReplicated(kBank, key, Balance(100));
  c.StartWorkers();

  const store::NodeId backup = c.repl().BackupsOf(1)[0];
  ASSERT_NE(backup, 1u);
  int64_t got = 0;
  TxnRequest req;
  req.reads = {{kBank, key}};
  req.execute = [&got](ExecRound& er) { got = GetI64((*er.reads)[0].value, 0); };
  bool done = false;
  c.node(backup).Submit(std::move(req), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);

  EXPECT_EQ(got, 100);
  EXPECT_EQ(c.TotalStats().replica_reads, 1u);
}

TEST(ReplicaReadTest, ReadOffTheShardFallsBackToDistributed) {
  XenicClusterOptions o = Opts(3, 2);
  o.features.nic_log_apply = true;
  o.features.replica_reads = true;
  HashPartitioner part(3);
  XenicCluster c(o, &part);
  const store::Key key = KeyOn(c, 1);
  const store::Key other = KeyOn(c, 0);
  c.LoadReplicated(kBank, key, Balance(100));
  c.LoadReplicated(kBank, other, Balance(50));
  c.StartWorkers();

  // The read starts as a replica read of shard 1 on its backup, then its
  // execution adds a key on shard 0: the backup's snapshot no longer covers
  // the read set, so it escalates and commits on the distributed path.
  const store::NodeId backup = c.repl().BackupsOf(1)[0];
  ASSERT_NE(backup, 1u);
  int64_t got = 0;
  TxnRequest req;
  req.reads = {{kBank, key}};
  req.execute = [&got, other](ExecRound& er) {
    if (er.read_keys->size() == 1) {
      er.add_reads->push_back({kBank, other});
      return;
    }
    got = GetI64((*er.reads)[0].value, 0) + GetI64((*er.reads)[1].value, 0);
  };
  bool done = false;
  c.node(backup).Submit(std::move(req), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);

  EXPECT_EQ(got, 150);
  EXPECT_EQ(c.TotalStats().replica_read_fallback, 1u);
  EXPECT_EQ(c.TotalStats().replica_reads, 0u);
}

TEST(ReplicaReadTest, NonBackupTakesDistributedPath) {
  XenicClusterOptions o = Opts(4, 2);
  o.features.nic_log_apply = true;
  o.features.replica_reads = true;
  HashPartitioner part(4);
  XenicCluster c(o, &part);
  const store::Key key = KeyOn(c, 1);
  c.LoadReplicated(kBank, key, Balance(100));
  c.StartWorkers();

  // Node 3 is not in shard 1's backup chain (replication 2 -> backup is
  // node 2 only): the read must go distributed and still commit.
  ASSERT_FALSE(c.repl().IsBackupOf(3, 1));
  int64_t got = 0;
  TxnRequest req;
  req.reads = {{kBank, key}};
  req.execute = [&got](ExecRound& er) { got = GetI64((*er.reads)[0].value, 0); };
  bool done = false;
  c.node(3).Submit(std::move(req), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);
  EXPECT_EQ(got, 100);
  EXPECT_EQ(c.TotalStats().replica_reads, 0u);
}

// ---------------------------------------------------- planned failover --

TEST(PlannedFailoverTest, HandoffFlipsRoutingWithoutCrash) {
  HashPartitioner part(4);
  XenicCluster c(Opts(4, 3), &part);
  const store::Key key = KeyOn(c, 1);
  c.LoadReplicated(kBank, key, Balance(100));

  std::map<store::NodeId, store::NodeId> promotions;
  std::unique_ptr<txn::RemappedPartitioner> remapped;
  const uint64_t v0 = c.map().version;
  HandoffReport r = PlannedHandoff(c, 1, &part, &promotions, &remapped);
  ASSERT_TRUE(r.performed);
  EXPECT_EQ(r.promoted, c.repl().BackupsOf(1)[0]);
  EXPECT_EQ(c.map().PrimaryOf(kBank, key), r.promoted);
  // No crash, no eviction: the old primary keeps coordinating and acking.
  EXPECT_FALSE(c.node(1).crashed());
  EXPECT_FALSE(c.map().IsFailed(1));
  EXPECT_EQ(c.map().version, v0 + 1);

  // Traffic against the moved shard commits at the new primary.
  c.StartWorkers();
  const store::Key other = KeyOn(c, 0);
  c.LoadReplicated(kBank, other, Balance(100));
  bool done = false;
  c.node(0).Submit(Transfer(other, key, 25), [&](TxnOutcome oc) {
    EXPECT_EQ(oc, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);
  auto after = c.datastore(r.promoted).table(kBank).Lookup(key);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(GetI64(after->value, 0), 125);
}

TEST(PlannedFailoverTest, ChainedHandoffsFollowTheLease) {
  HashPartitioner part(4);
  XenicCluster c(Opts(4, 3), &part);
  const store::Key k1 = KeyOn(c, 1);

  std::map<store::NodeId, store::NodeId> promotions;
  std::unique_ptr<txn::RemappedPartitioner> remapped;
  HandoffReport r1 = PlannedHandoff(c, 1, &part, &promotions, &remapped);
  ASSERT_TRUE(r1.performed);
  // Hand off the promoted node too: shard 1's keys must follow the lease
  // to the SECOND promotion, not dangle at the first.
  HandoffReport r2 = PlannedHandoff(c, r1.promoted, &part, &promotions, &remapped);
  ASSERT_TRUE(r2.performed);
  EXPECT_NE(r2.promoted, r1.promoted);
  EXPECT_EQ(c.map().PrimaryOf(kBank, k1), r2.promoted);
}

TEST(PlannedFailoverTest, RefusesWithoutLiveBackup) {
  HashPartitioner part(4);
  XenicCluster c(Opts(4, 2), &part);  // one backup per shard
  const store::NodeId backup = c.repl().BackupsOf(1)[0];
  c.node(backup).Crash();
  std::map<store::NodeId, store::NodeId> promotions;
  std::unique_ptr<txn::RemappedPartitioner> remapped;
  HandoffReport r = PlannedHandoff(c, 1, &part, &promotions, &remapped);
  EXPECT_FALSE(r.performed);
}

// A handoff chaos run is part of the determinism contract: rerunning the
// same config reproduces the verdict AND the timeline bytes.
TEST(PlannedFailoverTest, HandoffChaosRunIsDeterministic) {
  chaos::ChaosConfig cfg;
  cfg.seed = 5;
  cfg.faults.crashes = 0;
  cfg.faults.planned_handoffs = 2;
  cfg.system.features.nic_log_apply = true;
  cfg.timeline = true;

  const chaos::ChaosVerdict a = chaos::RunChaos(cfg);
  const chaos::ChaosVerdict b = chaos::RunChaos(cfg);
  EXPECT_TRUE(a.ok()) << a.Summary();
  EXPECT_GT(a.faults.handoffs, 0u);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.Timeline(), b.Timeline());
}

// Regression: a crash of a node that had previously RECEIVED a planned
// handoff (promotion chain handoff {A->B}, then crash of B). The one-hop
// routing table must collapse the chain to the crash-promoted backup, and
// the handoff's state transfer must have seeded the new serving set with
// the chained shard's base snapshot -- without either, shard-A reads land
// on a node with no copy (this exact schedule segfaulted on a null read
// result before the fix). Replication 2 makes the chain unavoidable:
// every node has exactly one backup.
TEST(PlannedFailoverTest, CrashAfterHandoffCollapsesPromotionChain) {
  chaos::ChaosConfig cfg;
  cfg.seed = 2;
  cfg.system.replication = 2;
  cfg.faults.crashes = 1;
  cfg.faults.eviction_storms = 2;
  cfg.faults.stall_windows = 1;
  cfg.faults.drop_prob = 0.01;
  cfg.faults.dup_prob = 0.01;
  cfg.faults.delay_prob = 0.02;
  cfg.faults.planned_handoffs = 1;

  const chaos::ChaosVerdict v = chaos::RunChaos(cfg);
  EXPECT_TRUE(v.ok()) << v.Summary();
  EXPECT_EQ(v.faults.crashes, 1u);
  EXPECT_EQ(v.faults.handoffs, 1u);
}

}  // namespace
}  // namespace xenic::repl
