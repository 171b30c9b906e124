// Recovery tests (paper 4.2.1): the crash failover's backup promotion with
// lock-state reconstruction, roll-forward/discard decisions from surviving
// logs, and post-recovery routing through the cluster's remap.

#include <gtest/gtest.h>

#include <optional>

#include "src/chaos/history.h"
#include "src/txn/recovery.h"

namespace xenic::txn {
namespace {

using store::GetI64;
using store::MakeValue;
using store::PutI64;
using store::Value;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out = MakeValue(16, 0);
  PutI64(out, 0, v);
  return out;
}

XenicClusterOptions Opts() {
  XenicClusterOptions o;
  o.num_nodes = 4;
  o.replication = 3;  // primary + 2 backups: one survivor pair per shard
  o.tables = {store::TableSpec{kBank, "bank", 12, 16, 8, 8}};
  return o;
}

store::Key KeyOn(const XenicCluster& c, store::NodeId node, uint64_t salt = 0) {
  for (store::Key k = salt * 100000 + 1;; ++k) {
    if (c.map().PrimaryOf(kBank, k) == node) {
      return k;
    }
  }
}

TEST(RemappedPartitionerTest, RoutesFailedShards) {
  HashPartitioner base(4);
  RemappedPartitioner remap(&base, 4);
  remap.Move(2, 3);
  for (store::Key k = 0; k < 1000; ++k) {
    const store::NodeId orig = base.PrimaryOf(0, k);
    const store::NodeId now = remap.PrimaryOf(0, k);
    if (orig == 2) {
      EXPECT_EQ(now, 3u);
    } else {
      EXPECT_EQ(now, orig);
    }
  }
}

TEST(RecoveryTest, RollsForwardCompleteTransactions) {
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 1;
  const store::Key key = KeyOn(c, failed);
  c.LoadReplicated(kBank, key, Balance(100));

  // A transaction reached its commit point: LOG records on BOTH surviving
  // backups, but the primary crashed before applying.
  const store::TxnId txn = store::MakeTxnId(0, 99);
  store::LogRecord rec;
  rec.type = store::LogRecordType::kLog;
  rec.txn = txn;
  rec.writes.push_back(store::LogWrite{kBank, key, 2, Balance(150), false});
  for (store::NodeId b : c.map().BackupsOf(failed)) {
    ASSERT_TRUE(c.datastore(b).log().AppendCopy(rec, rec.writes).ok());
  }

  const store::NodeId promoted = c.map().BackupsOf(failed)[0];
  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.promoted, promoted);
  EXPECT_EQ(report.rolled_forward, 1u);
  EXPECT_EQ(report.discarded, 0u);
  EXPECT_GE(report.locks_rebuilt, 1u);
  // The new primary holds the committed value, lock released.
  auto r = c.datastore(promoted).table(kBank).Lookup(key);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(GetI64(r->value, 0), 150);
  EXPECT_EQ(r->seq, 2u);
  EXPECT_FALSE(c.datastore(promoted).index(kBank).IsLocked(key));
  // The promoted node's stale backup cache was invalidated: a remote
  // lookup must serve the ROLLED-FORWARD value, not the load-time one.
  store::NicIndex::LookupStats st;
  auto cached = c.datastore(promoted).index(kBank).LookupRemote(key, &st);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(GetI64(cached->value, 0), 150);
  EXPECT_EQ(cached->seq, 2u);
}

TEST(RecoveryTest, DiscardsIncompleteTransactions) {
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 1;
  const store::Key key = KeyOn(c, failed);
  c.LoadReplicated(kBank, key, Balance(100));

  // LOG record reached only ONE backup: the commit point was never
  // reached, so recovery must discard it.
  const store::TxnId txn = store::MakeTxnId(2, 7);
  store::LogRecord rec;
  rec.txn = txn;
  rec.writes.push_back(store::LogWrite{kBank, key, 2, Balance(999), false});
  const auto backups = c.map().BackupsOf(failed);
  ASSERT_TRUE(c.datastore(backups[0]).log().AppendCopy(rec, rec.writes).ok());

  const store::NodeId promoted = backups[0];
  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.rolled_forward, 0u);
  EXPECT_EQ(report.discarded, 1u);
  auto r = c.datastore(promoted).table(kBank).Lookup(key);
  EXPECT_EQ(GetI64(r->value, 0), 100);  // old value preserved
  EXPECT_FALSE(c.datastore(promoted).index(kBank).IsLocked(key));
}

TEST(RecoveryTest, RollsForwardADeadCoordinatorsFullyAppliedTransaction) {
  // The coordinator (node 2) reached its commit point and crashed before
  // its COMMITs left: its locks stand at the live primaries, and every live
  // backup already applied and reclaimed its LOG records, so only the
  // applied-record indexes are left. The write must reach the primaries.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 2;
  const store::Key a = KeyOn(c, 0);  // backups 1, 2
  const store::Key b = KeyOn(c, 3);  // backups 0, 1
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(100));
  const store::TxnId txn = store::MakeTxnId(failed, 5);
  ASSERT_TRUE(c.datastore(0).index(kBank).AcquireLock(a, txn).ok());
  ASSERT_TRUE(c.datastore(3).index(kBank).AcquireLock(b, txn).ok());
  store::LogRecord on_a;
  on_a.type = store::LogRecordType::kLog;
  on_a.txn = txn;
  on_a.total_shards = 2;
  on_a.shard = 0;
  on_a.writes.push_back(store::LogWrite{kBank, a, 2, Balance(90), false});
  store::LogRecord on_b = on_a;
  on_b.shard = 3;
  on_b.writes[0] = store::LogWrite{kBank, b, 2, Balance(110), false};
  c.datastore(1).ApplyLogRecord(on_a, /*stability_gate=*/false);
  c.datastore(0).ApplyLogRecord(on_b, /*stability_gate=*/false);
  c.datastore(1).ApplyLogRecord(on_b, /*stability_gate=*/false);

  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.coord_rolled_forward, 1u);
  EXPECT_EQ(report.coord_discarded, 0u);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(a)->value, 0), 90);
  EXPECT_EQ(GetI64(c.datastore(3).table(kBank).Lookup(b)->value, 0), 110);
  EXPECT_FALSE(c.datastore(0).index(kBank).IsLocked(a));
  EXPECT_FALSE(c.datastore(3).index(kBank).IsLocked(b));
}

TEST(RecoveryTest, DeadCoordinatorRollForwardSurvivesAPendingCommit) {
  // Node 0 holds an earlier transaction's COMMIT in its log, not yet
  // applied (its cached copy pinned). The dead coordinator's transaction
  // then locked the key and reached its commit point at node 0's backups.
  // Rolling it forward must leave its version in place once the earlier
  // COMMIT applies.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 2;
  const store::Key a = KeyOn(c, 0);  // backups 1, 2
  c.LoadReplicated(kBank, a, Balance(100));
  store::LogRecord earlier;
  earlier.type = store::LogRecordType::kCommit;
  earlier.txn = store::MakeTxnId(1, 4);
  earlier.writes.push_back(store::LogWrite{kBank, a, 2, Balance(80), false});
  c.datastore(0).index(kBank).ApplyCommit(a, Balance(80), 2);
  ASSERT_TRUE(c.datastore(0).Append(earlier, &earlier.writes).ok());
  const store::TxnId txn = store::MakeTxnId(failed, 5);
  ASSERT_TRUE(c.datastore(0).index(kBank).AcquireLock(a, txn).ok());
  store::LogRecord rec;
  rec.type = store::LogRecordType::kLog;
  rec.txn = txn;
  rec.shard = 0;
  rec.writes.push_back(store::LogWrite{kBank, a, 3, Balance(70), false});
  c.datastore(1).ApplyLogRecord(rec, /*stability_gate=*/false);

  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.coord_rolled_forward, 1u);
  c.StartWorkers();
  c.engine().RunFor(100 * sim::kNsPerUs);
  const auto r = c.datastore(0).table(kBank).Lookup(a);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->seq, 3u);
  EXPECT_EQ(GetI64(r->value, 0), 70);
  EXPECT_EQ(c.datastore(0).index(kBank).pinned_objects(), 0u);
  c.StopWorkers();
  c.engine().Run();
}

// A read-modify-write transfer of `amt` from `from` to `to`.
TxnRequest Transfer(store::Key from, store::Key to, int64_t amt) {
  TxnRequest req;
  req.reads = {{kBank, from}, {kBank, to}};
  req.writes = {{kBank, from}, {kBank, to}};
  req.execute = [amt](ExecRound& er) {
    (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) - amt);
    (*er.writes)[1].value = Balance(GetI64((*er.reads)[1].value, 0) + amt);
  };
  return req;
}

TEST(RecoveryTest, EndToEndPromotionServesNewTransactions) {
  // Run real traffic, crash a node, fail over, and keep running against the
  // promoted primary.
  HashPartitioner part(4);
  XenicClusterOptions opts = Opts();
  XenicCluster c(opts, &part);
  const store::NodeId failed = 2;
  const store::Key a = KeyOn(c, failed);
  const store::Key b = KeyOn(c, 0);
  c.LoadReplicated(kBank, a, Balance(500));
  c.LoadReplicated(kBank, b, Balance(500));
  c.StartWorkers();

  // Commit one transfer before the failure.
  auto run = [&](TxnRequest req) {
    bool done = false;
    c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
      done = true;
      EXPECT_EQ(o, TxnOutcome::kCommitted);
    });
    for (int i = 0; i < 1000 && !done; ++i) {
      c.engine().RunFor(10 * sim::kNsPerUs);
    }
    EXPECT_TRUE(done);
    c.engine().RunFor(500 * sim::kNsPerUs);
  };
  run(Transfer(a, b, 50));

  const store::NodeId promoted = c.map().BackupsOf(failed)[0];
  c.node(failed).Crash();
  CrashFailover(c, failed);
  EXPECT_EQ(GetI64(c.datastore(promoted).table(kBank).Lookup(a)->value, 0), 450);

  // New transactions route to the promoted primary and commit there.
  EXPECT_EQ(c.map().PrimaryOf(kBank, a), promoted);
  EXPECT_EQ(c.map().PrimaryOf(kBank, b), 0u);
  run(Transfer(a, b, 50));
  EXPECT_EQ(GetI64(c.datastore(promoted).table(kBank).Lookup(a)->value, 0), 400);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(b)->value, 0), 600);

  c.StopWorkers();
  c.engine().Run();
}

// Submit one recorded read-modify-write (balance += delta) from `coord`
// and wait for its outcome; committed observations land in `recorder`.
TxnOutcome RunRecordedRmw(XenicCluster& c, chaos::HistoryRecorder& recorder,
                          store::NodeId coord, store::Key key, int64_t delta) {
  TxnRequest req;
  req.reads = {{kBank, key}};
  req.writes = {{kBank, key}};
  req.execute = [delta](ExecRound& er) {
    (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) + delta);
  };
  auto obs = recorder.Instrument(req);
  std::optional<TxnOutcome> out;
  c.node(coord).Submit(std::move(req), [&](TxnOutcome o) { out = o; });
  for (int i = 0; i < 2000 && !out; ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
  }
  EXPECT_TRUE(out.has_value());
  if (out == TxnOutcome::kCommitted) {
    recorder.Commit(obs);
  }
  return out.value_or(TxnOutcome::kAborted);
}


TEST(RecoveryTest, CrashBetweenLogAndAckRollsForwardUnderTheChecker) {
  // The coordinator reached the commit point -- LOG records on BOTH
  // surviving backups -- but the primary crashed before any ack came back,
  // so the client never learned the outcome and no observation was
  // committed to the recorder. Recovery must roll the write forward, and a
  // post-recovery transaction must read it: the checker sees that read as a
  // version gap (an unrecorded writer), which is tolerated, and the history
  // must still be serializable.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 1;
  const store::Key key = KeyOn(c, failed);
  c.LoadReplicated(kBank, key, Balance(100));
  c.StartWorkers();

  chaos::HistoryRecorder recorder;
  ASSERT_EQ(RunRecordedRmw(c, recorder, 0, key, 50), TxnOutcome::kCommitted);
  c.engine().RunFor(200 * sim::kNsPerUs);  // let the commit apply everywhere

  const store::TxnId in_doubt = store::MakeTxnId(3, 7777);  // live coordinator
  store::LogRecord staged;
  staged.type = store::LogRecordType::kLog;
  staged.txn = in_doubt;
  staged.writes.push_back(store::LogWrite{kBank, key, 3, Balance(200), false});
  for (store::NodeId b : c.map().BackupsOf(failed)) {
    ASSERT_TRUE(c.datastore(b).log().AppendCopy(staged, staged.writes).ok());
  }

  const store::NodeId promoted = c.map().BackupsOf(failed)[0];
  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.rolled_forward, 1u);
  EXPECT_EQ(report.discarded, 0u);

  ASSERT_EQ(RunRecordedRmw(c, recorder, 0, key, 25), TxnOutcome::kCommitted);
  c.engine().RunFor(200 * sim::kNsPerUs);

  const chaos::CheckResult res = recorder.Check();
  EXPECT_TRUE(res.ok()) << (res.violations.empty() ? "" : res.violations.front());
  EXPECT_EQ(res.txns, 2u);
  EXPECT_EQ(res.version_gaps, 1u);  // the rolled-forward writer was never recorded
  auto r = c.datastore(promoted).table(kBank).Lookup(key);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(GetI64(r->value, 0), 225);  // 200 rolled forward, then +25
  EXPECT_EQ(r->seq, 4u);

  c.StopWorkers();
  c.engine().Run();
}

TEST(RecoveryTest, CrashBeforeFullReplicationDiscardsUnderTheChecker) {
  // The LOG record reached only ONE backup before the primary crashed: the
  // commit point was never reached, so recovery must discard the write. A
  // post-recovery transaction then reads the last committed version -- no
  // version gap, and the discarded value must never surface.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::NodeId failed = 1;
  const store::Key key = KeyOn(c, failed);
  c.LoadReplicated(kBank, key, Balance(100));
  c.StartWorkers();

  chaos::HistoryRecorder recorder;
  ASSERT_EQ(RunRecordedRmw(c, recorder, 0, key, 50), TxnOutcome::kCommitted);
  c.engine().RunFor(200 * sim::kNsPerUs);

  const store::TxnId in_doubt = store::MakeTxnId(3, 7778);
  store::LogRecord staged;
  staged.type = store::LogRecordType::kLog;
  staged.txn = in_doubt;
  staged.writes.push_back(store::LogWrite{kBank, key, 3, Balance(999), false});
  const auto backups = c.map().BackupsOf(failed);
  ASSERT_TRUE(c.datastore(backups[0]).log().AppendCopy(staged, staged.writes).ok());

  const store::NodeId promoted = backups[0];
  c.node(failed).Crash();
  const CrashReport report = CrashFailover(c, failed);
  EXPECT_EQ(report.rolled_forward, 0u);
  EXPECT_EQ(report.discarded, 1u);

  ASSERT_EQ(RunRecordedRmw(c, recorder, 0, key, 25), TxnOutcome::kCommitted);
  c.engine().RunFor(200 * sim::kNsPerUs);

  const chaos::CheckResult res = recorder.Check();
  EXPECT_TRUE(res.ok()) << (res.violations.empty() ? "" : res.violations.front());
  EXPECT_EQ(res.txns, 2u);
  EXPECT_EQ(res.version_gaps, 0u);  // the discarded write is invisible
  auto r = c.datastore(promoted).table(kBank).Lookup(key);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(GetI64(r->value, 0), 175);  // 100 + 50, discarded 999 never seen, +25
  EXPECT_EQ(r->seq, 3u);

  c.StopWorkers();
  c.engine().Run();
}

// balance += 1 on `key`, on the EXECUTE pipeline (never shipped).
TxnRequest Increment(store::Key key) {
  TxnRequest req;
  req.reads = {{kBank, key}};
  req.writes = {{kBank, key}};
  req.allow_ship = false;
  req.execute = [](ExecRound& er) {
    (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) + 1);
  };
  return req;
}

TEST(RecoveryTest, WedgedOnListsTransactionsInTxnIdOrder) {
  // The sweep resolves a coordinator's wedged transactions in txn-id order,
  // not in the order its pool stores their states. Node 0's first
  // submission finishes and its slot goes to the third, so slot order
  // (third, second) disagrees with id order (second, third); both wait on
  // node 2, which is down.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::Key local = KeyOn(c, 0);
  const store::Key remote = KeyOn(c, 2);
  c.LoadReplicated(kBank, local, Balance(100));
  c.LoadReplicated(kBank, remote, Balance(100));
  c.node(2).Crash();
  XenicNode& coord = c.node(0);
  TxnRequest read;
  read.reads = {{kBank, local}};
  std::optional<TxnOutcome> first_outcome;
  const store::TxnId first =
      coord.Submit(std::move(read), [&](TxnOutcome o) { first_outcome = o; });
  const store::TxnId second = coord.Submit(Increment(remote), [](TxnOutcome) {});
  c.engine().RunFor(50 * sim::kNsPerUs);
  ASSERT_EQ(first_outcome, TxnOutcome::kCommitted);
  EXPECT_FALSE(coord.HandleOf(first).has_value());
  const store::TxnId third = coord.Submit(Increment(remote), [](TxnOutcome) {});
  c.engine().RunFor(50 * sim::kNsPerUs);
  const std::optional<TxnHandle> second_h = coord.HandleOf(second);
  const std::optional<TxnHandle> third_h = coord.HandleOf(third);
  ASSERT_TRUE(second_h.has_value() && third_h.has_value());
  ASSERT_LT(second, third);
  ASSERT_LT(third_h->slot, second_h->slot);

  const std::vector<XenicNode::WedgedTxn> wedged = coord.WedgedOn(2);
  ASSERT_EQ(wedged.size(), 2u);
  EXPECT_EQ(wedged[0].h.txn, second);
  EXPECT_EQ(wedged[1].h.txn, third);
}

TEST(RecoveryTest, SecondFailoverFindsALogAckAwaitedFromAMovedShardsBackup) {
  // Two crashes before the first failover: node 1 coordinates a write to
  // shard 2 (backups 3 and 0), and as its LOG fan-out leaves, node 2 and
  // node 3 crash. Node 0 acks. Node 2's failover judges the transaction
  // complete, has no ack of node 2's to synthesize, and moves shard 2 to
  // node 0, whose backups do not include node 3. The transaction still
  // waits for node 3's ack, so node 3's failover must flag it although the
  // shard it writes is no longer backed there, and then commits it.
  HashPartitioner part(4);
  XenicCluster c(Opts(), &part);
  const store::Key key = KeyOn(c, 2);
  c.LoadReplicated(kBank, key, Balance(100));
  ASSERT_TRUE(c.repl().IsBackupOf(3, 2));
  ASSERT_TRUE(c.repl().IsBackupOf(0, 2));
  XenicNode& coord = c.node(1);
  std::optional<TxnOutcome> out;
  coord.Submit(Increment(key), [&](TxnOutcome o) { out = o; });
  while (coord.stats().by_type.MsgCount(net::MsgType::kLog) == 0 &&
         c.engine().now() < 100 * sim::kNsPerUs) {
    c.engine().RunFor(10);
  }
  ASSERT_EQ(coord.stats().by_type.MsgCount(net::MsgType::kLog), 2u);
  c.node(2).Crash();
  c.node(3).Crash();
  c.engine().RunFor(20 * sim::kNsPerUs);  // node 0 appends the record and acks

  const CrashReport first = CrashFailover(c, 2);
  EXPECT_EQ(first.sweep_committed, 1u);
  EXPECT_EQ(first.acks_synthesized, 0u);
  EXPECT_EQ(c.map().PrimaryOf(kBank, key), 0u);
  EXPECT_FALSE(c.repl().IsBackupOf(3, 0));
  c.engine().RunFor(20 * sim::kNsPerUs);
  EXPECT_FALSE(out.has_value());  // node 3's ack never comes

  const std::vector<XenicNode::WedgedTxn> wedged = coord.WedgedOn(3);
  ASSERT_EQ(wedged.size(), 1u);
  EXPECT_TRUE(wedged[0].logs_sent);
  const CrashReport second = CrashFailover(c, 3);
  EXPECT_EQ(second.sweep_committed, 1u);
  EXPECT_EQ(second.acks_synthesized, 1u);
  c.engine().RunFor(50 * sim::kNsPerUs);
  EXPECT_EQ(out, TxnOutcome::kCommitted);
}

}  // namespace
}  // namespace xenic::txn
