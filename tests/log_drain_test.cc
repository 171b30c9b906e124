// Tests for repl::LogDrain, the one loop that drains a node's commit log
// (Xenic host workers, Xenic NIC-ARM appliers, the baselines' workers), and
// for the branches of the Datastore step it drives: tombstone drops, the
// stability gate, and the stop/restart semantics every caller shares.

#include "src/repl/log_drain.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/baseline/baseline_cluster.h"
#include "src/net/perf_model.h"
#include "src/store/datastore.h"
#include "src/txn/xenic_cluster.h"

namespace xenic::repl {
namespace {

using store::ApplyOutcome;
using store::LogRecord;
using store::LogRecordType;
using store::LogWrite;
using store::Value;

constexpr sim::Tick kInterval = 2 * sim::kNsPerUs;
constexpr sim::Tick kPollCost = 80;  // host ns per poll (log_drain.cc)

LogRecord Record(LogRecordType type, store::TxnId txn, store::Key key, store::Seq seq,
                 uint8_t fill) {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.writes.push_back(LogWrite{0, key, seq, Value(16, fill), false});
  return rec;
}

// Appends `record` to `ds`, its writes moved into the log.
Result<uint64_t> Add(store::Datastore& ds, LogRecord record) {
  return ds.Append(record, &record.writes);
}

// One datastore drained by one context on a host-core pool.
struct Rig {
  explicit Rig(LogDrain::Options options = {})
      : cores(&engine, "cores", 4), ds({store::TableSpec{0, "t", 10, 16, 8, 8}}, {}) {
    options.cores = &cores;
    drain = std::make_unique<LogDrain>(&engine, &ds, options);
  }
  sim::Engine engine;
  sim::Resource cores;
  store::Datastore ds;
  std::unique_ptr<LogDrain> drain;
};

TEST(LogDrainTest, EmptyLogChargesOnlyThePoll) {
  Rig rig;
  rig.drain->Start(1, kInterval);
  rig.engine.RunUntil(2 * kInterval);  // one poll ran; the next is due at 4.08 us
  EXPECT_EQ(rig.cores.completed(), 1u);
  EXPECT_EQ(rig.cores.busy_time(), kPollCost);
}

TEST(LogDrainTest, AppliesRecordAndChargesEachCostScaled) {
  // A NIC-ARM drain: the poll, the record and each write are scaled
  // separately, each truncated to whole ns.
  const double ratio = net::PerfModel{}.arm_multithread_ratio;
  Rig rig({.speed_ratio = ratio});
  ASSERT_TRUE(rig.ds.Load(0, 1, Value(16, 1)).ok());
  ASSERT_TRUE(Add(rig.ds, Record(LogRecordType::kCommit, 100, 1, 2, 9)).ok());
  rig.drain->Start(1, kInterval);
  rig.engine.RunUntil(3 * kInterval);
  EXPECT_EQ(rig.ds.table(0).Lookup(1)->value, Value(16, 9));
  EXPECT_EQ(rig.ds.log().unreclaimed(), 0u);
  EXPECT_EQ(rig.ds.pending_writes(), 0u);
  const sim::Tick poll = net::ScaledCost(kPollCost, ratio);
  const sim::Tick apply = net::ScaledCost(150, ratio) + net::ScaledCost(120, ratio);
  // Two polls (the second finds the log empty) and one apply charge.
  EXPECT_EQ(rig.cores.completed(), 3u);
  EXPECT_EQ(rig.cores.busy_time(), 2 * poll + apply);
}

TEST(LogDrainTest, TombstonedHeadIsDroppedWithoutCost) {
  Rig rig;
  store::Datastore& ds = rig.ds;
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  // The primary NIC's commit pinned its cached copy; the commit record is
  // in the log and in the pending-read index when an epoch change aborts
  // the transaction.
  ds.index(0).ApplyCommit(1, Value(16, 9), 2);
  ASSERT_TRUE(Add(ds, Record(LogRecordType::kCommit, 100, 1, 2, 9)).ok());
  ASSERT_EQ(ds.index(0).pinned_objects(), 1u);
  ds.TombstoneTxn(100);

  rig.drain->Start(1, kInterval);
  rig.engine.RunUntil(2 * kInterval);  // one poll ran; the next is due at 4.08 us
  EXPECT_EQ(ds.table(0).Lookup(1)->seq, 1u) << "tombstoned write applied";
  EXPECT_EQ(ds.pending_writes(), 0u);
  EXPECT_EQ(ds.index(0).pinned_objects(), 0u);
  EXPECT_FALSE(ds.index(0).CachedSeq(1).has_value()) << "aborted value still cached";
  EXPECT_EQ(ds.log().unreclaimed(), 0u);
  EXPECT_EQ(rig.cores.completed(), 1u) << "a dropped record is charged nothing";
  EXPECT_EQ(rig.cores.busy_time(), kPollCost);
}

TEST(LogDrainTest, GatedLogRecordWaitsForStability) {
  Rig rig({.stability_gate = true});
  store::Datastore& ds = rig.ds;
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  LogRecord rec = Record(LogRecordType::kLog, 100, 1, 2, 9);
  rec.shard = 2;
  ASSERT_TRUE(ds.Append(rec, &rec.writes).ok());

  rig.drain->Start(1, kInterval);
  // Polls run at 2 us and 4.08 us; both find the head unstable.
  rig.engine.RunUntil(2 * kInterval + kPollCost + 100);
  EXPECT_EQ(ds.table(0).Lookup(1)->seq, 1u);
  EXPECT_EQ(ds.log().pending(), 1u);
  EXPECT_EQ(rig.cores.busy_time(), 2 * kPollCost);

  ds.log().MarkStable(100);
  rig.engine.RunUntil(4 * kInterval);
  EXPECT_EQ(ds.table(0).Lookup(1)->value, Value(16, 9));
  EXPECT_EQ(ds.log().unreclaimed(), 0u);
  EXPECT_EQ(ds.AppliedShardsOf(100), std::vector<store::NodeId>{2});
}

TEST(LogDrainTest, PollInFlightAtStopAppliesNothing) {
  Rig rig;
  store::Datastore& ds = rig.ds;
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  rig.drain->Start(1, kInterval);
  rig.engine.RunUntil(kInterval + kPollCost / 2);  // the first poll is running
  ASSERT_TRUE(Add(ds, Record(LogRecordType::kCommit, 100, 1, 2, 9)).ok());
  rig.drain->Stop();
  rig.engine.RunUntil(10 * kInterval);
  EXPECT_EQ(ds.log().pending(), 1u);
  EXPECT_EQ(rig.cores.completed(), 1u);
  EXPECT_TRUE(rig.engine.idle()) << "a stopped drain left a tick chain behind";

  rig.drain->Start(1, kInterval);
  rig.engine.RunUntil(12 * kInterval);
  EXPECT_EQ(ds.table(0).Lookup(1)->seq, 2u);
  EXPECT_EQ(ds.log().unreclaimed(), 0u);
}

// Polls the first node's host cores complete in 100 us of an idle cluster
// with 2 workers per node, after a Stop and a Start in the same tick. Each
// worker polls every 2 us + 80 ns, so one poller per worker gives 96.
template <typename Cluster>
uint64_t PollsAfterRestart(Cluster& c, sim::Resource& cores) {
  c.StartWorkers();
  c.engine().RunFor(10 * sim::kNsPerUs);
  c.StopWorkers();
  c.StartWorkers();
  c.engine().RunFor(10 * sim::kNsPerUs);
  const uint64_t before = cores.completed();
  c.engine().RunFor(100 * sim::kNsPerUs);
  return cores.completed() - before;
}

TEST(LogDrainTest, XenicRestartInOneTickKeepsOnePollerPerWorker) {
  txn::XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.workers_per_node = 2;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  txn::HashPartitioner part(3);
  txn::XenicCluster c(o, &part);
  EXPECT_EQ(PollsAfterRestart(c, c.nic(0).host_cores()), 96u);
}

TEST(LogDrainTest, BaselineRestartInOneTickKeepsOnePollerPerWorker) {
  baseline::BaselineClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.workers_per_node = 2;
  o.tables = {baseline::BaselineStore::TableSpec{0, 10, 16}};
  txn::HashPartitioner part(3);
  baseline::BaselineCluster c(o, &part);
  EXPECT_EQ(PollsAfterRestart(c, c.host_cores(0)), 96u);
}

}  // namespace
}  // namespace xenic::repl
