// Unit tests for the transaction core both coordinators share
// (src/txn/txn_core.h): the LOG-ack tracker's per-(sender, shard)
// accounting at the default wait-for-all quorum and under a quorum, and
// the key-set steps -- app rounds, shard grouping, written shards and
// their log writes, the first-cause abort reason -- plus the outcome tally,
// and the pool of reusable states behind handles.

#include <gtest/gtest.h>

#include "src/repl/replication_group.h"
#include "src/txn/txn_core.h"

namespace xenic::txn {
namespace {

// Key k lives on node k % nodes, so tests can place keys by hand.
class ModPartitioner : public Partitioner {
 public:
  explicit ModPartitioner(uint32_t nodes) : nodes_(nodes) {}
  NodeId PrimaryOf(TableId, Key key) const override { return static_cast<NodeId>(key % nodes_); }

 private:
  uint32_t nodes_;
};

// Four nodes, three copies: shard 0 is backed by nodes 1 and 2, shard 1 by
// nodes 2 and 3, so node 2 backs both.
struct Cluster {
  explicit Cluster(uint32_t quorum) : part(4), repl(&map, quorum) {
    map.num_nodes = 4;
    map.replication = 3;
    map.partitioner = &part;
  }
  ModPartitioner part;
  ClusterMap map;
  repl::ReplicationGroup repl;
};

TEST(LogAcksTest, WaitForAllNeedsEveryAck) {
  Cluster c(0);
  LogAcks acks;
  EXPECT_EQ(acks.Expect(&c.repl, {0, 1}), 4u);
  EXPECT_FALSE(acks.Met());
  EXPECT_FALSE(acks.Ack(2, 1));
  EXPECT_FALSE(acks.Ack(2, 0));
  EXPECT_FALSE(acks.Ack(3, 1));
  EXPECT_TRUE(acks.Ack(1, 0));
  EXPECT_TRUE(acks.Met());
}

TEST(LogAcksTest, QuorumCountsEachAckAgainstItsOwnShard) {
  // Quorum 2 of 3: each shard needs one backup ack. Node 2's ack for shard
  // 1 and node 3's ack leave shard 0 with none, so no commit point yet.
  Cluster c(2);
  LogAcks acks;
  acks.Expect(&c.repl, {0, 1});
  EXPECT_FALSE(acks.Ack(2, 1));
  EXPECT_FALSE(acks.Ack(3, 1));
  EXPECT_FALSE(acks.Met());
  EXPECT_TRUE(acks.Ack(1, 0));
  // Past the commit point every straggler is ignored.
  EXPECT_FALSE(acks.Ack(2, 0));
  EXPECT_TRUE(acks.Met());
}

TEST(LogAcksTest, UnexpectedAndRepeatedAcksAreIgnored) {
  Cluster c(0);
  LogAcks acks;
  acks.Expect(&c.repl, {0});
  EXPECT_FALSE(acks.Ack(3, 0));  // node 3 does not back shard 0
  EXPECT_FALSE(acks.Ack(1, 1));  // shard 1 has no record in this round
  EXPECT_FALSE(acks.Ack(1, 0));
  EXPECT_FALSE(acks.Ack(1, 0));  // a second ack from node 1 counts nothing
  EXPECT_FALSE(acks.Met());
  EXPECT_TRUE(acks.Ack(2, 0));
}

TEST(LogAcksTest, QuorumOfOneIsMetOnceArmed) {
  Cluster c(1);
  LogAcks acks;
  EXPECT_EQ(acks.Expect(&c.repl, {0, 1}), 4u);
  EXPECT_TRUE(acks.Met());
}

TEST(LogAcksTest, ExpectedSignalIsRequiredEvenUnderAQuorum) {
  constexpr NodeId kSignal = static_cast<NodeId>(-1);
  Cluster c(1);
  LogAcks acks;
  acks.Expect(&c.repl, {0});
  acks.Expect(kSignal, kSignal);
  EXPECT_FALSE(acks.Met());
  EXPECT_TRUE(acks.Ack(kSignal, kSignal));
}

TEST(LogAcksTest, AwaitedFromNamesEachRecordOfTheSender) {
  // An epoch sweep synthesizes the failed node's acks one record at a time.
  Cluster c(0);
  LogAcks acks;
  acks.Expect(&c.repl, {0, 1});
  EXPECT_FALSE(acks.AwaitedFrom(0).has_value());
  std::optional<NodeId> shard = acks.AwaitedFrom(2);
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(*shard, 0u);
  acks.Ack(2, *shard);
  shard = acks.AwaitedFrom(2);
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(*shard, 1u);
  acks.Ack(2, *shard);
  EXPECT_FALSE(acks.AwaitedFrom(2).has_value());
  acks.Ack(1, 0);
  EXPECT_TRUE(acks.Ack(3, 1));
}

TEST(LogAcksTest, ShardWithoutLiveBackupsNeedsNoAck) {
  Cluster c(0);
  c.map.MarkFailed(2);
  c.map.MarkFailed(3);
  LogAcks acks;
  EXPECT_EQ(acks.Expect(&c.repl, {0, 1}), 1u);  // shard 1 has none left
  EXPECT_TRUE(acks.Ack(1, 0));
}

TxnRequest TwoRoundRequest() {
  TxnRequest req;
  req.reads = {{0, 4}, {0, 1}};
  req.writes = {{0, 5}};
  req.execute = [](ExecRound& er) {
    if (er.round == 0) {
      er.add_reads->push_back({0, 6});
      er.add_writes->push_back({0, 9});
      return;
    }
    (*er.writes)[0].value = Value(8, 1);
    (*er.writes)[1].value = Value(8, 2);
  };
  return req;
}

TEST(TxnCoreTest, AppRoundAppendsTheNextRoundsKeys) {
  Cluster c(0);
  TxnCore core;
  core.Init(7, TwoRoundRequest(), nullptr);
  ASSERT_EQ(core.reads.size(), 2u);
  ASSERT_EQ(core.writes.size(), 1u);

  std::vector<ShardGroup> groups;
  ASSERT_EQ(core.GroupByShard(c.map, &groups), 2u);
  EXPECT_EQ(groups[0].primary, 0u);  // key 4: the first read's shard first
  EXPECT_EQ(groups[0].read_idx, std::vector<uint32_t>{0});
  EXPECT_EQ(groups[1].primary, 1u);  // keys 1 and 5
  EXPECT_EQ(groups[1].read_idx, std::vector<uint32_t>{1});
  EXPECT_EQ(groups[1].write_idx, std::vector<uint32_t>{0});

  core.AppRound();
  EXPECT_FALSE(core.app_abort);
  EXPECT_TRUE(core.HasNewKeys());
  EXPECT_EQ(core.reads.size(), 3u);
  EXPECT_EQ(core.write_seqs.size(), 2u);
  // The next EXECUTE round groups only the added keys 6 and 9.
  ASSERT_EQ(core.GroupByShard(c.map, &groups), 2u);
  EXPECT_EQ(groups[0].primary, 2u);
  EXPECT_EQ(groups[0].read_idx, std::vector<uint32_t>{2});
  EXPECT_EQ(groups[1].primary, 1u);
  EXPECT_EQ(groups[1].write_idx, std::vector<uint32_t>{1});

  core.round++;
  core.AppRound();
  EXPECT_FALSE(core.HasNewKeys());
  EXPECT_EQ(core.writes[1].value, Value(8, 2));

  core.ResetKeys();
  EXPECT_EQ(core.read_keys.size(), 2u);
  EXPECT_EQ(core.round, 0);
  EXPECT_EQ(core.GroupByShard(c.map, &groups), 2u);
}

TEST(TxnCoreTest, WrittenShardsCarryTheirWritesAndTheCoordinatorsLogWrites) {
  Cluster c(0);
  TxnRequest req;
  req.writes = {{0, 5}, {0, 2}, {0, 9}};
  req.local_log_writes = {store::LogWrite{100, 1, 0, Value(4, 7), false}};
  TxnCore core;
  core.Init(7, std::move(req), nullptr);
  core.write_seqs = {3, 0, 8};

  std::vector<NodeId> shards;
  core.WrittenShards(c.map, /*coord=*/3, &shards);
  EXPECT_EQ(shards, (std::vector<NodeId>{1, 2, 3}));

  std::vector<store::LogWrite> writes;
  core.ShardWrites(c.map, 1, /*coord=*/3, &writes);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].key, 5u);
  EXPECT_EQ(writes[0].seq, 4u);  // the new version
  EXPECT_EQ(writes[1].key, 9u);
  EXPECT_EQ(writes[1].seq, 9u);
  core.ShardWrites(c.map, 3, /*coord=*/3, &writes);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].table, 100u);
}

TEST(TxnCoreTest, ShardWritesGrowsAReusedVectorByDoubling) {
  Cluster c(0);
  std::vector<store::LogWrite> writes;
  int reallocations = 0;
  for (uint32_t n : {0u, 3u, 5u, 6u, 7u, 8u}) {
    TxnRequest req;
    for (uint32_t i = 0; i < n; ++i) {
      req.writes.push_back({0, 1 + 4 * i});  // every key on shard 1
    }
    TxnCore core;
    core.Init(7, std::move(req), nullptr);
    const size_t capacity = writes.capacity();
    core.ShardWrites(c.map, 1, /*coord=*/3, &writes);
    ASSERT_EQ(writes.size(), n);
    reallocations += writes.capacity() != capacity ? 1 : 0;
  }
  // Capacities 4 and 8, and none for the empty record; reserving each
  // record's exact size would reallocate for all five others.
  EXPECT_EQ(reallocations, 2);
}

TEST(TxnCoreTest, ValidateShardsSkipsWrittenKeys) {
  Cluster c(0);
  TxnRequest req;
  req.reads = {{0, 5}, {0, 2}, {0, 6}, {0, 1}};
  req.writes = {{0, 2}};
  TxnCore core;
  core.Init(7, std::move(req), nullptr);
  std::vector<NodeId> shards;
  EXPECT_EQ(core.ValidateShards(c.map, &shards), 3u);
  EXPECT_EQ(shards, (std::vector<NodeId>{1, 2}));
}

TEST(TxnCoreTest, FirstAbortCauseWinsAndIsTallied) {
  TxnCore core;
  core.Abort(AbortReason::kLockExecute);
  core.Abort(AbortReason::kValidate);
  EXPECT_TRUE(core.abort);
  EXPECT_EQ(core.abort_reason, AbortReason::kLockExecute);

  TxnStats stats;
  stats.Count(TxnOutcome::kAborted, core.abort_reason);
  stats.Count(TxnOutcome::kAborted, AbortReason::kGap);
  stats.Count(TxnOutcome::kAborted, AbortReason::kNone);
  stats.Count(TxnOutcome::kAppAborted, AbortReason::kNone);
  stats.Count(TxnOutcome::kCommitted, AbortReason::kNone);
  EXPECT_EQ(stats.aborted, 3u);
  EXPECT_EQ(stats.abort_lock_execute, 1u);
  EXPECT_EQ(stats.abort_gap, 1u);
  EXPECT_EQ(stats.abort_other, 1u);
  EXPECT_EQ(stats.app_aborted, 1u);
  EXPECT_EQ(stats.committed, 1u);
}

struct PooledState : PooledTxn {
  std::vector<uint32_t> scratch;
};

TxnRequest ReadsOf(std::vector<Key> keys) {
  TxnRequest req;
  for (Key k : keys) {
    req.reads.push_back({0, k});
  }
  return req;
}

TEST(TxnPoolTest, HandleOfAReleasedTransactionResolvesToNullAfterItsSlotIsReused) {
  TxnPool<PooledState> pool;
  PooledState* aborted = pool.Acquire();
  aborted->Init(101, ReadsOf({1, 2, 3}), nullptr);
  aborted->scratch.assign(8, 0);
  const TxnHandle late = aborted->handle();
  ASSERT_EQ(pool.Find(late), aborted);

  // The transaction aborts while one of its verbs is still in flight; the
  // verb's completion holds `late`.
  pool.Release(aborted);
  EXPECT_EQ(pool.Find(late), nullptr);

  // The next transaction takes the same slot, at the same address, with
  // its vectors' capacity kept. The late completion still finds nothing,
  // so it cannot touch the new transaction.
  PooledState* next = pool.Acquire();
  EXPECT_EQ(next, aborted);
  next->Init(102, ReadsOf({4}), nullptr);
  EXPECT_EQ(next->handle().slot, late.slot);
  EXPECT_EQ(pool.Find(late), nullptr);
  EXPECT_EQ(pool.Find(next->handle()), next);
  EXPECT_GE(next->read_keys.capacity(), 3u);
  EXPECT_GE(next->scratch.capacity(), 8u);

  // A second live state gets its own slot; states keep their addresses.
  PooledState* other = pool.Acquire();
  other->Init(103, ReadsOf({5}), nullptr);
  EXPECT_NE(other, next);
  EXPECT_EQ(pool.Find(next->handle()), next);
  EXPECT_EQ(pool.Find(other->handle()), other);
}

TEST(TxnPoolTest, LiveStatesAreCountedAndVisitedInSlotOrder) {
  TxnPool<PooledState> pool;
  PooledState* a = pool.Acquire();
  a->Init(101, ReadsOf({1}), nullptr);
  PooledState* b = pool.Acquire();
  b->Init(102, ReadsOf({2}), nullptr);
  pool.Release(a);
  PooledState* c = pool.Acquire();  // a's slot, a later id
  c->Init(103, ReadsOf({3}), nullptr);
  PooledState* d = pool.Acquire();
  d->Init(104, ReadsOf({4}), nullptr);
  pool.Release(d);
  EXPECT_EQ(pool.live(), 2u);

  std::vector<TxnId> visited;
  pool.ForEachLive([&visited](const PooledState& st) { visited.push_back(st.id); });
  EXPECT_EQ(visited, (std::vector<TxnId>{103, 102}));
}

TEST(TxnPoolTest, InitClearsWhatTheLastTransactionLeft) {
  Cluster c(0);
  TxnPool<PooledState> pool;
  PooledState* st = pool.Acquire();
  st->Init(101, ReadsOf({1, 2}), nullptr);
  st->AppRound();
  st->round = 2;
  st->pending = 3;
  st->Abort(AbortReason::kValidate);
  st->app_abort = true;
  st->log_acks.Expect(&c.repl, {0});
  pool.Release(st);

  st = pool.Acquire();
  st->Init(102, ReadsOf({3}), nullptr);
  EXPECT_EQ(st->read_keys, (std::vector<KeyRef>{{0, 3}}));
  EXPECT_EQ(st->reads.size(), 1u);
  EXPECT_EQ(st->round, 0);
  EXPECT_EQ(st->pending, 0u);
  EXPECT_FALSE(st->abort);
  EXPECT_FALSE(st->app_abort);
  EXPECT_EQ(st->abort_reason, AbortReason::kNone);
  EXPECT_TRUE(st->log_acks.Met());
  EXPECT_FALSE(st->log_acks.AwaitedFrom(1).has_value());
}

}  // namespace
}  // namespace xenic::txn
