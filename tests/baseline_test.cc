// Correctness tests for the four RDMA baseline engines, mirroring the
// Xenic engine tests: commit visibility, replication, aborts, validation,
// and balance conservation under concurrency, parameterized by mode.

#include <gtest/gtest.h>

#include "src/baseline/baseline_cluster.h"
#include "src/common/rng.h"

namespace xenic::baseline {
namespace {

using store::GetI64;
using store::MakeValue;
using store::PutI64;
using store::Value;
using txn::TxnOutcome;
using txn::TxnRequest;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out = MakeValue(16, 0);
  PutI64(out, 0, v);
  return out;
}

TxnRequest MakeTransfer(store::Key from, store::Key to, int64_t amount) {
  TxnRequest req;
  req.reads = {{kBank, from}, {kBank, to}};
  req.writes = {{kBank, from}, {kBank, to}};
  req.execute = [amount](txn::ExecRound& er) {
    const int64_t a = GetI64((*er.reads)[0].value, 0);
    const int64_t b = GetI64((*er.reads)[1].value, 0);
    if (a < amount) {
      *er.abort = true;
      return;
    }
    (*er.writes)[0].value = Balance(a - amount);
    (*er.writes)[1].value = Balance(b + amount);
  };
  return req;
}

BaselineClusterOptions Opts(BaselineMode mode, uint32_t nodes = 3, uint32_t repl = 2) {
  BaselineClusterOptions o;
  o.num_nodes = nodes;
  o.replication = repl;
  o.mode = mode;
  o.tables = {BaselineStore::TableSpec{kBank, 12, 16}};
  o.workers_per_node = 2;
  return o;
}

store::Key KeyOn(const BaselineCluster& c, store::NodeId node, uint64_t salt = 0) {
  for (store::Key k = salt * 100000 + 1;; ++k) {
    if (c.map().PrimaryOf(kBank, k) == node) {
      return k;
    }
  }
}

void Quiesce(BaselineCluster& c, const std::function<bool()>& all_done) {
  int stable = 0;
  for (int i = 0; i < 100000 && !c.engine().idle(); ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
    bool drained = true;
    for (uint32_t n = 0; n < c.size(); ++n) {
      drained &= c.store(n).log().unreclaimed() == 0;
    }
    if (all_done() && drained) {
      if (++stable >= 10) {
        break;
      }
    } else {
      stable = 0;
    }
  }
  c.StopWorkers();
  c.engine().Run();
}

class BaselineModeTest : public ::testing::TestWithParam<BaselineMode> {};

TEST_P(BaselineModeTest, TransferCommitsAndReplicates) {
  txn::HashPartitioner part(3);
  BaselineCluster c(Opts(GetParam()), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(50));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(MakeTransfer(a, b, 30), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });

  EXPECT_EQ(GetI64(c.store(1).table(kBank).Lookup(a)->value, 0), 70);
  EXPECT_EQ(GetI64(c.store(2).table(kBank).Lookup(b)->value, 0), 80);
  for (store::NodeId bk : c.map().BackupsOf(1)) {
    EXPECT_EQ(GetI64(c.store(bk).table(kBank).Lookup(a)->value, 0), 70);
  }
  EXPECT_EQ(c.store(1).table(kBank).Lookup(a)->seq, 2u);
  EXPECT_EQ(c.store(1).table(kBank).Lookup(a)->lock_owner, store::kNoTxn);
  EXPECT_EQ(c.store(2).table(kBank).Lookup(b)->lock_owner, store::kNoTxn);
}

TEST_P(BaselineModeTest, AppAbortLeavesStateClean) {
  txn::HashPartitioner part(3);
  BaselineCluster c(Opts(GetParam()), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(5));
  c.LoadReplicated(kBank, b, Balance(5));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(MakeTransfer(a, b, 100), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kAppAborted);
  });
  Quiesce(c, [&] { return done; });
  EXPECT_EQ(GetI64(c.store(1).table(kBank).Lookup(a)->value, 0), 5);
  EXPECT_EQ(c.store(1).table(kBank).Lookup(a)->lock_owner, store::kNoTxn);
  EXPECT_EQ(c.store(2).table(kBank).Lookup(b)->lock_owner, store::kNoTxn);
}

TEST_P(BaselineModeTest, ReadOnlySeesConsistentValues) {
  txn::HashPartitioner part(3);
  BaselineCluster c(Opts(GetParam()), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(42));
  c.LoadReplicated(kBank, b, Balance(17));
  c.StartWorkers();

  std::vector<int64_t> got;
  TxnRequest req;
  req.reads = {{kBank, a}, {kBank, b}};
  req.execute = [&got](txn::ExecRound& er) {
    got.clear();
    for (const auto& r : *er.reads) {
      got.push_back(r.found ? GetI64(r.value, 0) : -1);
    }
  };
  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 42);
  EXPECT_EQ(got[1], 17);
}

TEST_P(BaselineModeTest, BalanceConservationUnderConcurrency) {
  txn::HashPartitioner part(3);
  BaselineCluster c(Opts(GetParam()), &part);
  Rng rng(77);
  constexpr int kAccounts = 40;
  constexpr int64_t kInitial = 1000;
  std::vector<store::Key> keys;
  for (int i = 0; i < kAccounts; ++i) {
    keys.push_back(static_cast<store::Key>(i + 1));
    c.LoadReplicated(kBank, keys.back(), Balance(kInitial));
  }
  c.StartWorkers();

  constexpr int kPerNode = 3;
  constexpr int kTxnsPerCtx = 25;
  int completed = 0;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      completed++;
      return;
    }
    const store::Key from = keys[rng.NextBounded(kAccounts)];
    store::Key to = keys[rng.NextBounded(kAccounts)];
    while (to == from) {
      to = keys[rng.NextBounded(kAccounts)];
    }
    c.node(n).Submit(MakeTransfer(from, to, 1),
                     [&, n, left](TxnOutcome) { run_one(n, left - 1); });
  };
  for (uint32_t n = 0; n < c.size(); ++n) {
    for (int k = 0; k < kPerNode; ++k) {
      run_one(n, kTxnsPerCtx);
    }
  }
  Quiesce(c, [&] { return completed == static_cast<int>(c.size()) * kPerNode; });

  int64_t total = 0;
  for (auto k : keys) {
    const store::NodeId p = c.map().PrimaryOf(kBank, k);
    total += GetI64(c.store(p).table(kBank).Lookup(k)->value, 0);
    EXPECT_EQ(c.store(p).table(kBank).Lookup(k)->lock_owner, store::kNoTxn);
  }
  EXPECT_EQ(total, kAccounts * kInitial);
  // Replicas converged.
  for (auto k : keys) {
    const store::NodeId p = c.map().PrimaryOf(kBank, k);
    const auto* pv = c.store(p).table(kBank).Lookup(k);
    for (store::NodeId bk : c.map().BackupsOf(p)) {
      const auto* bv = c.store(bk).table(kBank).Lookup(k);
      ASSERT_NE(bv, nullptr);
      EXPECT_EQ(pv->value, bv->value);
    }
  }
  EXPECT_GT(c.TotalStats().committed, 50u);
}

TEST_P(BaselineModeTest, ContendedAbortsAreAllAttributed) {
  // Four hot accounts on three nodes: lock conflicts, version gaps and
  // validation failures all happen, and each abort is tallied under the
  // reason of the check that caught it.
  txn::HashPartitioner part(3);
  BaselineCluster c(Opts(GetParam()), &part);
  Rng rng(11);
  constexpr int kAccounts = 4;
  for (int i = 1; i <= kAccounts; ++i) {
    c.LoadReplicated(kBank, static_cast<store::Key>(i), Balance(1000));
  }
  c.StartWorkers();

  int completed = 0;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      completed++;
      return;
    }
    const auto from = static_cast<store::Key>(1 + rng.NextBounded(kAccounts));
    auto to = static_cast<store::Key>(1 + rng.NextBounded(kAccounts));
    while (to == from) {
      to = static_cast<store::Key>(1 + rng.NextBounded(kAccounts));
    }
    c.node(n).Submit(MakeTransfer(from, to, 1),
                     [&, n, left](TxnOutcome) { run_one(n, left - 1); });
  };
  for (uint32_t n = 0; n < c.size(); ++n) {
    for (int k = 0; k < 4; ++k) {
      run_one(n, 20);
    }
  }
  Quiesce(c, [&] { return completed == static_cast<int>(c.size()) * 4; });

  const txn::TxnStats s = c.TotalStats();
  EXPECT_GT(s.aborted, 0u);
  EXPECT_EQ(s.aborted, s.abort_lock_execute + s.abort_lock_local + s.abort_lock_ship +
                           s.abort_validate + s.abort_gap + s.abort_wounded +
                           s.abort_epoch_fence + s.abort_other);
  EXPECT_EQ(s.abort_other, 0u);
  EXPECT_GT(s.abort_lock_execute, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BaselineModeTest,
                         ::testing::Values(BaselineMode::kDrtmH, BaselineMode::kDrtmHNC,
                                           BaselineMode::kFasst, BaselineMode::kDrtmR),
                         [](const ::testing::TestParamInfo<BaselineMode>& info) {
                           switch (info.param) {
                             case BaselineMode::kDrtmH:
                               return "DrtmH";
                             case BaselineMode::kDrtmHNC:
                               return "DrtmHNC";
                             case BaselineMode::kFasst:
                               return "Fasst";
                             case BaselineMode::kDrtmR:
                               return "DrtmR";
                           }
                           return "unknown";
                         });

TEST(ChainedStoreTest, InsertLockUnlock) {
  ChainedStore s({.capacity_log2 = 8, .value_size = 8});
  ASSERT_TRUE(s.Insert(5, Value(8, 1)).ok());
  EXPECT_TRUE(s.TryLock(5, 100));
  EXPECT_FALSE(s.TryLock(5, 200));
  EXPECT_TRUE(s.TryLock(5, 100));  // re-entrant
  s.Unlock(5, 200);                // wrong owner: no-op
  EXPECT_EQ(s.Lookup(5)->lock_owner, 100u);
  s.Unlock(5, 100);
  EXPECT_TRUE(s.TryLock(5, 200));
  s.Unlock(5, 200);
}

TEST(ChainedStoreTest, InsertLockingOnAbsentKey) {
  ChainedStore s({.capacity_log2 = 8, .value_size = 8});
  EXPECT_TRUE(s.TryLock(99, 7));
  // Placeholder exists while locked; unlock of a never-written key removes it.
  EXPECT_NE(s.Lookup(99), nullptr);
  s.Unlock(99, 7);
  EXPECT_EQ(s.Lookup(99), nullptr);
}

TEST(ChainedStoreTest, PlanLookupCountsChainHops) {
  ChainedStore s({.capacity_log2 = 6, .bucket_slots = 2, .value_size = 8});
  // Fill well past main-bucket capacity to force chains.
  Rng rng(5);
  std::vector<store::Key> keys;
  for (int i = 0; i < 60; ++i) {
    const store::Key k = rng.Next();
    ASSERT_TRUE(s.Insert(k, Value(8, 1)).ok());
    keys.push_back(k);
  }
  bool saw_multi = false;
  for (auto k : keys) {
    const auto plan = s.PlanLookup(k);
    EXPECT_TRUE(plan.found);
    saw_multi |= plan.roundtrips > 1;
  }
  EXPECT_TRUE(saw_multi);
}

}  // namespace
}  // namespace xenic::baseline
