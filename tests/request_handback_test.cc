// The abort hand-back contract (txn::TxnResult::request), for Xenic and the
// four baseline modes: a transaction aborted by a held lock gets its
// request back unchanged, that request commits when resubmitted, and a
// commit or an application abort hands nothing back. The closed-loop
// runner retries by moving from the returned request, so no attempt copies
// one.

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "src/baseline/baseline_cluster.h"
#include "src/txn/xenic_cluster.h"

namespace xenic {
namespace {

using txn::TxnOutcome;
using txn::TxnRequest;

constexpr store::TableId kTable = 0;
// Past the last table: a workload-managed write, which the log drains skip
// when no apply hook is set.
constexpr store::TableId kManaged = 1;

// A read-modify-write of `a` that also reads `b`, with every field set to
// a value other than its default. `finished` counts host_finish runs.
TxnRequest MakeRequest(store::Key a, store::Key b, bool app_abort, int* finished) {
  TxnRequest req;
  req.reads = {{kTable, a}, {kTable, b}};
  req.writes = {{kTable, a}};
  req.execute = [app_abort](txn::ExecRound& er) {
    if (app_abort) {
      *er.abort = true;
      return;
    }
    (*er.writes)[0].value = store::Value(16, 7);
  };
  req.exec_cost = 333;
  req.external_bytes = 48;
  req.tag = 5;
  req.local_log_writes = {store::LogWrite{kManaged, 42, 3, store::Value(8, 1), false}};
  req.host_finish_cost = 77;
  req.host_finish = [finished] { ++*finished; };
  return req;
}

void ExpectSameRequest(const TxnRequest& got, const TxnRequest& want) {
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.exec_cost, want.exec_cost);
  EXPECT_EQ(got.external_bytes, want.external_bytes);
  EXPECT_EQ(got.allow_ship, want.allow_ship);
  EXPECT_EQ(got.host_finish_cost, want.host_finish_cost);
  ASSERT_EQ(got.local_log_writes.size(), want.local_log_writes.size());
  for (size_t i = 0; i < got.local_log_writes.size(); ++i) {
    const store::LogWrite& g = got.local_log_writes[i];
    const store::LogWrite& w = want.local_log_writes[i];
    EXPECT_EQ(g.table, w.table);
    EXPECT_EQ(g.key, w.key);
    EXPECT_EQ(g.seq, w.seq);
    EXPECT_TRUE(g.value == w.value);
    EXPECT_EQ(g.is_delete, w.is_delete);
  }
  EXPECT_TRUE(static_cast<bool>(got.execute));
  EXPECT_TRUE(static_cast<bool>(got.host_finish));
}

// Whether a callback fired, and what it saw.
struct Seen {
  std::optional<TxnOutcome> outcome;
  bool request = false;
};

// Runs the contract on a three-node cluster at replication 2: `hold` takes
// the lock of a key at its primary for another transaction, `release`
// drops it.
template <typename Cluster>
void CheckHandBack(Cluster& c, const std::function<void(store::NodeId, store::Key)>& hold,
                   const std::function<void(store::NodeId, store::Key)>& release) {
  auto key_on = [&c](store::NodeId node) {
    for (store::Key k = 1;; ++k) {
      if (c.map().PrimaryOf(kTable, k) == node) {
        return k;
      }
    }
  };
  const store::Key a = key_on(1);
  const store::Key b = key_on(2);
  c.LoadReplicated(kTable, a, store::Value(16, 0));
  c.LoadReplicated(kTable, b, store::Value(16, 0));
  c.StartWorkers();

  int finished = 0;
  const TxnRequest original = MakeRequest(a, b, false, &finished);
  hold(1, a);
  Seen aborted;
  TxnRequest returned;
  c.node(0).Submit(MakeRequest(a, b, false, &finished), [&](txn::TxnResult res) {
    aborted.outcome = res.outcome;
    aborted.request = res.request != nullptr;
    if (res.request != nullptr) {
      returned = std::move(*res.request);
    }
  });
  c.engine().RunFor(200 * sim::kNsPerUs);
  ASSERT_EQ(aborted.outcome, TxnOutcome::kAborted);
  ASSERT_TRUE(aborted.request);
  ExpectSameRequest(returned, original);
  EXPECT_EQ(finished, 0);

  release(1, a);
  Seen committed;
  c.node(0).Submit(std::move(returned), [&](txn::TxnResult res) {
    committed.outcome = res.outcome;
    committed.request = res.request != nullptr;
  });
  c.engine().RunFor(200 * sim::kNsPerUs);
  EXPECT_EQ(committed.outcome, TxnOutcome::kCommitted);
  EXPECT_FALSE(committed.request);
  EXPECT_EQ(finished, 1) << "the resubmitted request's host_finish runs after its commit";

  Seen app_aborted;
  c.node(0).Submit(MakeRequest(a, b, true, &finished), [&](txn::TxnResult res) {
    app_aborted.outcome = res.outcome;
    app_aborted.request = res.request != nullptr;
  });
  c.engine().RunFor(200 * sim::kNsPerUs);
  EXPECT_EQ(app_aborted.outcome, TxnOutcome::kAppAborted);
  EXPECT_FALSE(app_aborted.request);
  EXPECT_EQ(finished, 1);
  c.StopWorkers();
  c.engine().Run();
}

TEST(RequestHandBackTest, XenicAbortHandsTheRequestBack) {
  txn::HashPartitioner part(3);
  txn::XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.tables = {store::TableSpec{kTable, "t", 12, 16, 8, 8}};
  o.workers_per_node = 2;
  txn::XenicCluster c(o, &part);
  constexpr store::TxnId kHolder = 999;
  CheckHandBack(
      c,
      [&c](store::NodeId n, store::Key k) {
        ASSERT_TRUE(c.datastore(n).index(kTable).AcquireLock(k, kHolder).ok());
      },
      [&c](store::NodeId n, store::Key k) {
        c.datastore(n).index(kTable).ReleaseLock(k, kHolder);
      });
}

class BaselineHandBackTest : public ::testing::TestWithParam<baseline::BaselineMode> {};

TEST_P(BaselineHandBackTest, AbortHandsTheRequestBack) {
  txn::HashPartitioner part(3);
  baseline::BaselineClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.mode = GetParam();
  o.tables = {baseline::BaselineStore::TableSpec{kTable, 12, 16}};
  o.workers_per_node = 2;
  baseline::BaselineCluster c(o, &part);
  constexpr store::TxnId kHolder = 999;
  CheckHandBack(
      c,
      [&c](store::NodeId n, store::Key k) {
        ASSERT_TRUE(c.store(n).table(kTable).TryLock(k, kHolder));
      },
      [&c](store::NodeId n, store::Key k) { c.store(n).table(kTable).Unlock(k, kHolder); });
}

INSTANTIATE_TEST_SUITE_P(AllModes, BaselineHandBackTest,
                         ::testing::Values(baseline::BaselineMode::kDrtmH,
                                           baseline::BaselineMode::kDrtmHNC,
                                           baseline::BaselineMode::kFasst,
                                           baseline::BaselineMode::kDrtmR),
                         [](const ::testing::TestParamInfo<baseline::BaselineMode>& info) {
                           switch (info.param) {
                             case baseline::BaselineMode::kDrtmH:
                               return "DrtmH";
                             case baseline::BaselineMode::kDrtmHNC:
                               return "DrtmHNC";
                             case baseline::BaselineMode::kFasst:
                               return "Fasst";
                             case baseline::BaselineMode::kDrtmR:
                               return "DrtmR";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace xenic
