// The hand-back contract (txn::TxnResult::request), for Xenic, shipped and
// not, and the four baseline modes: every outcome hands the submitted
// request back. A transaction aborted by a held lock gets it back
// unchanged, and it commits when resubmitted. A commit's and an
// application abort's request keep their key sets, scalars, closures and
// log writes, except that a commit's host_finish is taken out first: it
// runs after the callback, as deferred host work. The closed-loop runner
// retries an abort by moving from its request and builds its next
// transaction into any other outcome's, so no attempt copies a request and
// no context allocates new key sets.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>

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
constexpr store::TxnId kHolder = 999;

// A read-modify-write of `a` that also reads `b`, with every field set to
// a value other than its default. `finished` counts host_finish runs, whose
// cost exceeds kHostFinishBase: on an idle host the deferred host_finish
// still ends after the callback's job.
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
  req.host_finish_cost = 777;
  req.host_finish = [finished] { ++*finished; };
  return req;
}

// `got` is `want` handed back: the same keys, scalars and log writes, an
// execute closure, and a host_finish iff `with_host_finish`.
void ExpectHandedBack(const TxnRequest& got, const TxnRequest& want, bool with_host_finish) {
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
  EXPECT_EQ(static_cast<bool>(got.host_finish), with_host_finish);
}

// One submission's callback: the outcome, the request it handed back
// (moved out during the call), and how many host_finish runs had happened
// by then.
struct Seen {
  std::optional<TxnOutcome> outcome;
  bool request = false;
  int finished_at_callback = -1;
  TxnRequest returned;
};

template <typename Cluster>
void Submit(Cluster& c, TxnRequest req, const int* finished, Seen* seen) {
  c.node(0).Submit(std::move(req), [finished, seen](txn::TxnResult res) {
    seen->outcome = res.outcome;
    seen->request = res.request != nullptr;
    seen->finished_at_callback = *finished;
    if (res.request != nullptr) {
      seen->returned = std::move(*res.request);
    }
  });
  c.engine().RunFor(200 * sim::kNsPerUs);
}

// A three-node cluster at replication 2, node 0 coordinating: `a`, the
// written key, lives on node 1 and `b`, only read, on `b_node` (node 0
// makes the transaction shippable to node 1, node 2 does not).
template <typename Cluster>
std::pair<store::Key, store::Key> LoadKeys(Cluster& c, store::NodeId b_node) {
  auto key_on = [&c](store::NodeId node) {
    for (store::Key k = 1;; ++k) {
      if (c.map().PrimaryOf(kTable, k) == node) {
        return k;
      }
    }
  };
  const store::Key a = key_on(1);
  const store::Key b = key_on(b_node);
  c.LoadReplicated(kTable, a, store::Value(16, 0));
  c.LoadReplicated(kTable, b, store::Value(16, 0));
  c.StartWorkers();
  return {a, b};
}

// `hold` takes the lock of `a` at node 1 for another transaction, so the
// submission aborts and gets its request back unchanged; `release` drops
// the lock, and the returned request commits when resubmitted, its
// host_finish running once after the commit.
template <typename Cluster>
void CheckAbortHandsBack(Cluster& c, store::NodeId b_node,
                         const std::function<void(store::NodeId, store::Key)>& hold,
                         const std::function<void(store::NodeId, store::Key)>& release) {
  const auto [a, b] = LoadKeys(c, b_node);
  int finished = 0;
  const TxnRequest original = MakeRequest(a, b, false, &finished);
  hold(1, a);
  Seen aborted;
  Submit(c, MakeRequest(a, b, false, &finished), &finished, &aborted);
  ASSERT_EQ(aborted.outcome, TxnOutcome::kAborted);
  ASSERT_TRUE(aborted.request);
  ExpectHandedBack(aborted.returned, original, /*with_host_finish=*/true);
  EXPECT_EQ(finished, 0);

  release(1, a);
  Seen committed;
  Submit(c, std::move(aborted.returned), &finished, &committed);
  EXPECT_EQ(committed.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(committed.request);
  EXPECT_EQ(finished, 1) << "the resubmitted request's host_finish runs after its commit";
  c.StopWorkers();
  c.engine().Run();
}

// A commit hands its request back without its host_finish, which has not
// run when the callback runs and runs once after it; an application abort
// hands back the whole request and never runs its host_finish.
template <typename Cluster>
void CheckCommitAndAppAbortHandBack(Cluster& c, store::NodeId b_node) {
  const auto [a, b] = LoadKeys(c, b_node);
  int finished = 0;
  Seen committed;
  Submit(c, MakeRequest(a, b, false, &finished), &finished, &committed);
  ASSERT_EQ(committed.outcome, TxnOutcome::kCommitted);
  ASSERT_TRUE(committed.request);
  ExpectHandedBack(committed.returned, MakeRequest(a, b, false, &finished),
                   /*with_host_finish=*/false);
  EXPECT_EQ(committed.finished_at_callback, 0) << "host_finish runs after the callback";
  EXPECT_EQ(finished, 1);

  Seen app_aborted;
  Submit(c, MakeRequest(a, b, true, &finished), &finished, &app_aborted);
  ASSERT_EQ(app_aborted.outcome, TxnOutcome::kAppAborted);
  ASSERT_TRUE(app_aborted.request);
  ExpectHandedBack(app_aborted.returned, MakeRequest(a, b, true, &finished),
                   /*with_host_finish=*/true);
  EXPECT_EQ(finished, 1);
  c.StopWorkers();
  c.engine().Run();
}

class XenicHandBack {
 public:
  XenicHandBack() : part_(3), cluster_(Options(), &part_) {}
  txn::XenicCluster& cluster() { return cluster_; }
  void Hold(store::NodeId n, store::Key k) {
    ASSERT_TRUE(cluster_.datastore(n).index(kTable).AcquireLock(k, kHolder).ok());
  }
  void Release(store::NodeId n, store::Key k) {
    cluster_.datastore(n).index(kTable).ReleaseLock(k, kHolder);
  }
  uint64_t shipped() { return cluster_.node(0).stats().shipped_multihop; }

 private:
  static txn::XenicClusterOptions Options() {
    txn::XenicClusterOptions o;
    o.num_nodes = 3;
    o.replication = 2;
    o.tables = {store::TableSpec{kTable, "t", 12, 16, 8, 8}};
    o.workers_per_node = 2;
    return o;
  }
  txn::HashPartitioner part_;
  txn::XenicCluster cluster_;
};

TEST(RequestHandBackTest, XenicAbortHandsTheRequestBack) {
  XenicHandBack x;
  CheckAbortHandsBack(
      x.cluster(), 2, [&x](store::NodeId n, store::Key k) { x.Hold(n, k); },
      [&x](store::NodeId n, store::Key k) { x.Release(n, k); });
  EXPECT_EQ(x.shipped(), 0u);
}

TEST(RequestHandBackTest, XenicCommitAndAppAbortHandTheRequestBack) {
  XenicHandBack x;
  CheckCommitAndAppAbortHandBack(x.cluster(), 2);
  EXPECT_EQ(x.shipped(), 0u);
}

TEST(RequestHandBackTest, XenicShippedAbortHandsTheRequestBack) {
  // `b` on the coordinator: node 0 ships each attempt to node 1, whose
  // lock of `a` is held the first time.
  XenicHandBack x;
  CheckAbortHandsBack(
      x.cluster(), 0, [&x](store::NodeId n, store::Key k) { x.Hold(n, k); },
      [&x](store::NodeId n, store::Key k) { x.Release(n, k); });
  EXPECT_EQ(x.shipped(), 2u);
}

TEST(RequestHandBackTest, XenicShippedCommitAndAppAbortHandTheRequestBack) {
  // The application abort happens at the executor, node 1.
  XenicHandBack x;
  CheckCommitAndAppAbortHandBack(x.cluster(), 0);
  EXPECT_EQ(x.shipped(), 2u);
}

TEST(RequestHandBackTest, XenicHostLocalReadHandsTheRequestBack) {
  // A read of the coordinator's own key runs on its host alone and
  // reports there, without an outcome report; it hands its request back
  // all the same, and a commit's host_finish runs once after the callback.
  XenicHandBack x;
  const store::Key b = LoadKeys(x.cluster(), 0).second;
  int finished = 0;
  for (const bool app_abort : {false, true}) {
    TxnRequest want = MakeRequest(b, b, app_abort, &finished);
    want.reads = {{kTable, b}};
    want.writes.clear();
    want.local_log_writes.clear();
    want.execute = [app_abort](txn::ExecRound& er) { *er.abort = app_abort; };
    Seen seen;
    TxnRequest req = want;
    Submit(x.cluster(), std::move(req), &finished, &seen);
    EXPECT_EQ(seen.outcome, app_abort ? TxnOutcome::kAppAborted : TxnOutcome::kCommitted);
    ASSERT_TRUE(seen.request);
    ExpectHandedBack(seen.returned, want, /*with_host_finish=*/app_abort);
    // The commit's host_finish has not run at its callback and runs once
    // after it; the application abort's never runs.
    EXPECT_EQ(seen.finished_at_callback, app_abort ? 1 : 0);
    EXPECT_EQ(finished, 1);
  }
  x.cluster().StopWorkers();
  x.cluster().engine().Run();
}

class BaselineHandBackTest : public ::testing::TestWithParam<baseline::BaselineMode> {
 protected:
  BaselineHandBackTest() : part_(3), cluster_(Options(GetParam()), &part_) {}

  static baseline::BaselineClusterOptions Options(baseline::BaselineMode mode) {
    baseline::BaselineClusterOptions o;
    o.num_nodes = 3;
    o.replication = 2;
    o.mode = mode;
    o.tables = {baseline::BaselineStore::TableSpec{kTable, 12, 16}};
    o.workers_per_node = 2;
    return o;
  }

  txn::HashPartitioner part_;
  baseline::BaselineCluster cluster_;
};

TEST_P(BaselineHandBackTest, AbortHandsTheRequestBack) {
  baseline::BaselineCluster& c = cluster_;
  CheckAbortHandsBack(
      c, 2,
      [&c](store::NodeId n, store::Key k) {
        ASSERT_TRUE(c.store(n).table(kTable).TryLock(k, kHolder));
      },
      [&c](store::NodeId n, store::Key k) { c.store(n).table(kTable).Unlock(k, kHolder); });
}

TEST_P(BaselineHandBackTest, CommitAndAppAbortHandTheRequestBack) {
  CheckCommitAndAppAbortHandBack(cluster_, 2);
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
