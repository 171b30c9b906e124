// Allocation checks above the transaction layer: the workload request
// builders, and a closed-loop Xenic Retwis run through harness::RunWorkload
// -- a small tier-1 stand-in for perfbench's allocs_per_txn on retwis.
//
// This executable replaces the global operator new with a counting one
// (alloc_counter.h). gtest assertions allocate, so they stay outside the
// counted windows.

#include <gtest/gtest.h>

#include <memory>

#include "src/harness/runner.h"
#include "src/workload/retwis.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"
#include "tests/alloc_counter.h"

namespace xenic {
namespace {

// The buffers a request owns: its read set, write set and workload-managed
// log writes (each reserved to its size).
uint64_t RequestBuffers(const txn::TxnRequest& req) {
  return (req.reads.empty() ? 0 : 1) + (req.writes.empty() ? 0 : 1) +
         (req.local_log_writes.empty() ? 0 : 1);
}

// Builds `count` requests at node 0 and expects each to allocate exactly
// its own buffers plus `extra` (closures too large for std::function's
// inline buffer, values the request carries).
void ExpectOnlyRequestBuffers(workload::Workload& wl, uint64_t extra, int count = 500) {
  Rng rng(7);
  for (int i = 0; i < count; ++i) {
    const uint64_t before = OperatorNewCalls();
    const txn::TxnRequest req = wl.NextTxn(0, rng);
    const uint64_t allocs = OperatorNewCalls() - before;
    ASSERT_EQ(allocs, RequestBuffers(req) + extra) << wl.Name() << " request " << i;
    EXPECT_EQ(req.reads.capacity(), req.reads.size());
    EXPECT_EQ(req.writes.capacity(), req.writes.size());
  }
}

TEST(WorkloadAllocTest, RetwisBuildsOnlyItsKeySets) {
  // Distinct-key scratch is a fixed array and the closure (a stamp and a
  // count) fits std::function's inline buffer.
  workload::Retwis::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 1000;
  workload::Retwis wl(o);
  ExpectOnlyRequestBuffers(wl, 0);
}

TEST(WorkloadAllocTest, YcsbBuildsOnlyItsKeySets) {
  // The closure keeps the updates as a bitmask beside the value size.
  workload::Ycsb::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 1000;
  o.zipf_theta = 0.9;
  workload::Ycsb wl(o);
  ExpectOnlyRequestBuffers(wl, 0);
}

TEST(WorkloadAllocTest, TpccNewOrderBuildsOnlyItsRequest) {
  // Beyond its key sets and its one log write: the order pack, written
  // in place, and the execute and host_finish closures (the order lines,
  // and the pack with its tree).
  workload::Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  o.customers_per_district = 20;
  o.items = 200;
  o.new_order_only = true;
  o.uniform_remote_items = true;
  workload::Tpcc wl(o);
  ExpectOnlyRequestBuffers(wl, 3);
}

TEST(WorkloadAllocTest, XenicRetwisRunAllocationsPerCommit) {
  // Figure 8c's Retwis on a small Xenic cluster, closed loop. The loaded
  // run's operator new calls per committed transaction cover everything
  // perfbench's allocs_per_txn covers: the runner (its per-attempt request
  // copy and retry closures), the builder, the coordinator and servers,
  // and the written values. Measured: 14.87; the bound leaves about 10%.
  workload::Retwis::Options wo;
  wo.num_nodes = 3;
  wo.keys_per_node = 20000;
  workload::Retwis wl(wo);
  harness::SystemConfig sc;
  sc.kind = harness::SystemConfig::Kind::kXenic;
  sc.num_nodes = 3;
  sc.replication = 3;
  std::unique_ptr<harness::SystemAdapter> sys = harness::BuildSystem(sc, wl);
  harness::LoadWorkload(*sys, wl);
  harness::RunConfig rc;
  rc.seed = 1;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 500 * sim::kNsPerUs;
  rc.contexts_per_node = 1;
  harness::RunWorkload(*sys, wl, rc);  // the low-load point, as perfbench runs it first
  rc.contexts_per_node = 16;
  const uint64_t before = OperatorNewCalls();
  const harness::RunResult r = harness::RunWorkload(*sys, wl, rc);
  const uint64_t allocs = OperatorNewCalls() - before;
  ASSERT_GT(r.committed, 1000u);
  const double per_commit = static_cast<double>(allocs) / static_cast<double>(r.committed);
  RecordProperty("allocs_per_commit", std::to_string(per_commit));
  EXPECT_LE(per_commit, 16.5) << allocs << " allocations, " << r.committed << " commits";
}

}  // namespace
}  // namespace xenic
