// Tests for the benchmark's own machinery: the decorators are transparent,
// the allocation counter counts exactly, and the derived metrics are
// computed as documented.

#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "decorators.h"
#include "report.h"
#include "src/chaos/history.h"
#include "src/harness/runner.h"
#include "src/workload/retwis.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace xenic;

// Everything modeled that a run reports, as one comparable string.
std::string Fingerprint(const harness::RunResult& r) {
  std::string s = std::to_string(r.tput_per_server) + " c=" + std::to_string(r.committed) +
                  " a=" + std::to_string(r.aborted) + " ev=" + std::to_string(r.sim_events) +
                  " msgs=" + std::to_string(r.txn_stats.messages) +
                  " dma=" + std::to_string(r.dma_ops) + " lat:";
  r.latency.VisitBuckets([&s](uint64_t mid, uint64_t n) {
    s += " " + std::to_string(mid) + ":" + std::to_string(n);
  });
  return s;
}

using Factory = std::unique_ptr<workload::Workload> (*)();

std::unique_ptr<workload::Workload> SmallRetwis() {
  workload::Retwis::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 3000;
  return std::make_unique<workload::Retwis>(o);
}

std::unique_ptr<workload::Workload> SmallTpcc() {
  workload::Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  o.customers_per_district = 10;
  o.items = 200;
  o.new_order_only = true;
  return std::make_unique<workload::Tpcc>(o);
}

std::unique_ptr<workload::Workload> SmallYcsb() {
  workload::Ycsb::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 200;
  return std::make_unique<workload::Ycsb>(o);
}

harness::SystemConfig System(harness::SystemConfig::Kind kind) {
  harness::SystemConfig c;
  c.kind = kind;
  c.num_nodes = 3;
  c.replication = 3;
  return c;
}

// Low-load then loaded point on one cluster, as the benchmark runs them.
std::string RunTwoPoints(Factory make, const harness::SystemConfig& cfg, bool decorated,
                chaos::HistoryRecorder* history = nullptr, Probe* probe_out = nullptr) {
  harness::RunConfig rc;
  rc.warmup = 50 * sim::kNsPerUs;
  rc.measure = 300 * sim::kNsPerUs;
  rc.seed = 5;
  auto wl = make();
  Probe probe;
  std::string out;
  if (decorated) {
    TimedWorkload twl(*wl, probe);
    TimedSystem sys(harness::BuildSystem(cfg, twl), probe, history);
    harness::LoadWorkload(sys, twl);
    rc.contexts_per_node = 1;
    out = Fingerprint(harness::RunWorkload(sys, twl, rc));
    rc.contexts_per_node = 8;
    out += " | " + Fingerprint(harness::RunWorkload(sys, twl, rc));
  } else {
    auto sys = harness::BuildSystem(cfg, *wl);
    harness::LoadWorkload(*sys, *wl);
    rc.contexts_per_node = 1;
    out = Fingerprint(harness::RunWorkload(*sys, *wl, rc));
    rc.contexts_per_node = 8;
    out += " | " + Fingerprint(harness::RunWorkload(*sys, *wl, rc));
  }
  if (probe_out != nullptr) {
    *probe_out = probe;
  }
  return out;
}

TEST(DecoratorTest, TransparentOnXenicRetwis) {
  const auto cfg = System(harness::SystemConfig::Kind::kXenic);
  Probe probe;
  EXPECT_EQ(RunTwoPoints(SmallRetwis, cfg, false), RunTwoPoints(SmallRetwis, cfg, true, nullptr, &probe));
  EXPECT_GT(probe.next_txn.calls, 0u);
  EXPECT_GE(probe.submit.calls, probe.next_txn.calls - 3 * 8);  // in-flight at stop
  EXPECT_EQ(probe.load.calls, 3u * 3000u);
  EXPECT_EQ(probe.refused, 0u);
}

TEST(DecoratorTest, TransparentOnBaselineRetwis) {
  const auto cfg = System(harness::SystemConfig::Kind::kBaseline);
  EXPECT_EQ(RunTwoPoints(SmallRetwis, cfg, false), RunTwoPoints(SmallRetwis, cfg, true));
}

TEST(DecoratorTest, TransparentOnTpccWorkerHooks) {
  const auto cfg = System(harness::SystemConfig::Kind::kXenic);
  Probe probe;
  EXPECT_EQ(RunTwoPoints(SmallTpcc, cfg, false), RunTwoPoints(SmallTpcc, cfg, true, nullptr, &probe));
  EXPECT_GT(probe.worker_hook.calls, 0u);  // B+tree log records were applied
}

TEST(DecoratorTest, TransparentWithHistoryRecorderAndSerializable) {
  const auto cfg = System(harness::SystemConfig::Kind::kXenic);
  chaos::HistoryRecorder history;
  EXPECT_EQ(RunTwoPoints(SmallYcsb, cfg, false), RunTwoPoints(SmallYcsb, cfg, true, &history));
  const chaos::CheckResult check = history.Check();
  EXPECT_TRUE(check.ok());
  EXPECT_GT(check.txns, 0u);
}

// The benchmark's retwis point at seed 1 reproduces bench_fig8c_retwis's
// Xenic 64-context row (1.94M/srv, 37.4 us median), both as the bench runs
// it (fresh cluster) and as the benchmark runs it (low-load point first on
// the same cluster).
TEST(WorkloadTest, RetwisReproducesTheFigure8cRow) {
  const WorkloadSpec& spec = *FindWorkload("retwis");
  for (bool lowload_first : {false, true}) {
    auto wl = spec.make();
    auto sys = harness::BuildSystem(spec.system, *wl);
    harness::LoadWorkload(*sys, *wl);
    if (lowload_first) {
      harness::RunWorkload(*sys, *wl, RunConfigFor(spec, 1, 1));
    }
    const harness::RunResult r =
        harness::RunWorkload(*sys, *wl, RunConfigFor(spec, spec.contexts, 1));
    EXPECT_NEAR(r.tput_per_server, 1.94e6, 0.005e6) << "lowload_first=" << lowload_first;
    EXPECT_NEAR(r.MedianLatencyUs(), 37.4, 0.05) << "lowload_first=" << lowload_first;
  }
}

TEST(AllocCounterTest, CountsAKnownAllocationLoop) {
  constexpr int kN = 1000;
  std::vector<void*> ptrs;
  ptrs.reserve(3 * kN);
  const uint64_t before = AllocCount();
  for (int i = 0; i < kN; ++i) {
    ptrs.push_back(::operator new(16));
    ptrs.push_back(::operator new[](32));
    ptrs.push_back(::operator new(64, std::align_val_t{64}));
  }
  const uint64_t counted = AllocCount() - before;
  for (int i = 0; i < kN; ++i) {
    ::operator delete(ptrs[3 * i]);
    ::operator delete[](ptrs[3 * i + 1]);
    ::operator delete(ptrs[3 * i + 2], std::align_val_t{64});
  }
  EXPECT_EQ(counted, 3u * kN);
  EXPECT_EQ(AllocCount() - before, 3u * kN);  // frees are not counted
}

TEST(ReportTest, DecompositionTermsPlusResidueEqualHostTime) {
  const double host_ns = 61234.5;
  const Decomposition d = Decompose(host_ns, {{"sim", 21000.25}, {"net", 9000.5}, {"store", 3.125}});
  double sum = d.residue_ns;
  for (const auto& t : d.terms) {
    sum += t.ns_per_txn;
  }
  EXPECT_DOUBLE_EQ(sum, host_ns);
  EXPECT_DOUBLE_EQ(d.residue_ns, host_ns - 21000.25 - 9000.5 - 3.125);
  // Over-counting terms leave a negative residue rather than hiding it.
  EXPECT_LT(Decompose(10, {{"sim", 25}}).residue_ns, 0);
}

TEST(ReportTest, InterpolatedQuantileStaysInTheMidpointBucket) {
  Histogram h;
  for (uint64_t v = 10000; v < 20000; ++v) {
    h.Record(v);
  }
  const double p50 = InterpolatedQuantileUs(h, 0.5);
  const double mid = static_cast<double>(h.Median()) / 1e3;
  EXPECT_NEAR(p50, 15.0, 0.01);          // exact median of the uniform sample
  EXPECT_NEAR(p50, mid, 0.128 / 2 + 1e-9);  // within half a bucket (128 ns)
  EXPECT_NEAR(InterpolatedQuantileUs(h, 0.99), 19.9, 0.01);
}

TEST(ReportTest, MergesNumberedPortsIntoOneResource) {
  std::vector<obs::ResourceSnapshot> snaps(3);
  snaps[0].name = "wire_tx0";
  snaps[0].utilization = 0.5;
  snaps[0].mean_wait_ns = 100;
  snaps[0].completed = 10;
  snaps[0].is_link = true;
  snaps[1] = snaps[0];
  snaps[1].name = "wire_tx1";
  snaps[1].utilization = 0.7;
  snaps[1].mean_wait_ns = 400;
  snaps[1].completed = 30;
  snaps[2].name = "dma_queues";
  snaps[2].utilization = 0.9;
  const auto merged = MergeResources(snaps);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.at("wire_tx").util, 0.6);
  EXPECT_DOUBLE_EQ(merged.at("wire_tx").wait_ns, (100.0 * 10 + 400.0 * 30) / 40);
  EXPECT_EQ(merged.at("wire_tx").completed, 40u);
  EXPECT_TRUE(merged.at("wire_tx").is_link);
  EXPECT_DOUBLE_EQ(merged.at("dma_queues").util, 0.9);
}

TEST(ReportTest, JsonCarriesEveryMetricAtFullPrecision) {
  Report r;
  r.Add("p50_us", 1.0 / 3, "us");
  r.Add("setup_s", 1.5, "s");
  const std::string json = r.Json(true, 10, 0);
  EXPECT_NE(json.find("\"p50_us\": {\"value\": 0.33333333333333331, \"unit\": \"us\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0), 0u) << json;
}

}  // namespace
}  // namespace perfbench
