// Harness runner behavior: warmup exclusion, retry accounting, counted
// (tag-filtered) throughput, determinism for a fixed seed, and the two trace
// sinks sharing one run.

#include <gtest/gtest.h>

#include "src/harness/runner.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"
#include "src/workload/smallbank.h"

namespace xenic::harness {
namespace {

std::unique_ptr<workload::Smallbank> MakeWl(uint32_t nodes = 3) {
  workload::Smallbank::Options wo;
  wo.num_nodes = nodes;
  wo.accounts_per_node = 3000;
  return std::make_unique<workload::Smallbank>(wo);
}

SystemConfig Cfg() {
  SystemConfig cfg;
  cfg.kind = SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  cfg.replication = 2;
  return cfg;
}

TEST(RunnerTest, ThroughputScalesWithMeasureWindow) {
  auto wl = MakeWl();
  auto sys = BuildSystem(Cfg(), *wl);
  LoadWorkload(*sys, *wl);
  RunConfig rc;
  rc.contexts_per_node = 8;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 300 * sim::kNsPerUs;
  const RunResult short_run = RunWorkload(*sys, *wl, rc);
  rc.measure = 1200 * sim::kNsPerUs;
  const RunResult long_run = RunWorkload(*sys, *wl, rc);
  // Rates should agree within noise; commit COUNTS scale ~4x.
  EXPECT_NEAR(long_run.tput_per_server / short_run.tput_per_server, 1.0, 0.3);
  EXPECT_GT(long_run.committed, short_run.committed * 2);
}

TEST(RunnerTest, DeterministicForSeed) {
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    auto wl = MakeWl();
    auto sys = BuildSystem(Cfg(), *wl);
    LoadWorkload(*sys, *wl);
    RunConfig rc;
    rc.contexts_per_node = 6;
    rc.seed = 42;
    rc.warmup = 100 * sim::kNsPerUs;
    rc.measure = 400 * sim::kNsPerUs;
    tput[i] = RunWorkload(*sys, *wl, rc).tput_per_server;
  }
  EXPECT_DOUBLE_EQ(tput[0], tput[1]);
}

TEST(RunnerTest, DifferentSeedsDiffer) {
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    auto wl = MakeWl();
    auto sys = BuildSystem(Cfg(), *wl);
    LoadWorkload(*sys, *wl);
    RunConfig rc;
    rc.contexts_per_node = 6;
    rc.seed = 100 + static_cast<uint64_t>(i);
    rc.warmup = 100 * sim::kNsPerUs;
    rc.measure = 400 * sim::kNsPerUs;
    tput[i] = RunWorkload(*sys, *wl, rc).tput_per_server;
  }
  EXPECT_NE(tput[0], tput[1]);  // different streams, (almost surely) different counts
}

TEST(RunnerTest, LatencyCountsOnlyMeasuredWindow) {
  auto wl = MakeWl();
  auto sys = BuildSystem(Cfg(), *wl);
  LoadWorkload(*sys, *wl);
  RunConfig rc;
  rc.contexts_per_node = 4;
  rc.warmup = 400 * sim::kNsPerUs;
  rc.measure = 400 * sim::kNsPerUs;
  const RunResult r = RunWorkload(*sys, *wl, rc);
  // Latency records == counted commits (Smallbank counts everything).
  EXPECT_EQ(r.latency.count(), r.committed);
}

TEST(RunnerTest, UtilizationWithinBounds) {
  auto wl = MakeWl();
  auto sys = BuildSystem(Cfg(), *wl);
  LoadWorkload(*sys, *wl);
  RunConfig rc;
  rc.contexts_per_node = 32;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 500 * sim::kNsPerUs;
  const RunResult r = RunWorkload(*sys, *wl, rc);
  EXPECT_GE(r.host_utilization, 0.0);
  EXPECT_LE(r.host_utilization, 1.01);
  EXPECT_GE(r.nic_utilization, 0.0);
  EXPECT_LE(r.nic_utilization, 1.01);
  EXPECT_GE(r.wire_utilization, 0.0);
  EXPECT_LE(r.wire_utilization, 1.05);
}

// Both sinks on one run (the engine's one trace slot holds a tee): the run
// is the plain run, the critical paths are those of a txn_trace-only run,
// and the trace is that of a trace-only run.
TEST(RunnerTest, TraceAndTxnTraceShareOneRun) {
  auto run = [](sim::TraceSink* trace, obs::TxnTraceSink* txn_trace) {
    auto wl = MakeWl();
    auto sys = BuildSystem(Cfg(), *wl);
    LoadWorkload(*sys, *wl);
    RunConfig rc;
    rc.contexts_per_node = 8;
    rc.warmup = 50 * sim::kNsPerUs;
    rc.measure = 200 * sim::kNsPerUs;
    rc.trace = trace;
    rc.txn_trace = txn_trace;
    return RunWorkload(*sys, *wl, rc);
  };
  const RunResult plain = run(nullptr, nullptr);
  obs::TraceRecorder trace_only;
  run(&trace_only, nullptr);
  obs::TxnTraceSink txn_only_sink;
  const RunResult txn_only = run(nullptr, &txn_only_sink);
  obs::TraceRecorder rec;
  obs::TxnTraceSink sink;
  const RunResult both = run(&rec, &sink);

  EXPECT_EQ(both.committed, plain.committed);
  EXPECT_EQ(both.aborted, plain.aborted);
  EXPECT_EQ(both.sim_events, plain.sim_events);
  EXPECT_EQ(both.measure_window, plain.measure_window);
  EXPECT_EQ(both.latency.count(), plain.latency.count());
  EXPECT_EQ(both.latency.Median(), plain.latency.Median());
  EXPECT_EQ(both.latency.P99(), plain.latency.P99());
  EXPECT_EQ(both.latency.max(), plain.latency.max());
  EXPECT_DOUBLE_EQ(both.tput_per_server, plain.tput_per_server);
  EXPECT_EQ(both.txn_stats.messages, plain.txn_stats.messages);

  ASSERT_FALSE(txn_only.txn_paths.empty());
  ASSERT_EQ(both.txn_paths.size(), txn_only.txn_paths.size());
  for (size_t i = 0; i < both.txn_paths.size(); ++i) {
    EXPECT_EQ(both.txn_paths[i].total_ns, txn_only.txn_paths[i].total_ns) << i;
    for (int b = 0; b < obs::kNumBuckets; ++b) {
      EXPECT_EQ(both.txn_paths[i].ns[b], txn_only.txn_paths[i].ns[b]) << i << " bucket " << b;
    }
  }
  EXPECT_EQ(sink.zero_id_spans(), txn_only_sink.zero_id_spans());
  EXPECT_EQ(sink.orphan_instants(), txn_only_sink.orphan_instants());
  EXPECT_EQ(sink.late_spans(), txn_only_sink.late_spans());

  EXPECT_GT(rec.num_events(), 0u);
  EXPECT_EQ(rec.ToJson(), trace_only.ToJson());
}

}  // namespace
}  // namespace xenic::harness
