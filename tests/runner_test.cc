// Harness runner behavior: warmup exclusion, retry accounting, counted
// (tag-filtered) throughput, determinism for a fixed seed, and the two trace
// sinks sharing one run.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/runner.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"
#include "src/workload/smallbank.h"
#include "src/workload/ycsb.h"

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

// Forwards every call to a real system and follows each attempt: the run
// that submitted it, whether it is still outstanding, and what its
// callback did.
class AttemptLedger : public SystemAdapter {
 public:
  explicit AttemptLedger(std::unique_ptr<SystemAdapter> inner) : inner_(std::move(inner)) {}

  // The next RunWorkload measures over (now + warmup, now + warmup +
  // measure]; attempts submitted from now on are its own.
  void BeginRun(sim::Tick warmup, sim::Tick measure) {
    run_++;
    measure_from_ = engine().now() + warmup;
    stop_at_ = measure_from_ + measure;
    outstanding_.assign(num_nodes(), 0);
    max_outstanding_ = 0;
    window_commits_ = 0;
  }
  // Callbacks delivered after their run stopped, and submissions made
  // inside them or at any other time after the current run stopped.
  uint64_t stragglers() const { return stragglers_; }
  uint64_t late_submits() const { return late_submits_; }
  // The current run's commits inside its measurement window, and the most
  // of its attempts outstanding at one node at once.
  uint64_t window_commits() const { return window_commits_; }
  uint32_t max_outstanding() const { return max_outstanding_; }

  uint64_t Submit(store::NodeId node, txn::TxnRequest req, txn::CommitCallback done) override {
    const sim::Tick now = engine().now();
    if (now > stop_at_) {
      late_submits_++;
    }
    max_outstanding_ = std::max(max_outstanding_, ++outstanding_[node]);
    return inner_->Submit(
        node, std::move(req), [this, node, run = run_, done = std::move(done)](txn::TxnResult r) {
          const sim::Tick now = engine().now();
          if (run != run_ || now > stop_at_) {
            stragglers_++;
            done(r);
            return;
          }
          outstanding_[node]--;
          if (r.outcome == txn::TxnOutcome::kCommitted && now > measure_from_) {
            window_commits_++;
          }
          done(r);
        });
  }

  std::string Name() const override { return inner_->Name(); }
  sim::Engine& engine() override { return inner_->engine(); }
  uint32_t num_nodes() const override { return inner_->num_nodes(); }
  void LoadReplicated(store::TableId t, store::Key k, const store::Value& v) override {
    inner_->LoadReplicated(t, k, v);
  }
  void SetWorkerHook(store::NodeId node,
                     std::function<sim::Tick(const store::LogWrite&)> hook) override {
    inner_->SetWorkerHook(node, std::move(hook));
  }
  void StartWorkers() override { inner_->StartWorkers(); }
  void StopWorkers() override { inner_->StopWorkers(); }
  txn::TxnStats TotalStats() const override { return inner_->TotalStats(); }
  void ResetStats() override { inner_->ResetStats(); }
  double WireUtilization(sim::Tick w) const override { return inner_->WireUtilization(w); }
  double HostUtilization(sim::Tick w) const override { return inner_->HostUtilization(w); }
  double NicUtilization(sim::Tick w) const override { return inner_->NicUtilization(w); }
  uint64_t DmaOps() const override { return inner_->DmaOps(); }
  uint64_t DmaBytes() const override { return inner_->DmaBytes(); }
  void ForEachResource(const std::function<void(const obs::ResourceRef&)>& fn) override {
    inner_->ForEachResource(fn);
  }
  void ForEachWireChannel(const std::function<void(sim::Channel&)>& fn) override {
    inner_->ForEachWireChannel(fn);
  }
  void StopNodeWorkers(store::NodeId node) override { inner_->StopNodeWorkers(node); }
  void StartNodeWorkers(store::NodeId node) override { inner_->StartNodeWorkers(node); }

 private:
  std::unique_ptr<SystemAdapter> inner_;
  int run_ = 0;
  sim::Tick measure_from_ = 0;
  sim::Tick stop_at_ = 0;
  std::vector<uint32_t> outstanding_;
  uint32_t max_outstanding_ = 0;
  uint64_t window_commits_ = 0;
  uint64_t stragglers_ = 0;
  uint64_t late_submits_ = 0;
};

// A run stops with attempts in flight and contexts in backoff: the former
// complete during its teardown, and backoffs longer than the teardown wake
// up during the next run on the same system. They belong to a stopped run,
// so they count nowhere and start nothing: nothing is submitted between a
// run's stop and the next run, every submission of the next run is one of
// its own contexts', and each run counts exactly its own window's commits.
TEST(RunnerTest, StoppedRunsStragglersCountNowhere) {
  workload::Ycsb::Options wo;
  wo.num_nodes = 3;
  wo.keys_per_node = 50;
  wo.zipf_theta = 0.9;
  wo.ops_per_txn = 4;
  workload::Ycsb wl(wo);
  AttemptLedger sys(BuildSystem(Cfg(), wl));
  LoadWorkload(sys, wl);
  RunConfig rc;
  rc.seed = 3;
  rc.contexts_per_node = 8;
  rc.warmup = 50 * sim::kNsPerUs;
  rc.measure = 2000 * sim::kNsPerUs;
  // Backoffs of 150 to 300 us, against the 200 us teardown.
  rc.retry.backoff_base = 150 * sim::kNsPerUs;
  sys.BeginRun(rc.warmup, rc.measure);
  const RunResult first = RunWorkload(sys, wl, rc);
  ASSERT_GT(first.aborted, 0u);
  EXPECT_EQ(first.committed, sys.window_commits());
  EXPECT_GT(sys.stragglers(), 0u) << "attempts in flight at the stop";
  EXPECT_FALSE(sys.engine().idle()) << "backoffs that outlive the teardown";

  rc.contexts_per_node = 1;
  rc.retry = txn::RetryPolicyConfig{};
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 1000 * sim::kNsPerUs;
  sys.BeginRun(rc.warmup, rc.measure);
  const RunResult second = RunWorkload(sys, wl, rc);
  EXPECT_EQ(sys.late_submits(), 0u);
  EXPECT_LE(sys.max_outstanding(), rc.contexts_per_node);
  EXPECT_GT(second.committed, 0u);
  EXPECT_EQ(second.committed, sys.window_commits());
  EXPECT_EQ(second.latency.count(), second.committed);  // YCSB counts every commit
}

}  // namespace
}  // namespace xenic::harness
