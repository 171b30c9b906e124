// SweepExecutor: results must be identical to serial execution for any
// worker count -- both for plain tasks and for full simulation runs.

#include "src/harness/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/run_spec.h"
#include "src/harness/runner.h"
#include "src/harness/system_adapter.h"
#include "src/workload/smallbank.h"

namespace xenic::harness {
namespace {

TEST(SweepExecutorTest, RunsEveryTaskExactlyOnce) {
  for (uint32_t jobs : {1u, 2u, 8u}) {
    SweepExecutor ex(jobs);
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    }
    ex.RunAll(tasks);
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(SweepExecutorTest, MapCollectsResultsByIndexForAnyWorkerCount) {
  std::vector<std::function<uint64_t()>> tasks;
  for (uint64_t i = 0; i < 64; ++i) {
    tasks.push_back([i] { return i * i + 7; });
  }
  SweepExecutor serial(1);
  const std::vector<uint64_t> expected = serial.Map(tasks);
  for (uint32_t jobs : {2u, 8u}) {
    SweepExecutor ex(jobs);
    EXPECT_EQ(ex.Map(tasks), expected) << "jobs=" << jobs;
  }
}

TEST(SweepExecutorTest, TaskExceptionPropagatesAfterJoin) {
  SweepExecutor ex(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] {
      if (i == 9) {
        throw std::runtime_error("boom");
      }
    });
  }
  EXPECT_THROW(ex.RunAll(tasks), std::runtime_error);
}

// The benches size their executor from --jobs, parsed by the shared flag
// parser (harness::FlagSet) in both spellings; with neither the flag nor
// XENIC_JOBS a sweep runs on one worker.
TEST(SweepExecutorTest, ParseJobsFlag) {
  const auto workers = [](std::vector<std::string> args) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    RunSpec spec;
    FlagSet(&spec, kFlagJobs).Parse(static_cast<int>(argv.size()), argv.data());
    return SweepExecutor(spec.jobs).jobs();
  };
  EXPECT_EQ(workers({"--jobs", "6"}), 6u);
  EXPECT_EQ(workers({"--jobs=3"}), 3u);
  const char* env = std::getenv("XENIC_JOBS");
  const std::string saved = env != nullptr ? env : "";
  unsetenv("XENIC_JOBS");
  EXPECT_EQ(workers({}), 1u);
  if (env != nullptr) {
    setenv("XENIC_JOBS", saved.c_str(), 1);
  }
}

// The load-bearing guarantee: full simulation runs submitted as independent
// sweep tasks produce bit-identical results for 1, 2, and 8 workers.
TEST(SweepExecutorTest, SimulationSweepIsIdenticalAcrossWorkerCounts) {
  const std::vector<uint32_t> loads = {2, 8, 24};

  struct Point {
    uint64_t committed;
    uint64_t aborted;
    double tput;
    uint64_t median;

    bool operator==(const Point& o) const {
      return committed == o.committed && aborted == o.aborted && tput == o.tput &&
             median == o.median;
    }
  };

  auto run_sweep = [&loads](uint32_t jobs) {
    SweepExecutor ex(jobs);
    std::vector<Point> out(loads.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < loads.size(); ++i) {
      tasks.push_back([&loads, &out, i] {
        workload::Smallbank::Options wo;
        wo.num_nodes = 2;
        wo.accounts_per_node = 4000;
        workload::Smallbank wl(wo);
        SystemConfig cfg;
        cfg.kind = SystemConfig::Kind::kXenic;
        cfg.num_nodes = 2;
        cfg.replication = 2;
        auto sys = BuildSystem(cfg, wl);
        LoadWorkload(*sys, wl);
        RunConfig rc;
        rc.contexts_per_node = loads[i];
        rc.seed = 11;
        rc.warmup = 50 * sim::kNsPerUs;
        rc.measure = 200 * sim::kNsPerUs;
        const RunResult r = RunWorkload(*sys, wl, rc);
        out[i] = Point{r.committed, r.aborted, r.tput_per_server, r.latency.Median()};
      });
    }
    ex.RunAll(tasks);
    return out;
  };

  const std::vector<Point> serial = run_sweep(1);
  EXPECT_TRUE(run_sweep(2) == serial);
  EXPECT_TRUE(run_sweep(8) == serial);
}

}  // namespace
}  // namespace xenic::harness
