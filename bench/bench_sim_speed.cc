// Simulator self-performance benchmark: the engine's raw event dispatch
// rate (SBO callbacks + calendar queue) plus the wall-clock cost of a small
// end-to-end Retwis run. Emits machine-readable BENCH_sim.json so future
// changes have a perf trajectory to compare against.
//
// The raw-dispatch loop mirrors the simulator's real event profile: 4096
// concurrent self-rescheduling chains (the figure benches at high load keep
// thousands of events in flight) whose delays land within a few
// microseconds of now (the calendar-queue fast path), with an occasional
// far-future event to exercise the overflow heap, and captures of about 32
// bytes, inside SmallCallback's 48 -- the harness's typical closure
// footprint.

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/workload/retwis.h"

namespace {

using namespace xenic;

// Shared delay pattern (deterministic, precomputed so the measurement
// isolates engine overhead rather than Rng throughput).
const std::vector<uint32_t>& DelayTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1 << 16);
    Rng rng(424242);
    for (auto& d : t) {
      // 1..2048 ns: inside the calendar wheel window. ~1% of events jump
      // far ahead, forcing the overflow-heap + rebase path.
      d = 1 + static_cast<uint32_t>(rng.NextBounded(2048));
      if (rng.NextBounded(128) == 0) {
        d += 64 * static_cast<uint32_t>(sim::kNsPerUs);
      }
    }
    return t;
  }();
  return table;
}

constexpr int kChains = 4096;
constexpr uint64_t kTotalEvents = 4'000'000;

struct ChainState {
  sim::Engine* eng = nullptr;
  uint32_t cursor = 0;
  uint64_t remaining = 0;
};

void RunChain(ChainState* st, uint64_t payload_a, uint64_t payload_b) {
  if (st->remaining == 0) {
    return;
  }
  st->remaining--;
  const auto& tbl = DelayTable();
  const uint32_t delay = tbl[st->cursor++ & (tbl.size() - 1)];
  // ~32-byte capture: inline in SmallCallback.
  st->eng->ScheduleAfter(delay, [st, payload_a, payload_b, salt = delay]() mutable {
    RunChain(st, payload_a ^ salt, payload_b + salt);
  });
}

double MeasureEventsPerSec(uint64_t* executed_out) {
  sim::Engine eng;
  std::vector<std::unique_ptr<ChainState>> chains;
  for (int i = 0; i < kChains; ++i) {
    auto st = std::make_unique<ChainState>();
    st->eng = &eng;
    st->cursor = static_cast<uint32_t>(i) * 977;
    st->remaining = kTotalEvents / kChains;
    chains.push_back(std::move(st));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& st : chains) {
    RunChain(st.get(), 0x1234, 0x5678);
  }
  const uint64_t executed = eng.Run();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  *executed_out = executed;
  return secs > 0 ? static_cast<double>(executed) / secs : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xenic::bench;
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  ParseBenchFlags(argc, argv, harness::kFlagJobs);

  // Keep the best of three trials, which damps scheduler noise on shared
  // hosts.
  uint64_t raw_events = 0;
  double raw_eps = 0;
  for (int trial = 0; trial < 3; ++trial) {
    raw_eps = std::max(raw_eps, MeasureEventsPerSec(&raw_events));
  }
  std::printf("calendar+SBO engine: %s events/sec (%llu events)\n",
              TablePrinter::FmtOps(raw_eps).c_str(),
              static_cast<unsigned long long>(raw_events));

  // Small end-to-end Retwis run on the full Xenic stack.
  workload::Retwis::Options wo;
  wo.num_nodes = 3;
  wo.keys_per_node = 20000;
  workload::Retwis wl(wo);
  SystemConfig cfg;
  cfg.kind = SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  auto system = harness::BuildSystem(cfg, wl);
  harness::LoadWorkload(*system, wl);
  RunConfig rc;
  rc.contexts_per_node = 32;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 600 * sim::kNsPerUs;
  const RunResult r = harness::RunWorkload(*system, wl, rc);
  std::printf("retwis run: %.1f ms wall, %s sim events, %s events/sec, %s txn/s/srv\n",
              r.wall_seconds * 1e3, TablePrinter::FmtOps(static_cast<double>(r.sim_events)).c_str(),
              TablePrinter::FmtOps(r.sim_events_per_sec).c_str(),
              TablePrinter::FmtOps(r.tput_per_server).c_str());

  // Wall-clock rates measure the host and jitter run to run, so their bounds
  // are loose; the event counts are the schedule's and must not move.
  WriteBenchFile("BENCH_sim.json",
                 JsonObject()
                     .Num("raw_engine_events_per_sec", raw_eps, 0)
                     .Int("raw_engine_events", raw_events)
                     .Num("retwis_wall_ms", r.wall_seconds * 1e3, 3)
                     .Int("retwis_sim_events", r.sim_events)
                     .Num("retwis_events_per_sec", r.sim_events_per_sec, 0)
                     .Num("retwis_tput_per_server", r.tput_per_server, 0)
                     .Int("hw_concurrency", std::thread::hardware_concurrency()),
                 {Metric("raw_engine_events_per_sec", "1/s", "higher", 0.6),
                  Metric("raw_engine_events", "count", "exact"),
                  Metric("retwis_wall_ms", "ms", "lower", 0.6),
                  Metric("retwis_sim_events", "count", "exact"),
                  Metric("retwis_events_per_sec", "1/s", "higher", 0.6),
                  Metric("retwis_tput_per_server", "txn/s", "higher", 0.05)});
  return 0;
}
