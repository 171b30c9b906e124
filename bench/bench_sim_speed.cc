// Simulator self-performance benchmark: raw engine event dispatch rate --
// measured for the current engine (SBO callbacks + calendar queue) AND for
// an inline replica of the seed engine (std::function + std::priority_queue)
// so the speedup is reported directly -- plus the wall-clock cost of a small
// end-to-end Retwis run. Emits machine-readable BENCH_sim.json so future
// changes have a perf trajectory to compare against.
//
// The raw-dispatch loop mirrors the simulator's real event profile: 4096
// concurrent self-rescheduling chains (the figure benches at high load keep
// thousands of events in flight) whose delays land within a few
// microseconds of now (the calendar-queue fast path), with an occasional
// far-future event to exercise the overflow heap, and captures sized past
// std::function's ~16-byte inline buffer but inside SmallCallback's 48
// bytes -- the harness's typical closure footprint. Both engines replay the
// identical precomputed delay pattern.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
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

// Replica of the seed engine this PR replaced, kept verbatim (modulo the
// Step() const_cast fix) as the comparison baseline.
namespace seedengine {

class Engine {
 public:
  using Callback = std::function<void()>;
  void ScheduleAt(sim::Tick t, Callback cb) {
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }
  void ScheduleAfter(sim::Tick d, Callback cb) { ScheduleAt(now_ + d, std::move(cb)); }
  sim::Tick now() const { return now_; }
  uint64_t Run() {
    uint64_t n = 0;
    while (!queue_.empty()) {
      auto& top = const_cast<Event&>(queue_.top());
      now_ = top.time;
      Callback cb = std::move(top.cb);
      queue_.pop();
      ++n;
      cb();
    }
    return n;
  }

 private:
  struct Event {
    sim::Tick time;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  sim::Tick now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace seedengine

template <typename EngineT>
struct ChainState {
  EngineT* eng = nullptr;
  uint32_t cursor = 0;
  uint64_t remaining = 0;
};

template <typename EngineT>
void RunChain(ChainState<EngineT>* st, uint64_t payload_a, uint64_t payload_b) {
  if (st->remaining == 0) {
    return;
  }
  st->remaining--;
  const auto& tbl = DelayTable();
  const uint32_t delay = tbl[st->cursor++ & (tbl.size() - 1)];
  // ~32-byte capture: heap-allocated by std::function, inline for
  // SmallCallback.
  st->eng->ScheduleAfter(delay, [st, payload_a, payload_b, salt = delay]() mutable {
    RunChain(st, payload_a ^ salt, payload_b + salt);
  });
}

template <typename EngineT>
double MeasureEventsPerSec(uint64_t* executed_out) {
  EngineT eng;
  std::vector<std::unique_ptr<ChainState<EngineT>>> chains;
  for (int i = 0; i < kChains; ++i) {
    auto st = std::make_unique<ChainState<EngineT>>();
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

  (void)argc;
  (void)argv;

  // Interleave three trials of each engine and keep the best, which damps
  // scheduler noise on shared hosts.
  uint64_t raw_events = 0;
  uint64_t seed_events = 0;
  double raw_eps = 0;
  double seed_eps = 0;
  for (int trial = 0; trial < 3; ++trial) {
    raw_eps = std::max(raw_eps, MeasureEventsPerSec<sim::Engine>(&raw_events));
    seed_eps = std::max(seed_eps, MeasureEventsPerSec<seedengine::Engine>(&seed_events));
  }
  std::printf("calendar+SBO engine: %s events/sec (%llu events)\n",
              TablePrinter::FmtOps(raw_eps).c_str(),
              static_cast<unsigned long long>(raw_events));
  std::printf("seed heap+std::function engine: %s events/sec  ->  %.2fx speedup\n",
              TablePrinter::FmtOps(seed_eps).c_str(), raw_eps / seed_eps);

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

  if (FILE* f = std::fopen("BENCH_sim.json", "w"); f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"raw_engine_events_per_sec\": %.0f,\n"
                 "  \"seed_engine_events_per_sec\": %.0f,\n"
                 "  \"engine_speedup\": %.3f,\n"
                 "  \"raw_engine_events\": %llu,\n"
                 "  \"retwis_wall_ms\": %.3f,\n"
                 "  \"retwis_sim_events\": %llu,\n"
                 "  \"retwis_events_per_sec\": %.0f,\n"
                 "  \"retwis_tput_per_server\": %.0f,\n"
                 "  \"hw_concurrency\": %u\n"
                 "}\n",
                 raw_eps, seed_eps, raw_eps / seed_eps,
                 static_cast<unsigned long long>(raw_events), r.wall_seconds * 1e3,
                 static_cast<unsigned long long>(r.sim_events), r.sim_events_per_sec,
                 r.tput_per_server, std::thread::hardware_concurrency());
    std::fclose(f);
    std::printf("wrote BENCH_sim.json\n");
  }
  return 0;
}
