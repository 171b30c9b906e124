#include "microbench.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/net/transport.h"
#include "src/nicmodel/smart_nic.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/store/nic_index.h"
#include "src/store/robinhood_table.h"

namespace perfbench {

namespace {

using namespace xenic;

uint64_t g_seed = 1;

// Operations queued between engine drains in the resource/channel/transport
// loops: enough to keep a backlog, as the cluster does under load.
constexpr uint64_t kDrainEvery = 256;

std::vector<uint64_t> RandomTable(uint64_t salt, size_t n, uint64_t bound) {
  Rng rng(g_seed * 0x9e3779b97f4a7c15ull + salt);
  std::vector<uint64_t> t(n);
  for (auto& v : t) {
    v = rng.NextBounded(bound);
  }
  return t;
}

void ReportSimWork(benchmark::State& state, uint64_t events, uint64_t grants, uint64_t sends) {
  using benchmark::Counter;
  state.counters["events"] = Counter(static_cast<double>(events), Counter::kAvgIterations);
  state.counters["grants"] = Counter(static_cast<double>(grants), Counter::kAvgIterations);
  state.counters["sends"] = Counter(static_cast<double>(sends), Counter::kAvgIterations);
}

// --- sim ---

// bench_sim_speed's raw-dispatch profile: 4096 self-rescheduling chains,
// delays mostly inside the calendar window plus ~1% far-future jumps,
// captures past std::function's inline buffer but inside SmallCallback's.
struct Chain {
  sim::Engine* eng = nullptr;
  const std::vector<uint64_t>* delays = nullptr;
  uint32_t cursor = 0;
};

void Fire(Chain* c, uint64_t a, uint64_t b) {
  const uint64_t d = (*c->delays)[c->cursor++ & (c->delays->size() - 1)];
  c->eng->ScheduleAfter(d, [c, a, b, d] { Fire(c, a ^ d, b + d); });
}

void BM_EngineEvent(benchmark::State& state) {
  std::vector<uint64_t> delays = RandomTable(1, 1 << 16, 2048);
  for (size_t i = 0; i < delays.size(); ++i) {
    delays[i] += 1 + (delays[i] % 128 == 0 ? 64 * sim::kNsPerUs : 0);
  }
  sim::Engine eng;
  std::vector<Chain> chains(4096);
  for (size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&eng, &delays, static_cast<uint32_t>(i * 977)};
    Fire(&chains[i], i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.Step());
  }
}

template <size_t kCaptureBytes>
void BM_Callback(benchmark::State& state) {
  struct Capture {
    uint64_t words[kCaptureBytes / 8];
  };
  Capture cap{};
  cap.words[0] = g_seed;
  uint64_t sink = 0;
  for (auto _ : state) {
    sim::SmallCallback cb([cap, &sink] { sink += cap.words[0]; });
    cb();
    cap.words[0]++;
  }
  benchmark::DoNotOptimize(sink);
}

void BM_ResourceGrant(benchmark::State& state) {
  const std::vector<uint64_t> service = RandomTable(2, 1024, 200);
  sim::Engine eng;
  sim::Resource res(&eng, "bench", 4);
  uint64_t done = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    res.Submit(50 + service[i & 1023], [&done] { ++done; });
    if (++i % kDrainEvery == 0) {
      eng.Run();
    }
  }
  eng.Run();
  benchmark::DoNotOptimize(done);
  ReportSimWork(state, eng.events_executed(), res.completed(), 0);
}

void BM_ChannelSend(benchmark::State& state) {
  const std::vector<uint64_t> bytes = RandomTable(3, 1024, 256);
  sim::Engine eng;
  sim::Channel ch(&eng, "bench", 12.5, 850);
  uint64_t done = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    ch.Send(32 + bytes[i & 1023], [&done] { ++done; });
    if (++i % kDrainEvery == 0) {
      eng.Run();
    }
  }
  eng.Run();
  benchmark::DoNotOptimize(done);
  ReportSimWork(state, eng.events_executed(), 0, ch.sends());
}

// --- net ---

// One typed EXECUTE-sized message from node 0 to node 1 through the
// SmartNIC path (Ethernet aggregation on), drained in batches.
void BM_TransportSend(benchmark::State& state) {
  const std::vector<uint64_t> bytes = RandomTable(4, 1024, 128);
  sim::Engine eng;
  nicmodel::SmartNicFabric fabric(&eng, net::PerfModel{}, 2);
  bool crashed = false;
  uint64_t messages = 0;
  net::MsgCounters counters;
  net::Transport transport(&fabric.node(0), &crashed, &messages, &counters);
  uint64_t delivered = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    transport.Send(net::MsgType::kExecute, 1, static_cast<uint32_t>(48 + bytes[i & 1023]),
                   [&delivered] { ++delivered; });
    if (++i % kDrainEvery == 0) {
      eng.Run();
    }
  }
  eng.Run();
  benchmark::DoNotOptimize(delivered);
  uint64_t grants = 0;
  uint64_t sends = 0;
  for (uint32_t n = 0; n < 2; ++n) {
    nicmodel::SmartNic& nic = fabric.node(n);
    grants += nic.nic_cores().completed();
    for (size_t p = 0; p < nic.num_tx_ports(); ++p) {
      sends += nic.tx_port(p).sends() + nic.rx_port(p).sends();
    }
  }
  ReportSimWork(state, eng.events_executed(), grants, sends);
}

// --- store ---

store::RobinhoodTable::Options TableOptions() {
  store::RobinhoodTable::Options o;
  o.capacity_log2 = 18;
  o.value_size = 64;
  o.max_displacement = 16;
  return o;
}

// A table filled to 90% occupancy with seeded keys (the lookup fixtures).
struct FilledTable {
  std::unique_ptr<store::RobinhoodTable> table;
  std::vector<store::Key> keys;
};

FilledTable Fill(uint64_t salt) {
  FilledTable f;
  f.table = std::make_unique<store::RobinhoodTable>(TableOptions());
  Rng rng(g_seed + salt);
  const store::Value v(64, 1);
  while (f.table->Occupancy() < 0.9) {
    const store::Key k = rng.Next();
    if (f.table->Insert(k, v).ok()) {
      f.keys.push_back(k);
    }
  }
  return f;
}

void BM_RobinhoodInsert(benchmark::State& state) {
  Rng rng(g_seed + 5);
  const store::Value v(64, 1);
  auto table = std::make_unique<store::RobinhoodTable>(TableOptions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Insert(rng.Next(), v));
    if (table->Occupancy() >= 0.85) {  // the load-time occupancy range
      state.PauseTiming();
      table = std::make_unique<store::RobinhoodTable>(TableOptions());
      state.ResumeTiming();
    }
  }
}

void BM_RobinhoodLookup(benchmark::State& state) {
  const FilledTable f = Fill(6);
  const std::vector<uint64_t> pick = RandomTable(7, 1 << 16, f.keys.size());
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.table->Lookup(f.keys[pick[i++ & 0xffff]]));
  }
}

template <bool kCached>
void BM_NicIndexLookup(benchmark::State& state) {
  const FilledTable f = Fill(8);
  store::NicIndex::Options no;
  no.cache_values = kCached;
  store::NicIndex index(f.table.get(), no);
  index.SyncHintsFromHost();
  const std::vector<uint64_t> pick = RandomTable(9, 1 << 16, f.keys.size());
  uint64_t i = 0;
  for (auto _ : state) {
    store::NicIndex::LookupStats st;
    benchmark::DoNotOptimize(index.LookupRemote(f.keys[pick[i++ & 0xffff]], &st));
  }
}

// --- btree (TPC-C's coordinator-local tables: ascending order keys) ---

void BM_BTreePut(benchmark::State& state) {
  auto tree = std::make_unique<btree::BTree>();
  const store::Value v(16, 2);
  uint64_t o = g_seed << 20;
  for (auto _ : state) {
    tree->Put(o++, v);
    if (tree->size() >= (1u << 18)) {
      state.PauseTiming();
      tree = std::make_unique<btree::BTree>();
      state.ResumeTiming();
    }
  }
}

void BM_BTreeGet(benchmark::State& state) {
  btree::BTree tree;
  const store::Value v(16, 2);
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    tree.Put(k * 8, v);
  }
  const std::vector<uint64_t> pick = RandomTable(10, 1 << 16, kKeys);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(pick[i++ & 0xffff] * 8));
  }
}

// --- common ---

void BM_HistogramRecord(benchmark::State& state) {
  // Latencies in the 1us..256us range the runner records.
  const std::vector<uint64_t> values = RandomTable(11, 1 << 16, 255000);
  Histogram h;
  uint64_t i = 0;
  for (auto _ : state) {
    h.Record(1000 + values[i++ & 0xffff]);
  }
  benchmark::DoNotOptimize(h.count());
}

// Collects one result per benchmark instead of printing a table.
class Collector : public benchmark::BenchmarkReporter {
 public:
  explicit Collector(std::map<std::string, MicroResult>* out) : out_(out) {}
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) {
        continue;
      }
      MicroResult m;
      m.ns = r.GetAdjustedRealTime();
      auto counter = [&r](const char* name) {
        auto it = r.counters.find(name);
        return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
      };
      m.events_per_op = counter("events");
      m.grants_per_op = counter("grants");
      m.sends_per_op = counter("sends");
      (*out_)[r.run_name.function_name] = m;
    }
  }

 private:
  std::map<std::string, MicroResult>* out_;
};

}  // namespace

std::map<std::string, MicroResult> RunMicrobenches(uint64_t seed, double min_time_s) {
  g_seed = seed;
  const std::pair<const char*, void (*)(benchmark::State&)> loops[] = {
      {"sim.ns_per_event", BM_EngineEvent},
      {"sim.callback_inline_ns", BM_Callback<32>},
      {"sim.callback_spilled_ns", BM_Callback<64>},
      {"sim.resource_grant_ns", BM_ResourceGrant},
      {"sim.channel_send_ns", BM_ChannelSend},
      {"net.transport_send_ns", BM_TransportSend},
      {"store.robinhood_insert_ns", BM_RobinhoodInsert},
      {"store.robinhood_lookup_ns", BM_RobinhoodLookup},
      {"store.nic_index_lookup_cached_ns", BM_NicIndexLookup<true>},
      {"store.nic_index_lookup_uncached_ns", BM_NicIndexLookup<false>},
      {"btree.put_ns", BM_BTreePut},
      {"btree.get_ns", BM_BTreeGet},
      {"common.histogram_record_ns", BM_HistogramRecord},
  };
  for (const auto& [name, fn] : loops) {
    benchmark::RegisterBenchmark(name, fn)->MinTime(min_time_s)->Unit(benchmark::kNanosecond);
  }
  std::map<std::string, MicroResult> out;
  Collector collector(&out);
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::ClearRegisteredBenchmarks();
  return out;
}

}  // namespace perfbench
