// Table 3: minimum thread counts to stay within 95% of peak throughput,
// for Xenic (host + NIC cores), DrTM+H, and FaSST on the three benchmarks.
// NIC threads are normalized by the ARM/Xeon Coremark ratio (0.31x) to
// produce the paper's "normalized thread count".
// Paper: TPC-C NO: Xenic 21.7 (18 host, 12 NIC) vs DrTM+H 24, FaSST 32;
// Retwis: 9.9 (5, 16) vs 18, 24; Smallbank: 9.9 (5, 16) vs 20, 28.

#include "bench/bench_common.h"
#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace {

using namespace xenic;
using namespace xenic::bench;

using WorkloadFactory = std::function<std::unique_ptr<workload::Workload>()>;

double RunOnce(SystemConfig cfg, const WorkloadFactory& make_wl, uint32_t contexts) {
  auto wl = make_wl();
  auto system = harness::BuildSystem(cfg, *wl);
  harness::LoadWorkload(*system, *wl);
  RunConfig rc;
  rc.contexts_per_node = contexts;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 700 * sim::kNsPerUs;
  return harness::RunWorkload(*system, *wl, rc).tput_per_server;
}

// Ascending search for the smallest value in `ladder` whose run stays
// within 95% of `peak`. With a multi-worker executor every rung runs
// concurrently and the first satisfying rung is picked afterwards --
// the same answer the serial early-exit scan produces.
uint32_t MinThreads(SweepExecutor& ex, const std::vector<uint32_t>& ladder, double peak,
                    const std::function<double(uint32_t)>& run) {
  if (ex.jobs() <= 1) {
    for (uint32_t t : ladder) {
      if (run(t) >= 0.95 * peak) {
        return t;
      }
    }
    return ladder.back();
  }
  std::vector<std::function<double()>> tasks;
  tasks.reserve(ladder.size());
  for (uint32_t t : ladder) {
    tasks.push_back([&run, t] { return run(t); });
  }
  const std::vector<double> tput = ex.Map(tasks);
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (tput[i] >= 0.95 * peak) {
      return ladder[i];
    }
  }
  return ladder.back();
}

struct BenchDef {
  std::string name;
  WorkloadFactory make;
  uint32_t contexts;
};

}  // namespace

int main(int argc, char** argv) {
  // --jobs is the only flag.
  SweepExecutor ex(ParseBenchFlags(argc, argv, harness::kFlagJobs).jobs);
  const uint32_t nodes = 6;
  net::PerfModel base_model;

  std::vector<BenchDef> benches;
  benches.push_back({"TPC-C NO",
                     [&]() -> std::unique_ptr<workload::Workload> {
                       workload::Tpcc::Options wo;
                       wo.num_nodes = nodes;
                       wo.warehouses_per_node = 36;
                       wo.customers_per_district = 40;
                       wo.items = 1000;
                       wo.new_order_only = true;
                       wo.uniform_remote_items = true;
                       return std::make_unique<workload::Tpcc>(wo);
                     },
                     96});
  benches.push_back({"Retwis",
                     [&]() -> std::unique_ptr<workload::Workload> {
                       workload::Retwis::Options wo;
                       wo.num_nodes = nodes;
                       wo.keys_per_node = 100000;
                       return std::make_unique<workload::Retwis>(wo);
                     },
                     128});
  benches.push_back({"Smallbank",
                     [&]() -> std::unique_ptr<workload::Workload> {
                       workload::Smallbank::Options wo;
                       wo.num_nodes = nodes;
                       wo.accounts_per_node = 120000;
                       return std::make_unique<workload::Smallbank>(wo);
                     },
                     128});

  const std::vector<uint32_t> host_ladder = {2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 28, 32};
  const std::vector<uint32_t> nic_ladder = {4, 8, 12, 16, 20, 24};

  TablePrinter tp({"Benchmark", "Xenic Norm.", "(Host, NIC)", "DrTM+H", "FaSST"});
  for (const auto& b : benches) {
    std::fprintf(stderr, "== %s ==\n", b.name.c_str());
    // Xenic.
    SystemConfig xcfg;
    xcfg.kind = SystemConfig::Kind::kXenic;
    xcfg.num_nodes = nodes;
    const double xpeak = RunOnce(xcfg, b.make, b.contexts);
    const uint32_t xhost = MinThreads(ex, host_ladder, xpeak, [&](uint32_t t) {
      SystemConfig c = xcfg;
      c.perf.host_threads = t;
      return RunOnce(c, b.make, b.contexts);
    });
    const uint32_t xnic = MinThreads(ex, nic_ladder, xpeak, [&](uint32_t t) {
      SystemConfig c = xcfg;
      c.perf.nic_cores = t;
      return RunOnce(c, b.make, b.contexts);
    });
    const double xnorm = xhost + base_model.arm_multithread_ratio * xnic;

    // Baselines (host threads only).
    auto baseline_min = [&](baseline::BaselineMode mode) {
      SystemConfig c;
      c.kind = SystemConfig::Kind::kBaseline;
      c.mode = mode;
      c.num_nodes = nodes;
      const double peak = RunOnce(c, b.make, b.contexts);
      return MinThreads(ex, host_ladder, peak, [&](uint32_t t) {
        SystemConfig cc = c;
        cc.perf.host_threads = t;
        return RunOnce(cc, b.make, b.contexts);
      });
    };
    const uint32_t drtmh = baseline_min(baseline::BaselineMode::kDrtmH);
    const uint32_t fasst = baseline_min(baseline::BaselineMode::kFasst);

    tp.AddRow({b.name, TablePrinter::Fmt(xnorm, 1),
               "(" + std::to_string(xhost) + ", " + std::to_string(xnic) + ")",
               std::to_string(drtmh), std::to_string(fasst)});
  }
  std::printf("%s\n", tp.Render("Table 3: minimum threads for >=95% of peak throughput").c_str());
  return 0;
}
