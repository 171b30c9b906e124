// Figure 8d: Smallbank throughput-per-server vs median latency, Xenic
// against DrTM+H / DrTM+H NC / FaSST / DrTM+R. Paper result: Xenic reaches
// 12.0M txn/s per server, 2.21x DrTM+H's peak, with 21.5% lower minimum
// median latency; both saturate network bandwidth at peak.

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  const harness::RunSpec spec = ParseBenchFlags(argc, argv);
  SweepExecutor ex(spec.jobs);
  const uint32_t nodes = 6;
  auto make_wl = [&]() -> std::unique_ptr<workload::Workload> {
    workload::Smallbank::Options wo;
    wo.num_nodes = nodes;
    wo.accounts_per_node = 150000;  // paper: 2.4M/server (scaled for sim memory)
    return std::make_unique<workload::Smallbank>(wo);
  };

  RunConfig rc;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 1200 * sim::kNsPerUs;

  const std::vector<uint32_t> loads = {1, 4, 16, 64, 128, 192};
  std::vector<SystemConfig> cfgs = Figure8Systems(nodes);
  spec.ApplyTo(&rc);
  spec.ApplyTo(&cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  PrintCurves("Figure 8d: Smallbank, throughput per server vs median latency", curves);
  FinishBench(spec, "fig8d_smallbank", cfgs, make_wl, rc, curves);
  return 0;
}
