// Extension bench (paper sections 3.1 / 4.3.4): Xenic on an ON-PATH
// SmartNIC (LiquidIO-like) versus the same protocol on an OFF-PATH
// SmartNIC (BlueField/Stingray-like), where SoC-to-host accesses pay
// network-stack latency instead of a low-level DMA engine. The paper
// argues off-path devices "showed prohibitively high latency, precluding
// Xenic's latency reduction goal" -- this quantifies it against DrTM+H on
// plain RDMA hardware.

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  // No observers: this bench prints its own summary, not FinishBench's.
  const harness::RunSpec spec = ParseBenchFlags(
      argc, argv, harness::kFlagJobs | harness::kFlagSeed | harness::kRetryFlags |
                      harness::kXenicFeatureFlags);
  const uint32_t nodes = 6;
  auto make_wl = [&]() -> std::unique_ptr<workload::Workload> {
    workload::Smallbank::Options wo;
    wo.num_nodes = nodes;
    wo.accounts_per_node = 60000;
    return std::make_unique<workload::Smallbank>(wo);
  };

  RunConfig rc;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 1000 * sim::kNsPerUs;
  const std::vector<uint32_t> loads = {2, 16, 64, 128};
  spec.ApplyTo(&rc);

  SystemConfig on_path;
  on_path.kind = SystemConfig::Kind::kXenic;
  on_path.num_nodes = nodes;
  SystemConfig off_path = on_path;
  off_path.perf = net::OffPathPerfModel();
  std::vector<SystemConfig> cfgs = {on_path, off_path};
  spec.ApplyTo(&cfgs);
  SystemConfig drtmh;
  drtmh.kind = SystemConfig::Kind::kBaseline;
  drtmh.mode = baseline::BaselineMode::kDrtmH;
  drtmh.num_nodes = nodes;
  cfgs.push_back(drtmh);
  SweepExecutor ex(spec.jobs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  curves[0].system = "Xenic (on-path NIC)";
  curves[1].system = "Xenic (off-path NIC)";
  curves[2].system = "DrTM+H (RDMA NIC)";

  PrintCurves("Extension: on-path vs off-path SmartNIC (Smallbank)", curves);
  std::printf("Paper 4.3.4: \"if the SmartNIC hardware does not show latency reduction\n"
              "potential, using SmartNICs may not be justifiable over a host-only design\".\n"
              "Off-path Xenic min median: %.1fus vs on-path %.1fus vs DrTM+H %.1fus.\n",
              curves[1].MinMedianLatencyUs(), curves[0].MinMedianLatencyUs(),
              curves[2].MinMedianLatencyUs());
  return 0;
}
