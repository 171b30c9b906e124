// Figure 9b: Smallbank median-latency ablation at low load. Starting from
// the DrTM+H-like baseline, enable Xenic's latency features:
//   baseline -> +Smart remote ops -> +NIC execution -> +OCC optimization.
// Paper: the baseline is 1.37x DrTM+H's latency; the steps reach 1.09x,
// 0.93x, and finally 0.78x (22% below DrTM+H).

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
    wo.accounts_per_node = 150000;
    return std::make_unique<workload::Smallbank>(wo);
  };

  RunConfig rc;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 1000 * sim::kNsPerUs;
  const std::vector<uint32_t> loads = {2};  // low load: latency-oriented

  struct Step {
    std::string name;
    bool smart;
    bool nic_exec;
    bool multihop;
  };
  const std::vector<Step> steps = {
      {"Xenic baseline", false, false, false},
      {"+Smart remote ops", true, false, false},
      {"+NIC execution", true, true, false},
      {"+OCC optimization", true, true, true},
  };

  std::vector<SystemConfig> cfgs;
  SystemConfig drtmh;
  drtmh.kind = SystemConfig::Kind::kBaseline;
  drtmh.mode = baseline::BaselineMode::kDrtmH;
  drtmh.num_nodes = nodes;
  cfgs.push_back(drtmh);
  for (const auto& s : steps) {
    SystemConfig cfg;
    cfg.kind = SystemConfig::Kind::kXenic;
    cfg.num_nodes = nodes;
    cfg.features.smart_remote_ops = s.smart;
    cfg.features.nic_execution = s.nic_exec;
    cfg.features.occ_multihop = s.multihop;
    // Throughput-oriented batching stays on (its latency cost is small).
    cfgs.push_back(cfg);
  }

  spec.ApplyTo(&rc);
  spec.ApplyTo(&cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  Curve ref = std::move(curves.front());
  curves.erase(curves.begin());
  for (size_t i = 0; i < steps.size(); ++i) {
    curves[i].system = steps[i].name;
  }

  TablePrinter tp({"Configuration", "Median latency (us)", "vs DrTM+H"});
  tp.AddRow({"DrTM+H", TablePrinter::Fmt(ref.MinMedianLatencyUs(), 1), "1.00x"});
  for (const auto& c : curves) {
    tp.AddRow({c.system, TablePrinter::Fmt(c.MinMedianLatencyUs(), 1),
               TablePrinter::Fmt(c.MinMedianLatencyUs() / ref.MinMedianLatencyUs(), 2) + "x"});
  }
  std::printf("%s\n",
              tp.Render("Figure 9b: Smallbank median latency, enabling Xenic features").c_str());

  std::vector<Curve> all;
  all.push_back(ref);
  all.insert(all.end(), curves.begin(), curves.end());
  FinishBench(spec, "fig9b_ablation_latency", cfgs, make_wl, rc, all);
  return 0;
}
