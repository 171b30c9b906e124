// Extension bench: cluster-size scaling. The paper argues Xenic's
// server-side NIC caching scales better than DrTM+H's coordinator-side
// address cache ("DrTM+H's approach is limited in scalability, given its
// memory overhead", 4.1.4). Our DrTM+H emulation grants the address cache
// for free, so the comparison here isolates pure protocol scaling:
// per-server throughput as the cluster grows from 3 to 12 nodes with a
// fixed per-node dataset (weak scaling).

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  // No observers: this bench prints its own table, not FinishBench's.
  const harness::RunSpec spec = ParseBenchFlags(
      argc, argv, harness::kFlagJobs | harness::kFlagSeed | harness::kRetryFlags |
                      harness::kXenicFeatureFlags);
  SweepExecutor ex(spec.jobs);

  RunConfig rc;
  rc.contexts_per_node = 64;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 800 * sim::kNsPerUs;
  spec.ApplyTo(&rc);

  // Every (cluster size, system) cell is an independent simulation; run the
  // whole grid through the sweep executor.
  const std::vector<uint32_t> node_counts = {3, 6, 9, 12};
  struct Cell {
    double tput = 0;
    double median_us = 0;
  };
  std::vector<Cell> cells(node_counts.size() * 2);
  std::vector<std::function<void()>> tasks;
  for (size_t ni = 0; ni < node_counts.size(); ++ni) {
    for (int which = 0; which < 2; ++which) {
      tasks.push_back([&, ni, which] {
        const uint32_t nodes = node_counts[ni];
        workload::Smallbank::Options wo;
        wo.num_nodes = nodes;
        wo.accounts_per_node = 40000;
        auto wl = std::make_unique<workload::Smallbank>(wo);
        SystemConfig cfg;
        if (which == 0) {
          cfg.kind = SystemConfig::Kind::kXenic;
        } else {
          cfg.kind = SystemConfig::Kind::kBaseline;
          cfg.mode = baseline::BaselineMode::kDrtmH;
        }
        cfg.num_nodes = nodes;
        cfg.replication = 3;
        spec.ApplyTo(&cfg);
        auto sys = harness::BuildSystem(cfg, *wl);
        harness::LoadWorkload(*sys, *wl);
        harness::RunResult r = harness::RunWorkload(*sys, *wl, rc);
        cells[ni * 2 + which] = Cell{r.tput_per_server, r.MedianLatencyUs()};
      });
    }
  }
  ex.RunAll(tasks);

  TablePrinter tp({"Nodes", "Xenic tput/srv", "Xenic median(us)", "DrTM+H tput/srv",
                   "DrTM+H median(us)"});
  for (size_t ni = 0; ni < node_counts.size(); ++ni) {
    const Cell& xe = cells[ni * 2];
    const Cell& dr = cells[ni * 2 + 1];
    tp.AddRow({std::to_string(node_counts[ni]), TablePrinter::FmtOps(xe.tput),
               TablePrinter::Fmt(xe.median_us, 1), TablePrinter::FmtOps(dr.tput),
               TablePrinter::Fmt(dr.median_us, 1)});
  }
  std::printf("%s\n",
              tp.Render("Extension: weak scaling, Smallbank, per-server throughput").c_str());
  std::printf("Per-server throughput should stay roughly flat for both systems (the\n"
              "commit protocol is pairwise); growing clusters raise the remote fraction\n"
              "of 2-account transactions, which favors Xenic's multi-hop path.\n");
  return 0;
}
