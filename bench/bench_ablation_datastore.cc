// Data-store design ablations (extensions beyond the paper's figures,
// quantifying the design choices sections 4.1 and 4.3.3 argue for):
//  (a) NIC cache capacity sweep: Smallbank throughput as the SmartNIC
//      object cache shrinks from "fits everything" to nothing -- misses
//      turn into PCIe DMA lookups ("these misses incur PCIe bandwidth
//      overhead, potentially becoming a bottleneck").
//  (b) Displacement limit Dm sweep: end-to-end effect of the host table's
//      probing bound on transaction throughput (larger Dm = bigger DMA
//      region reads on every cache miss).

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  ParseBenchFlags(argc, argv, harness::kFlagJobs);

  const uint32_t nodes = 6;
  RunConfig rc;
  rc.contexts_per_node = 64;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 800 * sim::kNsPerUs;

  // (a) cache capacity sweep.
  {
    TablePrinter tp({"NIC cache budget", "Tput/server", "Median (us)", "DMA reads/txn"});
    for (uint64_t budget_kb : {0ull, 16384ull, 4096ull, 1024ull, 256ull, 64ull}) {
      workload::Smallbank::Options wo;
      wo.num_nodes = nodes;
      wo.accounts_per_node = 60000;
      workload::Smallbank wl(wo);
      SystemConfig cfg;
      cfg.kind = SystemConfig::Kind::kXenic;
      cfg.num_nodes = nodes;
      cfg.nic_cache_budget = budget_kb * 1024;
      auto sys = harness::BuildSystem(cfg, wl);
      harness::LoadWorkload(*sys, wl);
      harness::RunResult r = harness::RunWorkload(*sys, wl, rc);
      const double dma_per_txn =
          r.committed == 0 ? 0 : static_cast<double>(r.dma_ops) / static_cast<double>(r.committed);
      tp.AddRow({budget_kb == 0 ? "unlimited" : std::to_string(budget_kb) + " KiB",
                 TablePrinter::FmtOps(r.tput_per_server),
                 TablePrinter::Fmt(r.MedianLatencyUs(), 1),
                 TablePrinter::Fmt(dma_per_txn, 2)});
      std::fprintf(stderr, "  cache %llu KiB done\n",
                   static_cast<unsigned long long>(budget_kb));
    }
    std::printf("%s\n",
                tp.Render("Ablation A: Smallbank vs SmartNIC cache capacity").c_str());
  }

  // (b) displacement-limit sweep at high table occupancy (~86% per node).
  // Cache nearly disabled so every remote read pays the host-table DMA
  // lookup whose size Dm bounds.
  {
    TablePrinter tp({"Dm", "Tput/server", "Median (us)", "PCIe KB/txn"});
    for (uint16_t dm : {uint16_t{4}, uint16_t{8}, uint16_t{16}, uint16_t{32},
                        uint16_t{0xFFFF}}) {
      workload::Smallbank::Options wo;
      wo.num_nodes = nodes;
      wo.accounts_per_node = 150000;
      workload::Smallbank wl(wo);
      SystemConfig cfg;
      cfg.kind = SystemConfig::Kind::kXenic;
      cfg.num_nodes = nodes;
      cfg.nic_cache_budget = 64 * 1024;  // tiny: force DMA lookups
      cfg.max_displacement_override = dm;
      cfg.capacity_log2_override = 19;  // 450k rows/node in 524k slots
      auto sys = harness::BuildSystem(cfg, wl);
      harness::LoadWorkload(*sys, wl);
      harness::RunResult r = harness::RunWorkload(*sys, wl, rc);
      const double kb_per_txn =
          r.committed == 0
              ? 0
              : static_cast<double>(r.dma_bytes) / 1024.0 / static_cast<double>(r.committed);
      tp.AddRow({dm == 0xFFFF ? "unlimited" : std::to_string(dm),
                 TablePrinter::FmtOps(r.tput_per_server),
                 TablePrinter::Fmt(r.MedianLatencyUs(), 1),
                 TablePrinter::Fmt(kb_per_txn, 2)});
      std::fprintf(stderr, "  Dm %u done\n", dm);
    }
    std::printf("%s\n",
                tp.Render("Ablation B: Smallbank vs displacement limit Dm (cold cache)")
                    .c_str());
  }
  return 0;
}
