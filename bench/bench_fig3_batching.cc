// Figure 3: remote memory write throughput, 16-256 B buffers, from 5
// source servers to one target, with and without software batching:
//  (a) writes to the target's NIC DRAM (no PCIe),
//  (b) writes to the target's host DRAM (DMA engine involved),
// plus CX5 RDMA WRITE throughput (doorbell-batched) for comparison.
// Paper shape: unbatched ~9-10.4 Mops/s regardless of size; batching gives
// up to 22.2x for NIC memory (wire-limited) and 7.0x for host memory
// (DMA-engine limited below 64 B); CX5 tops out at 13.5-15 Mops/s.

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/nicmodel/smart_nic.h"

namespace {

using namespace xenic;
using namespace xenic::nicmodel;

constexpr uint32_t kSources = 5;
constexpr sim::Tick kWindow = 400 * sim::kNsPerUs;
constexpr uint32_t kContextsPerSource = 256;

// Closed-loop remote writes from 5 sources to node 5; returns Mops/s.
double MeasureLio(uint32_t size, bool batched, bool to_host_mem) {
  sim::Engine eng;
  net::PerfModel model;
  SmartNicFabric fabric(&eng, model, kSources + 1);
  for (uint32_t n = 0; n <= kSources; ++n) {
    fabric.node(n).features().eth_aggregation = batched;
    fabric.node(n).features().pcie_aggregation = batched;
    // DMA vectoring stays on: the Figure 3 batching knob covers the PCIe
    // message queues and Ethernet output (the DMA-engine knob is the
    // subject of Figure 4).
    fabric.node(n).features().async_dma_batching = true;
  }
  SmartNic& target = fabric.node(kSources);
  uint64_t completed = 0;
  bool measuring = false;

  // With batching on, messages destined for host memory coalesce into
  // shared DMA writes (the NIC gathers adjacent buffers into one PCIe
  // transfer -- "batching work across PCIe DMAs").
  constexpr uint32_t kDmaCoalesce = 8;
  auto pending = std::make_shared<std::vector<sim::Engine::Callback>>();
  auto pending_bytes = std::make_shared<uint64_t>(0);

  std::function<void(uint32_t)> loop = [&](uint32_t src) {
    SmartNic& s = fabric.node(src);
    // Host-initiated: host -> local NIC -> wire -> target NIC [-> DMA] ->
    // ack back to the source NIC.
    s.HostToNic(size, [&, src] {
      fabric.node(src).NicSend(target.id(), size, [&, src] {
        auto respond = [&, src] {
          target.NicCompute(target.model().nic_msg_cost, [&, src] {
            target.NicSend(src, 8, [&, src] {
              if (measuring) {
                completed++;
              }
              loop(src);
            });
          });
        };
        if (!to_host_mem) {
          respond();
        } else if (!batched) {
          target.DmaWrite(size, respond);
        } else {
          pending->push_back(respond);
          *pending_bytes += size;
          if (pending->size() >= kDmaCoalesce) {
            auto group = std::make_shared<std::vector<sim::Engine::Callback>>(
                std::move(*pending));
            const uint64_t bytes = *pending_bytes;
            pending->clear();
            *pending_bytes = 0;
            target.DmaWrite(bytes, [group] {
              for (auto& cb : *group) {
                cb();
              }
            });
          }
        }
      });
    });
  };

  for (uint32_t src = 0; src < kSources; ++src) {
    for (uint32_t c = 0; c < kContextsPerSource; ++c) {
      loop(src);
    }
  }
  eng.RunFor(100 * sim::kNsPerUs);  // warmup
  measuring = true;
  const sim::Tick t0 = eng.now();
  eng.RunFor(kWindow);
  return static_cast<double>(completed) / (static_cast<double>(eng.now() - t0) / 1e3);
}

double MeasureRdma(uint32_t size) {
  sim::Engine eng;
  net::PerfModel model;
  std::vector<std::unique_ptr<sim::Resource>> cores;
  std::vector<sim::Resource*> ptrs;
  for (uint32_t i = 0; i <= kSources; ++i) {
    cores.push_back(std::make_unique<sim::Resource>(&eng, "host", model.host_threads));
    ptrs.push_back(cores.back().get());
  }
  RdmaFabric fabric(&eng, model, ptrs);
  uint64_t completed = 0;
  bool measuring = false;
  std::function<void(uint32_t)> loop = [&](uint32_t src) {
    fabric.node(src).Write(kSources, size, [&, src] {
      if (measuring) {
        completed++;
      }
      loop(src);
    });
  };
  for (uint32_t src = 0; src < kSources; ++src) {
    for (uint32_t c = 0; c < kContextsPerSource; ++c) {
      loop(src);
    }
  }
  eng.RunFor(100 * sim::kNsPerUs);
  measuring = true;
  const sim::Tick t0 = eng.now();
  eng.RunFor(kWindow);
  return static_cast<double>(completed) / (static_cast<double>(eng.now() - t0) / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  using xenic::TablePrinter;
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  bench::ParseBenchFlags(argc, argv, harness::kFlagJobs);
  TablePrinter tp({"Buffer", "NIC-mem single", "NIC-mem batched", "Host-mem single",
                   "Host-mem batched", "CX5 RDMA"});
  for (uint32_t size : {16u, 32u, 64u, 128u, 256u}) {
    tp.AddRow({std::to_string(size) + "B",
               TablePrinter::Fmt(MeasureLio(size, false, false), 1) + "M",
               TablePrinter::Fmt(MeasureLio(size, true, false), 1) + "M",
               TablePrinter::Fmt(MeasureLio(size, false, true), 1) + "M",
               TablePrinter::Fmt(MeasureLio(size, true, true), 1) + "M",
               TablePrinter::Fmt(MeasureRdma(size), 1) + "M"});
  }
  std::printf("%s\n",
              tp.Render("Figure 3: remote write throughput (Mops/s), 5 sources").c_str());
  return 0;
}
