// Figure 4: LiquidIO DMA engine characteristics -- throughput (a) and
// latency (b) for single-request submission versus full 15-element
// vectors, across request sizes. Paper shape: vectored submission lifts
// throughput to the 8.7 Mops/s hardware maximum without adding completion
// latency (reads complete in up to ~1295 ns, writes ~570 ns; submission
// costs up to 190 ns, amortized 15x by vectors).

#include <functional>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/table_printer.h"
#include "src/nicmodel/smart_nic.h"

namespace {

using namespace xenic;
using namespace xenic::nicmodel;

struct DmaResult {
  double mops;
  double mean_latency_ns;
};

DmaResult Measure(uint32_t size, bool vectored, bool is_read, uint32_t contexts) {
  sim::Engine eng;
  net::PerfModel model;
  SmartNicFabric fabric(&eng, model, 1);
  SmartNic& nic = fabric.node(0);
  nic.features().async_dma_batching = vectored;

  uint64_t completed = 0;
  bool measuring = false;
  Histogram lat;
  std::function<void()> loop = [&] {
    const sim::Tick start = eng.now();
    auto done = [&, start] {
      if (measuring) {
        completed++;
        lat.Record(eng.now() - start);
      }
      loop();
    };
    if (is_read) {
      nic.DmaRead(size, done);
    } else {
      nic.DmaWrite(size, done);
    }
  };
  for (uint32_t c = 0; c < contexts; ++c) {
    loop();
  }
  eng.RunFor(50 * sim::kNsPerUs);
  measuring = true;
  const sim::Tick t0 = eng.now();
  eng.RunFor(300 * sim::kNsPerUs);
  return DmaResult{static_cast<double>(completed) / (static_cast<double>(eng.now() - t0) / 1e3),
                   lat.Mean()};
}

}  // namespace

int main(int argc, char** argv) {
  using xenic::TablePrinter;
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  bench::ParseBenchFlags(argc, argv, harness::kFlagJobs);

  TablePrinter tput({"Size", "R x1", "R x15", "W x1", "W x15"});
  for (uint32_t size : {64u, 256u, 1024u, 4096u, 8192u}) {
    tput.AddRow({std::to_string(size) + "B",
                 TablePrinter::Fmt(Measure(size, false, true, 64).mops, 2) + "M",
                 TablePrinter::Fmt(Measure(size, true, true, 64).mops, 2) + "M",
                 TablePrinter::Fmt(Measure(size, false, false, 64).mops, 2) + "M",
                 TablePrinter::Fmt(Measure(size, true, false, 64).mops, 2) + "M"});
  }
  std::printf("%s\n",
              tput.Render("Figure 4a: DMA engine throughput, single vs 15-vectors").c_str());

  TablePrinter lat({"Size", "Read x1 (ns)", "Read x15 (ns)", "Write x1 (ns)", "Write x15 (ns)"});
  for (uint32_t size : {64u, 256u, 1024u}) {
    // Latency at low concurrency (no queueing).
    lat.AddRow({std::to_string(size) + "B",
                TablePrinter::Fmt(Measure(size, false, true, 1).mean_latency_ns, 0),
                TablePrinter::Fmt(Measure(size, true, true, 1).mean_latency_ns, 0),
                TablePrinter::Fmt(Measure(size, false, false, 1).mean_latency_ns, 0),
                TablePrinter::Fmt(Measure(size, true, false, 1).mean_latency_ns, 0)});
  }
  std::printf("%s\n", lat.Render("Figure 4b: DMA completion latency (unloaded)").c_str());
  return 0;
}
