// Figure 2: roundtrip latency of remote operations (256 B payloads).
//  (a) LiquidIO SmartNIC: NIC RPC / DMA Read / DMA Write / Host RPC,
//      initiated from the source host and from the source NIC.
//  (b) CX5 RDMA: READ / WRITE verbs and two-sided RPC.
// Paper shape: RDMA one-sided ~3.4us lowest; LiquidIO NIC-initiated ops
// beat two-sided RDMA RPCs; host RPCs are the slowest on both platforms;
// PCIe (DMA) adds ~0.6-1.3us over a NIC-memory op.

#include <functional>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/table_printer.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/nicmodel/smart_nic.h"

namespace {

using namespace xenic;
using namespace xenic::nicmodel;

constexpr uint32_t kPayload = 256;
constexpr int kIters = 200;

// Measure the mean RTT of `op` (which must call done() at completion).
double MeasureRtt(sim::Engine& eng,
                  const std::function<void(sim::Engine::Callback)>& op) {
  Histogram h;
  std::function<void(int)> next = [&](int left) {
    if (left == 0) {
      return;
    }
    const sim::Tick start = eng.now();
    op([&h, &eng, &next, start, left] {
      h.Record(eng.now() - start);
      // Space the ops out so there is no queueing (latency at low load).
      eng.ScheduleAfter(3000, [&next, left] { next(left - 1); });
    });
  };
  next(kIters);
  eng.Run();
  return h.Mean() / 1000.0;  // us
}

}  // namespace

int main(int argc, char** argv) {
  using xenic::TablePrinter;
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  bench::ParseBenchFlags(argc, argv, harness::kFlagJobs);
  net::PerfModel model;

  TablePrinter tp({"Operation", "From Host (us)", "From NIC (us)"});

  // --- (a) LiquidIO ---
  for (const char* op_name : {"NIC RPC", "Read", "Write", "Host RPC"}) {
    double from[2];
    for (int from_nic = 0; from_nic < 2; ++from_nic) {
      sim::Engine eng;
      SmartNicFabric fabric(&eng, model, 2);
      SmartNic& src = fabric.node(0);
      SmartNic& dst = fabric.node(1);
      const std::string name = op_name;

      auto op = [&](sim::Engine::Callback done) {
        auto at_target = [&dst, &src, name, done = std::move(done)]() mutable {
          SmartNic* d = &dst;
          SmartNic* s = &src;
          auto respond = [d, s, done = std::move(done)]() mutable {
            d->NicCompute(d->model().nic_rpc_handle_cost, [d, s, done = std::move(done)]() mutable {
              d->NicSend(s->id(), kPayload, std::move(done));
            });
          };
          if (name == "Read") {
            d->NicCompute(d->model().nic_rpc_handle_cost,
                          [d, respond = std::move(respond)]() mutable {
                            d->DmaRead(kPayload, std::move(respond));
                          });
          } else if (name == "Write") {
            d->NicCompute(d->model().nic_rpc_handle_cost,
                          [d, respond = std::move(respond)]() mutable {
                            d->DmaWrite(kPayload, std::move(respond));
                          });
          } else if (name == "Host RPC") {
            d->NicCompute(d->model().nic_rpc_handle_cost,
                          [d, respond = std::move(respond)]() mutable {
                            d->NicToHost(kPayload, [d, respond = std::move(respond)]() mutable {
                              d->HostCompute(d->model().host_rpc_handle_cost,
                                             [d, respond = std::move(respond)]() mutable {
                                               d->HostToNic(kPayload, std::move(respond));
                                             });
                            });
                          });
          } else {
            respond();
          }
        };
        if (from_nic) {
          src.NicSend(dst.id(), kPayload, std::move(at_target));
        } else {
          // Host initiation: PCIe crossing to the local NIC first, and the
          // response crosses back up to the host.
          src.HostToNic(kPayload, [&src, &dst, at_target = std::move(at_target)]() mutable {
            src.NicCompute(src.model().nic_msg_cost, [&src, &dst,
                                                      at_target = std::move(at_target)]() mutable {
              src.NicSend(dst.id(), kPayload, std::move(at_target));
            });
          });
        }
      };

      // From-host measurements include the final NIC-to-host delivery.
      auto full_op = [&](sim::Engine::Callback done) {
        if (from_nic) {
          op(std::move(done));
        } else {
          op([&src, done = std::move(done)]() mutable {
            src.NicToHost(kPayload, std::move(done));
          });
        }
      };
      from[from_nic] = MeasureRtt(eng, full_op);
    }
    tp.AddRow({op_name, TablePrinter::Fmt(from[0], 2), TablePrinter::Fmt(from[1], 2)});
  }
  std::printf("%s\n", tp.Render("Figure 2a: LiquidIO remote operation RTT (256B)").c_str());

  // --- (b) CX5 RDMA ---
  TablePrinter tp2({"Operation", "RTT (us)"});
  for (const char* op_name : {"READ", "WRITE", "Host RPC"}) {
    sim::Engine eng;
    std::vector<std::unique_ptr<sim::Resource>> cores;
    std::vector<sim::Resource*> core_ptrs;
    for (int i = 0; i < 2; ++i) {
      cores.push_back(std::make_unique<sim::Resource>(&eng, "host", model.host_threads));
      core_ptrs.push_back(cores.back().get());
    }
    RdmaFabric fabric(&eng, model, core_ptrs);
    const std::string name = op_name;
    auto op = [&](sim::Engine::Callback done) {
      if (name == "READ") {
        fabric.node(0).Read(1, kPayload, std::move(done));
      } else if (name == "WRITE") {
        fabric.node(0).Write(1, kPayload, std::move(done));
      } else {
        fabric.node(0).Rpc(1, kPayload, kPayload, 0, [] {}, std::move(done));
      }
    };
    tp2.AddRow({op_name, TablePrinter::Fmt(MeasureRtt(eng, op), 2)});
  }
  std::printf("%s\n", tp2.Render("Figure 2b: CX5 RDMA RTT (256B)").c_str());
  return 0;
}
