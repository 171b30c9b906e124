// Calibration constants for the simulated hardware (paper section 3).
//
// Every number here is either taken directly from the paper's measurements
// or fitted so the section 3 microbenchmarks (Figures 2-4, the RPC
// throughput experiment in 3.3, Table 1) reproduce. DESIGN.md section 5
// documents the derivations. All times in nanoseconds, rates in bytes/ns.

#ifndef SRC_NET_PERF_MODEL_H_
#define SRC_NET_PERF_MODEL_H_

#include <cstdint>

#include "src/sim/engine.h"

namespace xenic::net {

struct PerfModel {
  // --- Network fabric ---
  double link_bytes_per_ns = 6.25;   // 50 Gbps per LiquidIO port
  uint32_t nic_ports = 2;            // 2x50GbE per LiquidIO
  sim::Tick wire_latency = 850;      // one-way propagation + ToR switch
  uint32_t frame_overhead = 62;      // eth+ip+udp headers + preamble + IFG
  uint32_t mtu = 1500;               // aggregation limit per frame
  sim::Tick port_frame_cost = 100;   // fixed per-frame port/driver time

  // --- LiquidIO SmartNIC ---
  uint32_t nic_cores = 24;           // 2.2 GHz ARM threads
  sim::Tick nic_frame_rx_cost = 120;   // software pipeline, per inbound frame
  sim::Tick nic_frame_tx_cost = 100;   // per outbound frame (gather + enqueue)
  sim::Tick nic_msg_cost = 20;         // per-message demux/gather within a frame
  sim::Tick nic_rpc_handle_cost = 150; // minimal echo handler (fits 71.8 Mops/s @16 thr)
  // Opportunistic-batching poll interval: the NIC flushes gather lists at
  // every burst-loop iteration, so an idle NIC adds only ~one loop of
  // delay; under load the MTU-full condition drives the batching.
  sim::Tick batch_window = 200;

  // --- LiquidIO DMA engine (section 3.5) ---
  uint32_t dma_queues = 8;
  uint32_t dma_vector_max = 15;
  sim::Tick dma_submit_cost = 190;       // NIC-core time per submission
  sim::Tick dma_read_completion = 1295;  // submit-to-completion, small reads
  sim::Tick dma_write_completion = 570;
  sim::Tick dma_engine_service = 920;    // per-op queue occupancy (8 queues -> 8.7 Mops/s)
  double pcie_bytes_per_ns = 7.0;        // PCIe 3.0 x8 effective payload rate

  // --- Host (Xeon Gold 5218) ---
  uint32_t host_threads = 32;
  sim::Tick host_rpc_handle_cost = 650;  // DPDK rx+handle+tx per op (23 Mops/s @16 thr)
  sim::Tick host_poll_gap = 300;         // mean host polling delay, NIC-to-host delivery
  sim::Tick host_to_nic_crossing = 900;  // DPDK tx + NIC PCIe descriptor pull
  sim::Tick nic_to_host_crossing = 870;  // DMA write (570) + host poll (300)
  sim::Tick pcie_msg_unbatched_cost = 500;  // per-message PCIe queue handling, no batching

  // --- Mellanox CX5 RDMA NIC (sections 2.1 / 3.2 / 3.4) ---
  double rdma_link_bytes_per_ns = 12.5;  // 100 Gbps
  sim::Tick rdma_init_cost = 100;        // host verb post (doorbell-batched)
  sim::Tick rdma_nic_hw_cost = 300;      // NIC hardware pipeline per op, latency
  sim::Tick rdma_nic_service = 66;       // pipeline occupancy per small op (~15 Mops/s)
  sim::Tick rdma_target_dma = 700;       // target-side PCIe access (x16, hw engine)
  sim::Tick rdma_completion_poll = 250;  // initiator CQ poll
  // Two-sided: adds target host rx-ring delivery + handler + send post.
  sim::Tick rdma_two_sided_target_extra = 1800;

  // --- Core performance ratios (Table 1) ---
  double arm_multithread_ratio = 0.31;   // ARM per-thread / Xeon per-thread, all cores
  double arm_singlethread_ratio = 0.49;  // single-threaded

  // Derived helpers.
  double total_bandwidth_bytes_per_ns() const { return link_bytes_per_ns * nic_ports; }
};

// Time that `host_cost` ns of host-calibrated work takes on a core whose
// per-thread speed is `speed_ratio` times a host thread's, truncated to
// whole ns. With arm_multithread_ratio this is the NIC ARM cost of shipped
// execution logic and of the NIC log drain's steps.
inline sim::Tick ScaledCost(sim::Tick host_cost, double speed_ratio) {
  return static_cast<sim::Tick>(static_cast<double>(host_cost) / speed_ratio);
}

// Off-path SmartNIC configuration (paper sections 3.1 and 4.3.4): the SoC
// sits behind an internal switch with no low-level host-memory interface,
// so SoC<->host traffic pays network-stack costs. Calibrated from the
// paper's BlueField/Stingray measurements: RDMA writes to host 3.5 us from
// remote, but 4.5 us to SoC memory and 5.1 us from the SoC to host memory.
// Xenic's latency advantage evaporates on such hardware -- the bench
// bench_ext_offpath demonstrates it.
inline PerfModel OffPathPerfModel() {
  PerfModel m;
  // SoC-to-host accesses go through the internal network path instead of a
  // DMA engine: ~2.5 us each way on top of processing.
  m.host_to_nic_crossing = 2600;
  m.nic_to_host_crossing = 2600;
  m.dma_read_completion = 2600;   // "DMA" is an internal RDMA read
  m.dma_write_completion = 2100;
  m.dma_engine_service = 920;     // message rate comparable
  m.pcie_msg_unbatched_cost = 800;
  // The internal switch adds a hop to every inbound/outbound frame.
  m.wire_latency = 1100;
  return m;
}

}  // namespace xenic::net

#endif  // SRC_NET_PERF_MODEL_H_
