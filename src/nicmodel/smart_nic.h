// Timing model of one server's on-path SmartNIC (Marvell LiquidIO 3) plus
// its host, and the fabric connecting them (paper sections 3 and 4.3).
//
// The model exposes the primitives Xenic's runtime is built from:
//   * NicCompute / HostCompute — occupy a NIC ARM core / host Xeon thread.
//   * NicSend — NIC-to-NIC message, with opportunistic Ethernet aggregation:
//     messages to the same destination within a poll window share one frame
//     (amortizing frame overhead bytes, per-frame port time, and per-frame
//     software pipeline costs). Disabled via Features for the Figure 9
//     ablations.
//   * HostToNic / NicToHost — PCIe crossings for the coordinator path, with
//     the same batching treatment on the PCIe descriptor queues.
//   * DmaRead / DmaWrite — the NIC's DMA engine: 8 hardware queues,
//     vectored submission, measured submission/completion latencies.
//     With async batching disabled, the issuing NIC core blocks until the
//     DMA completes (the Figure 9a "+Async DMA" ablation).
//
// Payload movement is the protocol layer's job (closures carry real data);
// this class accounts time and bandwidth only.
//
// Allocation: every continuation in flight inside the model is parked in a
// slot (sim::SlotTable) and each event captures only {this, slot}: a DMA's
// three stages share one DmaJob slot, a PCIe crossing parks its delivery,
// and an Ethernet frame is parked on the fabric, which owns the frame table
// and one pool of message vectors for all NICs (a frame is built at the
// sender and freed at the receiver; per-NIC pools would grow with each
// node's send/receive imbalance). Once those tables and the pool have grown
// to their peak in-flight size, the primitives make no heap allocation
// beyond what the caller's callbacks themselves carry.

#ifndef SRC_NICMODEL_SMART_NIC_H_
#define SRC_NICMODEL_SMART_NIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/perf_model.h"
#include "src/nicmodel/dma_batcher.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/slot_table.h"
#include "src/store/types.h"

namespace xenic::nicmodel {

using store::NodeId;

struct NicFeatures {
  bool eth_aggregation = true;    // batch NIC-to-NIC messages into frames
  bool pcie_aggregation = true;   // batch host<->NIC PCIe message queues
  bool async_dma_batching = true; // vectored, non-blocking DMA submission
  // Occupancy-aware vector sizing on top of async batching (see
  // dma_batcher.h). Off by default: the static always-full-vector model is
  // the historical behavior and every existing seed depends on it.
  bool adaptive_dma_batching = false;
};

class SmartNicFabric;

class SmartNic {
 public:
  SmartNic(sim::Engine* engine, const net::PerfModel& model, SmartNicFabric* fabric, NodeId id);

  NodeId id() const { return id_; }
  NicFeatures& features() { return features_; }
  const net::PerfModel& model() const { return model_; }
  sim::Engine* engine() { return engine_; }

  // --- Compute ---
  void NicCompute(sim::Tick cost, sim::Engine::Callback done);
  void HostCompute(sim::Tick cost, sim::Engine::Callback done);

  // --- NIC-to-NIC messaging ---
  void NicSend(NodeId dst, uint32_t bytes, sim::Engine::Callback deliver_at_dst);

  // --- Host <-> NIC PCIe crossings ---
  void HostToNic(uint32_t bytes, sim::Engine::Callback deliver_at_nic);
  void NicToHost(uint32_t bytes, sim::Engine::Callback deliver_at_host);

  // --- DMA engine ---
  void DmaRead(uint64_t bytes, sim::Engine::Callback done);
  void DmaWrite(uint64_t bytes, sim::Engine::Callback done);

  // --- Introspection / Table 3 knobs ---
  sim::Resource& nic_cores() { return nic_cores_; }
  sim::Resource& host_cores() { return host_cores_; }
  sim::Resource& dma_queues() { return dma_queues_; }
  sim::Resource& dma_submit_port() { return dma_submit_port_; }
  const DmaVectorBatcher& dma_batcher() const { return dma_batcher_; }
  sim::Channel& pcie_up() { return pcie_up_; }
  sim::Channel& pcie_down() { return pcie_down_; }
  sim::Channel& rx_port(size_t i) { return *rx_ports_[i]; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  uint64_t dma_ops() const { return dma_ops_; }
  uint64_t dma_bytes() const { return dma_bytes_; }
  double WireUtilization(sim::Tick window) const;
  void ResetStats();

  // Wire-facing channels, exposed so fault injectors can arm per-frame
  // drop/delay/duplication hooks (sim::Channel::set_fault_hook).
  size_t num_tx_ports() const { return tx_ports_.size(); }
  sim::Channel& tx_port(size_t i) { return *tx_ports_[i]; }

 private:
  friend class SmartNicFabric;

  struct PendingMsg {
    uint32_t bytes;
    uint64_t ctx;  // sender's transaction trace context (0 = none)
    sim::Engine::Callback deliver;
  };
  struct DstQueue {
    std::vector<PendingMsg> msgs;
    uint32_t bytes = 0;
    bool flush_scheduled = false;
  };
  // One Ethernet frame between its flush at the sender and its handlers at
  // the receiver.
  struct Frame {
    NodeId dst;
    uint32_t tx_port;
    uint64_t bytes;  // wire bytes, frame overhead included
    std::vector<PendingMsg> msgs;
  };
  // One DMA request across its stages: NIC core, descriptor fetch, engine.
  struct DmaJob {
    sim::Tick submit_cost;  // NIC-core and descriptor-fetch time
    sim::Tick service;      // DMA engine occupancy
    sim::Tick completion;   // measured submission-to-completion latency
    sim::Tick start;        // when the request reached the engine queues
    bool blocking;          // unbatched model: the core stalls until done
    sim::Engine::Callback done;
  };

  void FlushEth(NodeId dst);
  void DeliverFrame(uint32_t frame);  // runs at destination
  void DmaOp(uint64_t bytes, bool is_read, sim::Engine::Callback done);

  sim::Engine* engine_;
  const net::PerfModel& model_;
  SmartNicFabric* fabric_;
  NodeId id_;
  NicFeatures features_;

  sim::Resource nic_cores_;
  sim::Resource host_cores_;
  sim::Resource dma_queues_;
  // Descriptor-fetch port of the DMA engine: one submission per request,
  // or one per 15-element vector when vectored submission is enabled.
  sim::Resource dma_submit_port_;
  // Occupancy-tracked vector size (adaptive_dma_batching only).
  DmaVectorBatcher dma_batcher_;
  std::vector<std::unique_ptr<sim::Channel>> tx_ports_;
  std::vector<std::unique_ptr<sim::Channel>> rx_ports_;
  sim::Channel pcie_up_;    // host -> NIC descriptor/message queue
  sim::Channel pcie_down_;  // NIC -> host
  size_t next_tx_port_ = 0;
  size_t next_rx_port_ = 0;

  std::vector<DstQueue> eth_queues_;  // per destination
  sim::SlotTable<DmaJob> dma_jobs_;
  sim::SlotTable<sim::Engine::Callback> pcie_deliveries_;  // HostToNic / NicToHost

  uint64_t frames_sent_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t wire_bytes_sent_ = 0;
  uint64_t dma_ops_ = 0;
  uint64_t dma_bytes_ = 0;
};

// Registry connecting the cluster's SmartNICs.
class SmartNicFabric {
 public:
  SmartNicFabric(sim::Engine* engine, const net::PerfModel& model, uint32_t num_nodes);

  SmartNic& node(NodeId id) { return *nics_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(nics_.size()); }
  sim::Engine* engine() { return engine_; }
  const net::PerfModel& model() const { return model_; }

 private:
  friend class SmartNic;

  // A cleared message vector from the pool (capacity kept), or a new one.
  std::vector<SmartNic::PendingMsg> NewMsgVector();
  void FreeMsgVector(std::vector<SmartNic::PendingMsg> msgs);

  sim::Engine* engine_;
  net::PerfModel model_;
  std::vector<std::unique_ptr<SmartNic>> nics_;
  sim::SlotTable<SmartNic::Frame> frames_;  // frames on the wire
  std::vector<std::vector<SmartNic::PendingMsg>> free_msg_vectors_;
};

}  // namespace xenic::nicmodel

#endif  // SRC_NICMODEL_SMART_NIC_H_
