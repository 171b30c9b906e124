#include "src/nicmodel/smart_nic.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace xenic::nicmodel {

SmartNic::SmartNic(sim::Engine* engine, const net::PerfModel& model, SmartNicFabric* fabric,
                   NodeId id)
    : engine_(engine),
      model_(model),
      fabric_(fabric),
      id_(id),
      nic_cores_(engine, "n" + std::to_string(id) + ".nic_cores", model.nic_cores),
      host_cores_(engine, "n" + std::to_string(id) + ".host_cores", model.host_threads),
      dma_queues_(engine, "n" + std::to_string(id) + ".dma_queues", model.dma_queues),
      dma_submit_port_(engine, "n" + std::to_string(id) + ".dma_submit", 1),
      dma_batcher_(model.dma_vector_max),
      pcie_up_(engine, "n" + std::to_string(id) + ".pcie_up", model.pcie_bytes_per_ns, 0),
      pcie_down_(engine, "n" + std::to_string(id) + ".pcie_down", model.pcie_bytes_per_ns, 0) {
  // Node-qualified names ("n3.tx0") keep trace tracks distinguishable when
  // every node's resources feed one TraceRecorder.
  const std::string prefix = "n" + std::to_string(id) + ".";
  for (uint32_t p = 0; p < model.nic_ports; ++p) {
    tx_ports_.push_back(std::make_unique<sim::Channel>(engine, prefix + "tx" + std::to_string(p),
                                                       model.link_bytes_per_ns,
                                                       model.wire_latency));
    rx_ports_.push_back(std::make_unique<sim::Channel>(engine, prefix + "rx" + std::to_string(p),
                                                       model.link_bytes_per_ns, 0));
  }
}

void SmartNic::NicCompute(sim::Tick cost, sim::Engine::Callback done) {
  nic_cores_.Submit(cost, std::move(done));
}

void SmartNic::HostCompute(sim::Tick cost, sim::Engine::Callback done) {
  host_cores_.Submit(cost, std::move(done));
}

void SmartNic::NicSend(NodeId dst, uint32_t bytes, sim::Engine::Callback deliver_at_dst) {
  if (eth_queues_.size() < fabric_->size()) {
    eth_queues_.resize(fabric_->size());
  }
  messages_sent_++;
  DstQueue& q = eth_queues_[dst];
  q.msgs.push_back(PendingMsg{bytes, engine_->trace_ctx(), std::move(deliver_at_dst)});
  q.bytes += bytes;
  if (!features_.eth_aggregation) {
    FlushEth(dst);
    return;
  }
  if (q.bytes + model_.frame_overhead >= model_.mtu) {
    FlushEth(dst);
    return;
  }
  if (!q.flush_scheduled) {
    q.flush_scheduled = true;
    engine_->ScheduleAfter(model_.batch_window, sim::InlineCallback([this, dst] {
      if (eth_queues_[dst].flush_scheduled) {
        FlushEth(dst);
      }
    }));
  }
}

void SmartNic::FlushEth(NodeId dst) {
  DstQueue& q = eth_queues_[dst];
  q.flush_scheduled = false;
  if (q.msgs.empty()) {
    return;
  }
  uint64_t frame_bytes = model_.frame_overhead;
  for (const auto& m : q.msgs) {
    frame_bytes += m.bytes;
  }
  frames_sent_++;
  wire_bytes_sent_ += frame_bytes;

  // TX software pipeline: gather list assembly on a NIC core, then the
  // port serializes the frame onto the wire.
  const sim::Tick tx_cost =
      model_.nic_frame_tx_cost + model_.nic_msg_cost * static_cast<sim::Tick>(q.msgs.size());
  const auto port = static_cast<uint32_t>(next_tx_port_);
  next_tx_port_ = (next_tx_port_ + 1) % tx_ports_.size();
  q.bytes = 0;
  const uint32_t frame = fabric_->frames_.Put(
      Frame{dst, port, frame_bytes, std::exchange(q.msgs, fabric_->NewMsgVector())});
  nic_cores_.Submit(tx_cost, sim::InlineCallback([this, frame] {
    const Frame& f = fabric_->frames_[frame];
    sim::Channel* tx_port = tx_ports_[f.tx_port].get();
    tx_port->Send(f.bytes, model_.port_frame_cost, sim::InlineCallback([this, frame] {
      fabric_->node(fabric_->frames_[frame].dst).DeliverFrame(frame);
    }));
  }));
}

void SmartNic::DeliverFrame(uint32_t frame) {
  // RX port serialization at the destination, then software pipeline on a
  // NIC core, then the per-message handlers run.
  auto* port = rx_ports_[next_rx_port_].get();
  next_rx_port_ = (next_rx_port_ + 1) % rx_ports_.size();
  const uint64_t frame_bytes = fabric_->frames_[frame].bytes;
  port->Send(frame_bytes, model_.port_frame_cost, sim::InlineCallback([this, frame] {
    const size_t count = fabric_->frames_[frame].msgs.size();
    const sim::Tick rx_cost =
        model_.nic_frame_rx_cost + model_.nic_msg_cost * static_cast<sim::Tick>(count);
    nic_cores_.Submit(rx_cost, sim::InlineCallback([this, frame] {
      // Out of the table first: a handler may send, which parks new frames.
      std::vector<PendingMsg> msgs = fabric_->frames_.Take(frame).msgs;
      for (auto& m : msgs) {
        // Each handler (and everything it schedules) runs under its own
        // message's transaction context, not the frame's: aggregation must
        // not smear one transaction's work onto its frame-mates.
        engine_->set_trace_ctx(m.ctx);
        m.deliver();
      }
      engine_->set_trace_ctx(0);
      fabric_->FreeMsgVector(std::move(msgs));
    }));
  }));
}

void SmartNic::HostToNic(uint32_t bytes, sim::Engine::Callback deliver_at_nic) {
  const sim::Tick extra = features_.pcie_aggregation ? 0 : model_.pcie_msg_unbatched_cost;
  const uint32_t slot = pcie_deliveries_.Put(std::move(deliver_at_nic));
  pcie_up_.Send(bytes, extra, sim::InlineCallback([this, slot] {
    engine_->ScheduleAfter(model_.host_to_nic_crossing, pcie_deliveries_.Take(slot));
  }));
}

void SmartNic::NicToHost(uint32_t bytes, sim::Engine::Callback deliver_at_host) {
  const sim::Tick extra = features_.pcie_aggregation ? 0 : model_.pcie_msg_unbatched_cost;
  const uint32_t slot = pcie_deliveries_.Put(std::move(deliver_at_host));
  pcie_down_.Send(bytes, extra, sim::InlineCallback([this, slot] {
    engine_->ScheduleAfter(model_.nic_to_host_crossing, pcie_deliveries_.Take(slot));
  }));
}

void SmartNic::DmaOp(uint64_t bytes, bool is_read, sim::Engine::Callback done) {
  dma_ops_++;
  dma_bytes_ += bytes;
  const sim::Tick completion =
      is_read ? model_.dma_read_completion : model_.dma_write_completion;
  const auto transfer =
      static_cast<sim::Tick>(static_cast<double>(bytes) / model_.pcie_bytes_per_ns);
  const sim::Tick service = std::max<sim::Tick>(model_.dma_engine_service, transfer);

  // Unbatched, blocking model: the issuing NIC core pays the full
  // submission cost, the engine fetches one descriptor per request, and
  // the core stalls until the DMA completes.
  //
  // Async vectored model: submission cost and the engine's descriptor
  // fetch are amortized across a vector; the core is free while the DMA
  // engine works. The static model assumes an always-full vector; the
  // adaptive model (NicFeatures::adaptive_dma_batching) sizes the vector
  // from the queue occupancy observed at submission, so idle-engine
  // submissions pay closer to the real descriptor-fetch cost while loaded
  // ones amortize exactly like the static model.
  const bool blocking = !features_.async_dma_batching;
  sim::Tick submit_cost = model_.dma_submit_cost;
  if (!blocking) {
    const uint32_t vec = features_.adaptive_dma_batching
                             ? dma_batcher_.OnSubmit(dma_queues_.queue_depth())
                             : model_.dma_vector_max;
    submit_cost = model_.dma_submit_cost / vec + 1;
  }
  const uint32_t job =
      dma_jobs_.Put(DmaJob{submit_cost, service, completion, 0, blocking, std::move(done)});
  nic_cores_.Submit(submit_cost, sim::InlineCallback([this, job] {
    dma_submit_port_.Submit(dma_jobs_[job].submit_cost, sim::InlineCallback([this, job] {
      DmaJob& j = dma_jobs_[job];
      j.start = engine_->now();
      dma_queues_.Submit(j.service, sim::InlineCallback([this, job] {
        DmaJob j = dma_jobs_.Take(job);
        const sim::Tick elapsed = engine_->now() - j.start;
        const sim::Tick wait = j.completion > elapsed ? j.completion - elapsed : 0;
        if (j.blocking) {
          // Core blocks for the whole duration (submission already charged).
          nic_cores_.Submit(wait, std::move(j.done));
        } else {
          engine_->ScheduleAfter(wait, std::move(j.done));
        }
      }));
    }));
  }));
}

void SmartNic::DmaRead(uint64_t bytes, sim::Engine::Callback done) {
  DmaOp(bytes, /*is_read=*/true, std::move(done));
}

void SmartNic::DmaWrite(uint64_t bytes, sim::Engine::Callback done) {
  DmaOp(bytes, /*is_read=*/false, std::move(done));
}

double SmartNic::WireUtilization(sim::Tick window) const {
  double total = 0;
  for (const auto& p : tx_ports_) {
    total += p->Utilization(window);
  }
  return total / static_cast<double>(tx_ports_.size());
}

void SmartNic::ResetStats() {
  frames_sent_ = 0;
  messages_sent_ = 0;
  wire_bytes_sent_ = 0;
  dma_ops_ = 0;
  dma_bytes_ = 0;
  nic_cores_.ResetStats();
  host_cores_.ResetStats();
  dma_queues_.ResetStats();
  dma_submit_port_.ResetStats();
  pcie_up_.ResetStats();
  pcie_down_.ResetStats();
  for (auto& p : tx_ports_) {
    p->ResetStats();
  }
  for (auto& p : rx_ports_) {
    p->ResetStats();
  }
}

SmartNicFabric::SmartNicFabric(sim::Engine* engine, const net::PerfModel& model,
                               uint32_t num_nodes)
    : engine_(engine), model_(model) {
  for (uint32_t i = 0; i < num_nodes; ++i) {
    nics_.push_back(std::make_unique<SmartNic>(engine, model_, this, i));
  }
}

std::vector<SmartNic::PendingMsg> SmartNicFabric::NewMsgVector() {
  if (free_msg_vectors_.empty()) {
    return {};
  }
  std::vector<SmartNic::PendingMsg> msgs = std::move(free_msg_vectors_.back());
  free_msg_vectors_.pop_back();
  return msgs;
}

void SmartNicFabric::FreeMsgVector(std::vector<SmartNic::PendingMsg> msgs) {
  msgs.clear();
  free_msg_vectors_.push_back(std::move(msgs));
}

}  // namespace xenic::nicmodel
