#include "src/nicmodel/rdma_nic.h"

#include <memory>
#include <utility>

namespace xenic::nicmodel {

RdmaNic::RdmaNic(sim::Engine* engine, const net::PerfModel& model, RdmaFabric* fabric, NodeId id,
                 sim::Resource* host_cores)
    : engine_(engine),
      model_(model),
      fabric_(fabric),
      id_(id),
      host_cores_(host_cores),
      pipeline_(engine, "n" + std::to_string(id) + ".rdma_pipeline", 1),
      tx_(engine, "n" + std::to_string(id) + ".rdma_tx", model.rdma_link_bytes_per_ns,
          model.wire_latency) {}

void RdmaNic::Read(NodeId dst, uint32_t bytes, sim::Engine::Callback done) {
  Read(dst, bytes, {}, std::move(done));
}

void RdmaNic::Read(NodeId dst, uint32_t bytes, sim::Engine::Callback at_target,
                   sim::Engine::Callback done) {
  Post(Verb{id_, dst, 0, bytes, 0, /*rpc=*/false, std::move(at_target), std::move(done)});
}

void RdmaNic::Write(NodeId dst, uint32_t bytes, sim::Engine::Callback done) {
  Write(dst, bytes, {}, std::move(done));
}

void RdmaNic::Write(NodeId dst, uint32_t bytes, sim::Engine::Callback at_target,
                    sim::Engine::Callback done) {
  Post(Verb{id_, dst, bytes, 0, 0, /*rpc=*/false, std::move(at_target), std::move(done)});
}

void RdmaNic::Atomic(NodeId dst, sim::SmallFunction<uint64_t()> op,
                     sim::SmallFunction<void(uint64_t)> done) {
  // Timed as an 8-byte READ.
  Post(Verb{id_, dst, 0, 8, 0, /*rpc=*/false, {}, {}, std::move(op), std::move(done)});
}

void RdmaNic::Rpc(NodeId dst, uint32_t req_bytes, uint32_t resp_bytes, sim::Tick handler_cost,
                  sim::Engine::Callback handler, sim::Engine::Callback done) {
  Post(Verb{id_, dst, req_bytes, resp_bytes, handler_cost, /*rpc=*/true, std::move(handler),
            std::move(done)});
}

void RdmaNic::Post(Verb verb) {
  ops_++;
  const uint32_t v = fabric_->verbs_.Put(std::move(verb));
  host_cores_->Submit(model_.rdma_init_cost, sim::InlineCallback([this, v] {
    // Initiator-side posting is cheap with doorbell batching; the measured
    // ~15 Mops/s small-op ceiling is dominated by target-side processing.
    pipeline_.Submit(model_.rdma_nic_service / 2, sim::InlineCallback([this, v] {
      const uint64_t wire_bytes = kVerbHeader + fabric_->verbs_[v].req_payload;
      wire_bytes_sent_ += wire_bytes;
      engine_->ScheduleAfter(model_.rdma_nic_hw_cost, sim::InlineCallback([this, v, wire_bytes] {
        tx_.Send(wire_bytes, sim::InlineCallback([this, v] {
          const Verb& verb = fabric_->verbs_[v];
          RdmaNic& target = fabric_->node(verb.dst);
          if (verb.rpc) {
            target.HandleRpc(v);
          } else {
            target.HandleOneSided(v);
          }
        }));
      }));
    }));
  }));
}

void RdmaNic::HandleOneSided(uint32_t v) {
  // Target NIC hardware: pipeline occupancy, fixed processing latency, PCIe
  // DMA to host memory, then the response.
  pipeline_.Submit(model_.rdma_nic_service, sim::InlineCallback([this, v] {
    const sim::Tick latency = model_.rdma_nic_hw_cost + model_.rdma_target_dma;
    engine_->ScheduleAfter(latency, sim::InlineCallback([this, v] {
      // The actual memory effect (reads/CAS on real state). Moved out of
      // the table first: it may post verbs of its own.
      sim::Engine::Callback at_target = std::move(fabric_->verbs_[v].at_target);
      if (at_target) {
        at_target();
      }
      if (fabric_->verbs_[v].op) {
        sim::SmallFunction<uint64_t()> op = std::move(fabric_->verbs_[v].op);
        const uint64_t result = op();
        fabric_->verbs_[v].result = result;
      }
      SendResponse(v);
    }));
  }));
}

void RdmaNic::SendResponse(uint32_t v) {
  const uint32_t bytes = kVerbHeader + fabric_->verbs_[v].resp_payload;
  wire_bytes_sent_ += bytes;
  tx_.Send(bytes, sim::InlineCallback([this, v] {
    fabric_->node(fabric_->verbs_[v].src).Complete(v);
  }));
}

void RdmaNic::Complete(uint32_t v) {
  pipeline_.Submit(model_.rdma_nic_service / 2, sim::InlineCallback([this, v] {
    // Completion delivery: DMA of CQE (plus payload for two-sided) and
    // the initiator's poll.
    const sim::Tick extra = fabric_->verbs_[v].rpc ? model_.rdma_target_dma : 0;
    engine_->ScheduleAfter(model_.rdma_completion_poll + extra, sim::InlineCallback([this, v] {
      if (fabric_->verbs_[v].op_done) {
        // ATOMIC: the slot keeps the result until the host polls it.
        host_cores_->Submit(model_.rdma_init_cost / 2, sim::InlineCallback([this, v] {
          Verb verb = fabric_->verbs_.Take(v);
          verb.op_done(verb.result);
        }));
        return;
      }
      Verb verb = fabric_->verbs_.Take(v);
      host_cores_->Submit(model_.rdma_init_cost / 2, std::move(verb.done));
    }));
  }));
}

void RdmaNic::HandleRpc(uint32_t v) {
  // Target NIC -> host rx ring (DMA + poll), then the handler on a host
  // thread, then the response send posts back through the NIC.
  pipeline_.Submit(model_.rdma_nic_service, sim::InlineCallback([this, v] {
    const sim::Tick to_host = model_.rdma_nic_hw_cost + model_.rdma_target_dma +
                              model_.rdma_two_sided_target_extra / 2;
    engine_->ScheduleAfter(to_host, sim::InlineCallback([this, v] {
      host_cores_->Submit(
          model_.host_rpc_handle_cost + fabric_->verbs_[v].handler_cost,
          sim::InlineCallback([this, v] {
            // Moved out of the table first: the handler may post verbs.
            sim::Engine::Callback handler = std::move(fabric_->verbs_[v].at_target);
            if (handler) {
              handler();
            }
            // Response: send post + NIC pipeline + wire; delivered to the
            // initiator host (two-sided completions land in host memory).
            pipeline_.Submit(model_.rdma_nic_service, sim::InlineCallback([this, v] {
              engine_->ScheduleAfter(
                  model_.rdma_nic_hw_cost + model_.rdma_two_sided_target_extra / 2,
                  sim::InlineCallback([this, v] { SendResponse(v); }));
            }));
          }));
    }));
  }));
}

void RdmaNic::ResetStats() {
  ops_ = 0;
  wire_bytes_sent_ = 0;
  pipeline_.ResetStats();
  tx_.ResetStats();
}

RdmaFabric::RdmaFabric(sim::Engine* engine, const net::PerfModel& model,
                       const std::vector<sim::Resource*>& host_cores)
    : engine_(engine), model_(model) {
  for (uint32_t i = 0; i < host_cores.size(); ++i) {
    nics_.push_back(std::make_unique<RdmaNic>(engine, model_, this, i, host_cores[i]));
  }
}

}  // namespace xenic::nicmodel
