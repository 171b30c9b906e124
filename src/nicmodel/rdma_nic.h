// Timing model of the Mellanox CX5 100GbE RDMA NIC (paper sections 2.1,
// 3.2, 3.4). The baseline transaction systems (DrTM+H, FaSST, DrTM+R) are
// built on these verbs.
//
//  * One-sided READ / WRITE / ATOMIC: handled entirely by NIC hardware at
//    the target (no host CPU), ~3.4 us RTT at low load, with a per-NIC
//    small-op pipeline ceiling of ~15 Mops/s (doorbell batching assumed).
//  * Two-sided SEND/RECV RPC: crosses the target host (rx ring, poll,
//    handler, send post), ~6.3 us RTT; the handler closure runs on a target
//    host thread and may carry extra application cost.
//
// Allocation: a verb's state -- endpoints, sizes, handler cost, the
// at_target closure or RPC handler, and `done` -- is parked in one slot
// (sim::SlotTable) on the RdmaFabric, so the verb keeps its index as it
// moves from initiator to target and back, and each of its events captures
// only {this, slot}. Once the table has grown to the peak number of verbs
// in flight, Read, Write and Rpc make no heap allocation beyond what the
// caller's callbacks themselves carry. Atomic still wraps its typed
// closures (one shared result word plus two spilled callbacks).

#ifndef SRC_NICMODEL_RDMA_NIC_H_
#define SRC_NICMODEL_RDMA_NIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/perf_model.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/slot_table.h"
#include "src/store/types.h"

namespace xenic::nicmodel {

using store::NodeId;

class RdmaFabric;

class RdmaNic {
 public:
  RdmaNic(sim::Engine* engine, const net::PerfModel& model, RdmaFabric* fabric, NodeId id,
          sim::Resource* host_cores);

  NodeId id() const { return id_; }
  sim::Engine* engine() { return engine_; }

  // One-sided verbs, initiated from a host thread on this node. `bytes` is
  // the payload (data read / written). The optional `at_target` closure
  // executes the actual memory effect at the target when the NIC hardware
  // performs the access (no host CPU there); `done` runs at the initiator
  // when the completion is polled.
  void Read(NodeId dst, uint32_t bytes, sim::Engine::Callback done);
  void Read(NodeId dst, uint32_t bytes, sim::Engine::Callback at_target,
            sim::Engine::Callback done);
  void Write(NodeId dst, uint32_t bytes, sim::Engine::Callback done);
  void Write(NodeId dst, uint32_t bytes, sim::Engine::Callback at_target,
             sim::Engine::Callback done);
  // Compare-and-swap / fetch-and-add on an 8-byte remote word: `op` runs
  // at the target and returns the result carried back to `done`.
  void Atomic(NodeId dst, sim::SmallFunction<uint64_t()> op,
              sim::SmallFunction<void(uint64_t)> done);

  // Two-sided RPC: `handler_cost` of target host-thread time plus the
  // `handler` closure (which performs real work, e.g. a hash lookup), then
  // a response of `resp_bytes`. `done` runs at the initiator.
  void Rpc(NodeId dst, uint32_t req_bytes, uint32_t resp_bytes, sim::Tick handler_cost,
           sim::Engine::Callback handler, sim::Engine::Callback done);

  sim::Resource& pipeline() { return pipeline_; }
  sim::Resource& host_cores() { return *host_cores_; }
  uint64_t ops() const { return ops_; }
  uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  double WireUtilization(sim::Tick window) const { return tx_.Utilization(window); }
  void ResetStats();

  // Wire channel, exposed so fault injectors can arm per-frame hooks.
  sim::Channel& tx() { return tx_; }

 private:
  friend class RdmaFabric;

  // One verb from post to completion.
  struct Verb {
    NodeId src;
    NodeId dst;
    uint32_t req_payload;     // request payload on the wire (WRITE data, RPC request)
    uint32_t resp_payload;    // response payload (READ data, RPC response)
    sim::Tick handler_cost;   // RPC: extra target host-thread time
    bool rpc;                 // two-sided: the target host runs `at_target`
    sim::Engine::Callback at_target;  // memory effect or RPC handler (may be empty)
    sim::Engine::Callback done;
  };

  // Initiator: verb post (host, doorbell-batched) + NIC pipeline + wire.
  void Post(Verb verb);
  // Target side: NIC hardware handles a one-sided request and responds.
  void HandleOneSided(uint32_t verb);
  // Target side: rx ring, host handler, response send.
  void HandleRpc(uint32_t verb);
  void SendResponse(uint32_t verb);
  // Initiator side: completion delivery and poll, then `done`.
  void Complete(uint32_t verb);

  sim::Engine* engine_;
  const net::PerfModel& model_;
  RdmaFabric* fabric_;
  NodeId id_;
  sim::Resource* host_cores_;  // shared with the rest of the node
  sim::Resource pipeline_;     // NIC processing units (~15 Mops/s small ops)
  sim::Channel tx_;            // 100 Gbps link (one per CX5)
  uint64_t ops_ = 0;
  uint64_t wire_bytes_sent_ = 0;

  static constexpr uint32_t kVerbHeader = 42;  // RoCE headers per op on the wire
};

class RdmaFabric {
 public:
  // host_cores[i] is node i's host thread pool (shared with the app).
  RdmaFabric(sim::Engine* engine, const net::PerfModel& model,
             const std::vector<sim::Resource*>& host_cores);

  RdmaNic& node(NodeId id) { return *nics_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(nics_.size()); }

 private:
  friend class RdmaNic;

  sim::Engine* engine_;
  net::PerfModel model_;
  std::vector<std::unique_ptr<RdmaNic>> nics_;
  sim::SlotTable<RdmaNic::Verb> verbs_;  // verbs in flight, any node
};

}  // namespace xenic::nicmodel

#endif  // SRC_NICMODEL_RDMA_NIC_H_
