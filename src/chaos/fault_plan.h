// Deterministic fault planning and injection.
//
// A FaultPlan is generated up front from (seed, epoch) and a FaultSpec: the
// schedule of node crashes, NIC-index eviction storms, and commit-log
// back-pressure windows is fixed before the run starts, so the same
// (seed, epoch) replays the same chaos byte-for-byte. Per-frame wire faults
// (delay, duplication, modeled drops) are drawn from a dedicated Rng inside
// the deterministic event loop, which makes them equally reproducible.
//
// Fault semantics:
//  - "Drop" is modeled as a retransmission: the frame is charged twice on
//    the wire and delayed by `retransmit_delay`. The commit protocol counts
//    acks and has no retransmission timer of its own, so a true loss would
//    wedge it; modeling the link-layer retry keeps the protocol semantics
//    while still exercising reordering and extra occupancy.
//  - Duplicates charge wire occupancy only; the duplicate frame delivers
//    nothing (the simulator's message closures are single-shot, which
//    models receiver-side transport dedup).
//  - A crash is fail-stop: the node's NIC state (locks, in-flight work) is
//    gone; detection fires after `detection_delay` and runs the crash
//    failover (txn::CrashFailover).

#ifndef SRC_CHAOS_FAULT_PLAN_H_
#define SRC_CHAOS_FAULT_PLAN_H_

#include <vector>

#include "src/common/rng.h"
#include "src/harness/system_adapter.h"
#include "src/net/transport.h"
#include "src/txn/recovery.h"

namespace xenic::chaos {

struct FaultSpec {
  // Per-frame wire fault probabilities (applied on every outbound channel).
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  sim::Tick max_delay = 2 * sim::kNsPerUs;         // uniform in [1, max_delay]
  sim::Tick retransmit_delay = 3 * sim::kNsPerUs;  // per modeled drop

  // Scheduled faults over the run horizon.
  uint32_t crashes = 0;           // fail-stop node crashes (with recovery)
  uint32_t eviction_storms = 0;   // NIC-index cache wipe on one node
  uint32_t stall_windows = 0;     // commit-log back-pressure: workers stopped
  // Planned lease handoffs (txn::PlannedHandoff): the victim stays live,
  // its primary role moves to an up-to-date backup with no sweep or scan.
  uint32_t planned_handoffs = 0;
  sim::Tick stall_duration = 60 * sim::kNsPerUs;
  sim::Tick detection_delay = 8 * sim::kNsPerUs;  // crash -> lease expiry

  // Typed message drop (transport-layer fault): every message matching
  // `typed_drop` sent by node `typed_drop_node` is dropped and delivered
  // via link-layer retransmit after `retransmit_delay`. Disabled when the
  // node is negative. Xenic systems only (the hook lives on net::Transport).
  int typed_drop_node = -1;
  net::MsgSelector typed_drop;
};

enum class FaultKind : uint8_t {
  kCrash = 0,
  kEvictionStorm,
  kStallStart,
  kPlannedHandoff,
};

struct FaultEvent {
  sim::Tick at = 0;
  FaultKind kind = FaultKind::kCrash;
  store::NodeId node = 0;
  sim::Tick duration = 0;  // stall windows
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by time

  // Deterministic plan from (seed, epoch): same inputs, same schedule.
  // Events are placed in the middle 60% of the horizon so the system has
  // warm-up and drain time around them.
  static FaultPlan Generate(uint64_t seed, uint64_t epoch, const FaultSpec& spec,
                            uint32_t num_nodes, sim::Tick horizon);
};

// Arms a plan against a running system: schedules the planned events on the
// sim engine and installs per-frame fault hooks on every wire channel.
// Crash events run txn::CrashFailover after the detection delay, and
// handoffs run txn::PlannedHandoff; both are skipped for baseline systems,
// which have no failover support -- wire faults, stalls, and storms apply
// everywhere.
class FaultInjector {
 public:
  struct Stats {
    uint64_t crashes = 0;
    uint64_t crashes_skipped = 0;  // too few live nodes / baseline system
    uint64_t storms = 0;
    uint64_t storm_evictions = 0;
    uint64_t stalls = 0;
    uint64_t handoffs = 0;            // planned lease handoffs performed
    uint64_t handoffs_skipped = 0;    // victim crashed / no live backup
    uint64_t handoff_stragglers = 0;  // in-flight txns aborted by handoffs
    uint64_t sweep_committed = 0;
    uint64_t sweep_aborted = 0;
    uint64_t rolled_forward = 0;  // shard recovery + coordinator sweep
    uint64_t discarded = 0;
    uint64_t locks_released = 0;
    uint64_t typed_drops = 0;  // messages hit by the typed-drop fault
  };

  FaultInjector(harness::SystemAdapter& system, const FaultSpec& spec, uint64_t seed,
                uint64_t epoch);

  // Schedule the plan's events and arm wire hooks. Call once, before Run.
  void Arm(sim::Tick horizon);

  const Stats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  bool NodeCrashed(store::NodeId n) const;
  // True when Arm installed the typed-drop hook (Xenic system, valid node).
  bool typed_drop_armed() const { return typed_target_ != nullptr; }
  uint64_t typed_drops() const {
    return typed_target_ != nullptr ? typed_target_->typed_drops() : 0;
  }

 private:
  void Fire(const FaultEvent& ev);
  void CrashNode(store::NodeId victim);
  void DetectAndRecover(store::NodeId victim);
  void PlannedHandoffAt(store::NodeId victim);
  void EvictionStorm(store::NodeId node);
  void Stall(store::NodeId node, sim::Tick duration);

  harness::SystemAdapter& system_;
  FaultSpec spec_;
  uint64_t seed_ = 0;
  uint64_t epoch_ = 0;
  FaultPlan plan_;
  Rng wire_rng_;
  Stats stats_;
  net::Transport* typed_target_ = nullptr;  // typed-drop hook location
};

}  // namespace xenic::chaos

#endif  // SRC_CHAOS_FAULT_PLAN_H_
