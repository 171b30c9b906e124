#include "src/chaos/fault_plan.h"

#include <algorithm>

namespace xenic::chaos {

namespace {

// Decorrelate (seed, epoch) into an Rng stream of its own.
uint64_t PlanSeed(uint64_t seed, uint64_t epoch) {
  return ScrambleKey(seed ^ ScrambleKey(epoch + 0x5bd1e995u));
}

}  // namespace

FaultPlan FaultPlan::Generate(uint64_t seed, uint64_t epoch, const FaultSpec& spec,
                              uint32_t num_nodes, sim::Tick horizon) {
  FaultPlan plan;
  Rng rng(PlanSeed(seed, epoch));
  const sim::Tick lo = horizon / 5;
  const sim::Tick hi = horizon - horizon / 5;
  auto place = [&](FaultKind kind, sim::Tick duration) {
    FaultEvent ev;
    ev.at = lo + static_cast<sim::Tick>(rng.NextBounded(static_cast<uint64_t>(hi - lo)));
    ev.kind = kind;
    ev.node = static_cast<store::NodeId>(rng.NextBounded(num_nodes));
    ev.duration = duration;
    plan.events.push_back(ev);
  };
  for (uint32_t i = 0; i < spec.crashes; ++i) {
    place(FaultKind::kCrash, 0);
  }
  for (uint32_t i = 0; i < spec.eviction_storms; ++i) {
    place(FaultKind::kEvictionStorm, 0);
  }
  for (uint32_t i = 0; i < spec.stall_windows; ++i) {
    place(FaultKind::kStallStart, spec.stall_duration);
  }
  // Placed after the historical kinds so existing plans draw the same RNG
  // sequence; with ONLY handoffs armed, the first draws match a crash-only
  // plan exactly, giving crash-vs-handoff runs the same (at, node) pairs.
  for (uint32_t i = 0; i < spec.planned_handoffs; ++i) {
    place(FaultKind::kPlannedHandoff, 0);
  }
  std::sort(plan.events.begin(), plan.events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    if (a.kind != b.kind) {
      return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
    }
    return a.node < b.node;
  });
  return plan;
}

FaultInjector::FaultInjector(harness::SystemAdapter& system, const FaultSpec& spec,
                             uint64_t seed, uint64_t epoch)
    : system_(system),
      spec_(spec),
      seed_(seed),
      epoch_(epoch),
      wire_rng_(ScrambleKey(PlanSeed(seed, epoch))) {}

bool FaultInjector::NodeCrashed(store::NodeId n) const {
  if (txn::XenicCluster* cluster = system_.xenic_cluster()) {
    return cluster->node(n).crashed();
  }
  return false;
}

void FaultInjector::Arm(sim::Tick horizon) {
  plan_ = FaultPlan::Generate(seed_, epoch_, spec_, system_.num_nodes(), horizon);
  for (const FaultEvent& ev : plan_.events) {
    system_.engine().ScheduleAt(ev.at, [this, ev] { Fire(ev); });
  }
  if (spec_.typed_drop_node >= 0) {
    if (txn::XenicCluster* cluster = system_.xenic_cluster();
        cluster != nullptr && static_cast<uint32_t>(spec_.typed_drop_node) < cluster->size()) {
      net::Transport::TypedFault fault;
      fault.match = spec_.typed_drop;
      fault.retransmit_delay = spec_.retransmit_delay;
      typed_target_ =
          &cluster->node(static_cast<store::NodeId>(spec_.typed_drop_node)).transport();
      typed_target_->set_typed_fault(fault);
    }
  }
  if (spec_.drop_prob > 0 || spec_.dup_prob > 0 || spec_.delay_prob > 0) {
    system_.ForEachWireChannel([this](sim::Channel& ch) {
      ch.set_fault_hook([this](uint64_t bytes) {
        (void)bytes;
        sim::Channel::FaultDecision d;
        if (spec_.drop_prob > 0 && wire_rng_.NextBool(spec_.drop_prob)) {
          // Modeled as a link-layer retransmission (see header).
          d.extra_delay += spec_.retransmit_delay;
          d.duplicates += 1;
        }
        if (spec_.dup_prob > 0 && wire_rng_.NextBool(spec_.dup_prob)) {
          d.duplicates += 1;
        }
        if (spec_.delay_prob > 0 && wire_rng_.NextBool(spec_.delay_prob)) {
          d.extra_delay +=
              1 + static_cast<sim::Tick>(wire_rng_.NextBounded(
                      static_cast<uint64_t>(spec_.max_delay)));
        }
        return d;
      });
    });
  }
}

void FaultInjector::Fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrash:
      CrashNode(ev.node);
      break;
    case FaultKind::kEvictionStorm:
      EvictionStorm(ev.node);
      break;
    case FaultKind::kStallStart:
      Stall(ev.node, ev.duration);
      break;
    case FaultKind::kPlannedHandoff:
      PlannedHandoffAt(ev.node);
      break;
  }
}

void FaultInjector::CrashNode(store::NodeId victim) {
  txn::XenicCluster* cluster = system_.xenic_cluster();
  if (cluster == nullptr) {
    stats_.crashes_skipped++;  // baseline systems have no crash support
    return;
  }
  if (cluster->node(victim).crashed()) {
    stats_.crashes_skipped++;
    return;
  }
  // Keep a quorum: enough survivors for the configured commit point (and
  // for the recovery scan to read from), and at least one live backup of
  // the victim for the failover to promote.
  if (!cluster->repl().CrashAllowed(static_cast<uint32_t>(cluster->LiveNodes().size()))) {
    stats_.crashes_skipped++;
    return;
  }
  if (!cluster->FirstLiveBackup(victim)) {
    stats_.crashes_skipped++;  // replication 1 (or all backups dead)
    return;
  }
  cluster->node(victim).Crash();
  stats_.crashes++;
  system_.engine().ScheduleAfter(spec_.detection_delay,
                                 [this, victim] { DetectAndRecover(victim); });
}

void FaultInjector::DetectAndRecover(store::NodeId victim) {
  const txn::CrashReport r = txn::CrashFailover(*system_.xenic_cluster(), victim);
  stats_.sweep_committed += r.sweep_committed;
  stats_.sweep_aborted += r.sweep_aborted;
  stats_.rolled_forward += r.rolled_forward + r.coord_rolled_forward;
  stats_.discarded += r.discarded + r.coord_discarded;
  stats_.locks_released += r.locks_released;
}

void FaultInjector::PlannedHandoffAt(store::NodeId victim) {
  txn::XenicCluster* cluster = system_.xenic_cluster();
  if (cluster == nullptr) {
    stats_.handoffs_skipped++;  // baseline systems have no handoff support
    return;
  }
  const txn::HandoffReport r = txn::PlannedHandoff(*cluster, victim);
  if (!r.performed) {
    stats_.handoffs_skipped++;
    return;
  }
  stats_.handoffs++;
  stats_.handoff_stragglers += r.stragglers_aborted;
}

void FaultInjector::EvictionStorm(store::NodeId node) {
  txn::XenicCluster* cluster = system_.xenic_cluster();
  if (cluster == nullptr || cluster->node(node).crashed()) {
    return;
  }
  stats_.storms++;
  auto& ds = cluster->datastore(node);
  for (store::TableId t = 0; t < ds.num_tables(); ++t) {
    for (const auto& e : ds.index(t).CachedEntries()) {
      ds.index(t).Invalidate(e.key);
      stats_.storm_evictions++;
    }
  }
}

void FaultInjector::Stall(store::NodeId node, sim::Tick duration) {
  if (NodeCrashed(node)) {
    return;
  }
  stats_.stalls++;
  system_.StopNodeWorkers(node);
  system_.engine().ScheduleAfter(duration, [this, node] {
    if (!NodeCrashed(node)) {
      system_.StartNodeWorkers(node);
    }
  });
}

}  // namespace xenic::chaos
