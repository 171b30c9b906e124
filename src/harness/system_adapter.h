// SystemAdapter: uniform driver interface over the Xenic cluster and the
// four baseline clusters, so every benchmark runs the same workload code
// against every system.

#ifndef SRC_HARNESS_SYSTEM_ADAPTER_H_
#define SRC_HARNESS_SYSTEM_ADAPTER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/baseline_cluster.h"
#include "src/obs/resource_stats.h"
#include "src/txn/xenic_cluster.h"
#include "src/workload/workload.h"

namespace xenic::harness {

class SystemAdapter {
 public:
  virtual ~SystemAdapter() = default;
  virtual std::string Name() const = 0;
  virtual sim::Engine& engine() = 0;
  virtual uint32_t num_nodes() const = 0;
  // Returns the node-assigned txn id (0 if the node refused, e.g. crashed)
  // so callers can tie traces from retries back to one logical transaction.
  virtual uint64_t Submit(store::NodeId node, txn::TxnRequest req, txn::CommitCallback done) = 0;
  virtual void LoadReplicated(store::TableId t, store::Key k, const store::Value& v) = 0;
  virtual void SetWorkerHook(store::NodeId node,
                             std::function<sim::Tick(const store::LogWrite&)> hook) = 0;
  virtual void StartWorkers() = 0;
  virtual void StopWorkers() = 0;
  virtual txn::TxnStats TotalStats() const = 0;
  virtual void ResetStats() = 0;
  // Mean outbound wire utilization across nodes over `window` ns.
  virtual double WireUtilization(sim::Tick window) const = 0;
  // Mean host-core and NIC-core utilization (NIC is 0 for baselines).
  virtual double HostUtilization(sim::Tick window) const = 0;
  virtual double NicUtilization(sim::Tick window) const = 0;
  // Total DMA operations / payload bytes since the last ResetStats
  // (0 for the RDMA baselines, whose PCIe work is inside the NIC model).
  virtual uint64_t DmaOps() const = 0;
  virtual uint64_t DmaBytes() const = 0;

  // Visit every service center in the deployment (obs::ResourceMonitor
  // attaches wait-time accounting through this). Refs carry canonical
  // node-independent names so the same resource aggregates across nodes.
  virtual void ForEachResource(const std::function<void(const obs::ResourceRef&)>& fn) = 0;

  // --- Chaos hooks ---
  // Visit every outbound wire channel in the deployment (fault injectors
  // arm sim::Channel fault hooks through this).
  virtual void ForEachWireChannel(const std::function<void(sim::Channel&)>& fn) = 0;
  // Per-node worker control (back-pressure windows stall one node's log
  // apply pipeline without touching the rest of the cluster).
  virtual void StopNodeWorkers(store::NodeId node) = 0;
  virtual void StartNodeWorkers(store::NodeId node) = 0;
  // Underlying cluster access for system-specific faults (node crashes,
  // recovery); null for systems of the other kind.
  virtual txn::XenicCluster* xenic_cluster() { return nullptr; }
  virtual baseline::BaselineCluster* baseline_cluster() { return nullptr; }

  // Keep `state` alive until this system is destroyed. A run's callbacks
  // name its state by raw pointer, and attempts still in flight when the
  // run stops complete during a later run on the same system.
  void Retain(std::shared_ptr<void> state) { retained_.push_back(std::move(state)); }

 private:
  std::vector<std::shared_ptr<void>> retained_;
};

// Configuration of the system under test.
struct SystemConfig {
  enum class Kind { kXenic, kBaseline };
  Kind kind = Kind::kXenic;
  baseline::BaselineMode mode = baseline::BaselineMode::kDrtmH;  // when kBaseline
  txn::XenicFeatures features;                                   // when kXenic
  nicmodel::NicFeatures nic_features;                            // when kXenic
  net::PerfModel perf;
  uint32_t num_nodes = 6;
  uint32_t replication = 3;
  // Total copies (primary included) that must ack before commit; 0 or
  // >= replication keeps the historical wait-for-all behavior.
  uint32_t quorum = 0;
  uint32_t workers_per_node = 3;
  uint64_t nic_cache_budget = 0;        // bytes; 0 = unlimited
  uint16_t max_displacement_override = 0;  // replace every table's Dm; 0 = keep
  size_t capacity_log2_override = 0;       // replace every table's capacity; 0 = keep
  size_t log_capacity = 1 << 16;  // commit-log ring records per node (Xenic)
};

// Build a system ready to run `workload` (tables created, hooks wired; the
// database is NOT yet loaded -- call LoadWorkload).
std::unique_ptr<SystemAdapter> BuildSystem(const SystemConfig& config,
                                           workload::Workload& workload);

// Populate the database through the adapter.
void LoadWorkload(SystemAdapter& system, workload::Workload& workload);

}  // namespace xenic::harness

#endif  // SRC_HARNESS_SYSTEM_ADAPTER_H_
