// Benchmark-owned decorators over the simulator's two harness interfaces.
//
// TimedWorkload wraps a workload::Workload and TimedSystem wraps a
// harness::SystemAdapter. Both forward every call unchanged and time the
// calls the benchmark attributes to a layer (NextTxn and worker hooks to
// `workload`, Submit to `txn`, LoadReplicated to `store`). They also count
// what the harness does not report: logical transactions started, attempts,
// keys per attempt, transactions dropped after the retry cap, and attempts
// Submit refused. Optionally TimedSystem threads every request through a
// chaos::HistoryRecorder so the committed history can be checked for
// serializability.
//
// Nothing here feeds back into the simulation: modeled results are
// byte-identical with and without the decorators (perfbench_test pins it).

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/history.h"
#include "src/harness/system_adapter.h"
#include "src/workload/workload.h"

namespace perfbench {

// Calls into one layer entry point and the host time they took.
struct CallTimer {
  uint64_t calls = 0;
  uint64_t ns = 0;
  double NsPerCall() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

// Shared by one TimedWorkload / TimedSystem pair.
struct Probe {
  CallTimer next_txn;     // Workload::NextTxn
  CallTimer worker_hook;  // workload-managed log-record applies
  CallTimer submit;       // SystemAdapter::Submit
  CallTimer load;         // SystemAdapter::LoadReplicated
  uint64_t keys = 0;      // read + write keys over all submitted attempts
  uint64_t refused = 0;   // Submit returned id 0
  uint64_t dropped = 0;   // aborted attempt not retried (retry cap reached)
};

// Steady-clock nanoseconds since an arbitrary epoch.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class TimedWorkload : public xenic::workload::Workload {
 public:
  TimedWorkload(xenic::workload::Workload& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  std::string Name() const override { return inner_.Name(); }
  std::vector<xenic::workload::TableDef> Tables() const override { return inner_.Tables(); }
  const xenic::txn::Partitioner& partitioner() const override { return inner_.partitioner(); }
  void Load(const xenic::workload::LoadFn& load) override { inner_.Load(load); }
  xenic::txn::TxnRequest NextTxn(xenic::store::NodeId coordinator, xenic::Rng& rng) override;
  std::function<xenic::sim::Tick(const xenic::store::LogWrite&)> WorkerHook(
      xenic::store::NodeId node) override;
  bool CountsForThroughput(uint8_t tag) const override { return inner_.CountsForThroughput(tag); }

 private:
  xenic::workload::Workload& inner_;
  Probe& probe_;
};

class TimedSystem : public xenic::harness::SystemAdapter {
 public:
  // `history` may be null; when set, every request is instrumented and
  // every committed attempt's observation is recorded.
  TimedSystem(std::unique_ptr<xenic::harness::SystemAdapter> inner, Probe& probe,
              xenic::chaos::HistoryRecorder* history = nullptr)
      : inner_(std::move(inner)), probe_(probe), history_(history) {}

  std::string Name() const override { return inner_->Name(); }
  xenic::sim::Engine& engine() override { return inner_->engine(); }
  uint32_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t Submit(xenic::store::NodeId node, xenic::txn::TxnRequest req,
                  xenic::txn::CommitCallback done) override;
  void LoadReplicated(xenic::store::TableId t, xenic::store::Key k,
                      const xenic::store::Value& v) override;
  void SetWorkerHook(xenic::store::NodeId node,
                     std::function<xenic::sim::Tick(const xenic::store::LogWrite&)> hook) override {
    inner_->SetWorkerHook(node, std::move(hook));
  }
  void StartWorkers() override { inner_->StartWorkers(); }
  void StopWorkers() override { inner_->StopWorkers(); }
  xenic::txn::TxnStats TotalStats() const override { return inner_->TotalStats(); }
  void ResetStats() override { inner_->ResetStats(); }
  double WireUtilization(xenic::sim::Tick window) const override {
    return inner_->WireUtilization(window);
  }
  double HostUtilization(xenic::sim::Tick window) const override {
    return inner_->HostUtilization(window);
  }
  double NicUtilization(xenic::sim::Tick window) const override {
    return inner_->NicUtilization(window);
  }
  uint64_t DmaOps() const override { return inner_->DmaOps(); }
  uint64_t DmaBytes() const override { return inner_->DmaBytes(); }
  void ForEachResource(const std::function<void(const xenic::obs::ResourceRef&)>& fn) override {
    inner_->ForEachResource(fn);
  }
  void ForEachWireChannel(const std::function<void(xenic::sim::Channel&)>& fn) override {
    inner_->ForEachWireChannel(fn);
  }
  void StopNodeWorkers(xenic::store::NodeId node) override { inner_->StopNodeWorkers(node); }
  void StartNodeWorkers(xenic::store::NodeId node) override { inner_->StartNodeWorkers(node); }
  xenic::txn::XenicCluster* xenic_cluster() override { return inner_->xenic_cluster(); }
  xenic::baseline::BaselineCluster* baseline_cluster() override {
    return inner_->baseline_cluster();
  }

 private:
  std::unique_ptr<xenic::harness::SystemAdapter> inner_;
  Probe& probe_;
  xenic::chaos::HistoryRecorder* history_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
