// The benchmark's named workloads: one system configuration, one workload
// generator, one closed-loop operating point, and the run windows. All run
// 6 nodes with 3-way replication and default features; the seed comes from
// the command line and drives every generated transaction.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/runner.h"
#include "src/harness/system_adapter.h"
#include "src/workload/workload.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  xenic::harness::SystemConfig system;
  std::function<std::unique_ptr<xenic::workload::Workload>()> make;
  uint32_t contexts = 0;  // loaded point, per node
  xenic::sim::Tick warmup = 0;
  xenic::sim::Tick measure = 0;
  uint64_t default_seed = 1;
  uint64_t heldout_seed = 0;  // reserved for confirming later claims
  bool check_history = false;  // run the serializability checker (RMW workloads)
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The closed-loop run configuration of a spec at `contexts` per node.
xenic::harness::RunConfig RunConfigFor(const WorkloadSpec& spec, uint32_t contexts,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
