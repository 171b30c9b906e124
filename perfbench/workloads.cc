#include "workloads.h"

#include "src/workload/retwis.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace perfbench {

using namespace xenic;

namespace {

constexpr uint32_t kNodes = 6;

harness::SystemConfig Xenic() {
  harness::SystemConfig c;
  c.kind = harness::SystemConfig::Kind::kXenic;
  c.num_nodes = kNodes;
  c.replication = 3;
  return c;
}

harness::SystemConfig DrtmH() {
  harness::SystemConfig c;
  c.kind = harness::SystemConfig::Kind::kBaseline;
  c.mode = baseline::BaselineMode::kDrtmH;
  c.num_nodes = kNodes;
  c.replication = 3;
  return c;
}

// Figure 8c's Retwis database (bench_fig8c_retwis).
std::unique_ptr<workload::Workload> MakeRetwis() {
  workload::Retwis::Options o;
  o.num_nodes = kNodes;
  o.keys_per_node = 120000;
  return std::make_unique<workload::Retwis>(o);
}

std::vector<WorkloadSpec> Build() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec retwis;
  retwis.name = "retwis";
  retwis.system = Xenic();
  retwis.make = MakeRetwis;
  retwis.contexts = 64;
  // bench_fig8c_retwis's window; perfbench_test pins that this point
  // reproduces the bench's Xenic 64-context row. Longer windows let OCC
  // starve the odd transaction past the harness's 200 retries.
  retwis.warmup = 150 * sim::kNsPerUs;
  retwis.measure = 1200 * sim::kNsPerUs;
  retwis.default_seed = 1;
  retwis.heldout_seed = 1009;
  specs.push_back(retwis);

  // Figure 8a's new-order-only TPC-C (bench_fig8a_tpcc_neworder), with a
  // window three times that bench's 1.5 ms: ~11,000 commits behind p99.
  WorkloadSpec tpcc;
  tpcc.name = "tpcc_no";
  tpcc.system = Xenic();
  tpcc.make = [] {
    workload::Tpcc::Options o;
    o.num_nodes = kNodes;
    o.warehouses_per_node = 36;
    o.customers_per_district = 40;
    o.items = 1000;
    o.new_order_only = true;
    o.uniform_remote_items = true;
    return std::unique_ptr<workload::Workload>(std::make_unique<workload::Tpcc>(o));
  };
  tpcc.contexts = 48;
  tpcc.warmup = 200 * sim::kNsPerUs;
  tpcc.measure = 4500 * sim::kNsPerUs;
  tpcc.default_seed = 1;
  tpcc.heldout_seed = 1009;
  specs.push_back(tpcc);

  // bench_cc_compare's YCSB at zipf 0.9, below the cell's 8-context peak: at
  // 8 contexts (and at theta 0.99) OCC drops ~1% of transactions after the
  // harness's 200 retries and the median flips between modes from seed to
  // seed. At 2 contexts a quarter of attempts still abort and nothing is
  // dropped. The 48 ms window puts ~20,000 commits behind p99.
  WorkloadSpec ycsb;
  ycsb.name = "ycsb_hot";
  ycsb.system = Xenic();
  ycsb.make = [] {
    workload::Ycsb::Options o;
    o.num_nodes = kNodes;
    o.keys_per_node = 2000;
    o.zipf_theta = 0.9;
    o.read_ratio = 0.5;
    o.ops_per_txn = 4;
    return std::unique_ptr<workload::Workload>(std::make_unique<workload::Ycsb>(o));
  };
  ycsb.contexts = 2;
  ycsb.warmup = 150 * sim::kNsPerUs;
  ycsb.measure = 48000 * sim::kNsPerUs;
  ycsb.default_seed = 11;
  ycsb.heldout_seed = 1013;
  ycsb.check_history = true;
  specs.push_back(ycsb);

  WorkloadSpec drtmh = retwis;
  drtmh.name = "retwis_drtmh";
  drtmh.system = DrtmH();
  specs.push_back(drtmh);

  return specs;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = Build();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& s : Workloads()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

harness::RunConfig RunConfigFor(const WorkloadSpec& spec, uint32_t contexts, uint64_t seed) {
  harness::RunConfig rc;
  rc.contexts_per_node = contexts;
  rc.warmup = spec.warmup;
  rc.measure = spec.measure;
  rc.seed = seed;
  return rc;
}

}  // namespace perfbench
