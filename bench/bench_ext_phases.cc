// Extension bench: commit-protocol phase breakdown. For distributed
// transactions, where does the time go -- EXECUTE (lock+read at remote
// NICs), VALIDATE (version checks), or LOG (backup replication)? Measured
// at the coordinator NIC for Smallbank (small objects, 1-2 shards) and the
// TPC-C new-order pattern (many shards, large stock rows), at low and high
// load, from the phase spans each coordinator emits on its trace lane.

#include <map>

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace {

using namespace xenic;

// A trace sink that keeps one duration histogram per span name on the
// engine's `txn_phases` lanes (EXECUTE, VALIDATE, LOG, and `txn` for the
// whole distributed transaction) and drops everything else.
class PhaseSpans : public sim::TraceSink {
 public:
  uint32_t RegisterTrack(const std::string& process, const std::string& /*track*/) override {
    phase_lane_.push_back(process == "txn_phases");
    return static_cast<uint32_t>(phase_lane_.size() - 1);
  }
  void Span(uint32_t track, const char* name, sim::Tick start, sim::Tick end,
            uint64_t /*id*/) override {
    if (phase_lane_[track]) {
      by_name_[name].Record(end - start);
    }
  }
  void Instant(uint32_t, const char*, sim::Tick, uint64_t) override {}

  const Histogram& operator[](const std::string& name) { return by_name_[name]; }

 private:
  std::vector<bool> phase_lane_;
  std::map<std::string, Histogram> by_name_;
};

}  // namespace

int main(int argc, char** argv) {
  // A serial bench: --jobs is accepted for uniformity with the sweeps.
  bench::ParseBenchFlags(argc, argv, harness::kFlagJobs);
  const uint32_t nodes = 6;

  TablePrinter tp({"Workload", "Load", "Execute(us)", "Validate(us)", "Log(us)", "Total(us)",
                   "n"});

  struct Case {
    std::string label;
    bool tpcc;
    uint32_t contexts;
  };
  for (const Case& c : {Case{"Smallbank", false, 2}, Case{"Smallbank", false, 96},
                        Case{"TPC-C NO", true, 2}, Case{"TPC-C NO", true, 96}}) {
    // Build the cluster directly so the phase sink can attach after
    // warmup.
    std::unique_ptr<workload::Workload> wl;
    if (c.tpcc) {
      workload::Tpcc::Options wo;
      wo.num_nodes = nodes;
      wo.warehouses_per_node = 36;
      wo.customers_per_district = 40;
      wo.items = 1000;
      wo.new_order_only = true;
      wo.uniform_remote_items = true;
      wl = std::make_unique<workload::Tpcc>(wo);
    } else {
      workload::Smallbank::Options wo;
      wo.num_nodes = nodes;
      wo.accounts_per_node = 100000;
      wl = std::make_unique<workload::Smallbank>(wo);
    }

    txn::XenicClusterOptions o;
    o.num_nodes = nodes;
    o.replication = 3;
    o.features.occ_multihop = false;  // measure the standard phase pipeline
    for (const auto& t : wl->Tables()) {
      o.tables.push_back(store::TableSpec{t.id, t.name, t.capacity_log2, t.value_size,
                                          t.max_displacement, 8});
    }
    txn::XenicCluster cluster(o, &wl->partitioner());
    for (uint32_t n = 0; n < nodes; ++n) {
      cluster.node(n).set_worker_apply_hook(wl->WorkerHook(n));
    }
    wl->Load([&](store::TableId t, store::Key k, const store::Value& v) {
      cluster.LoadReplicated(t, k, v);
    });
    cluster.StartWorkers();

    // Closed-loop drive.
    Rng rng(9);
    bool stopped = false;
    std::function<void(store::NodeId)> ctx = [&](store::NodeId n) {
      if (stopped) {
        return;
      }
      cluster.node(n).Submit(wl->NextTxn(n, rng), [&, n](txn::TxnOutcome) { ctx(n); });
    };
    for (uint32_t n = 0; n < nodes; ++n) {
      for (uint32_t i = 0; i < c.contexts; ++i) {
        ctx(n);
      }
    }
    cluster.engine().RunFor(150 * sim::kNsPerUs);
    PhaseSpans spans;
    cluster.engine().set_trace(&spans);
    cluster.engine().RunFor(800 * sim::kNsPerUs);
    stopped = true;
    cluster.StopWorkers();
    // Transactions that commit during the drain count too.
    cluster.engine().RunFor(100 * sim::kNsPerUs);
    cluster.engine().set_trace(nullptr);

    tp.AddRow({c.label, c.contexts <= 2 ? "low" : "high",
               TablePrinter::Fmt(spans["EXECUTE"].Mean() / 1e3, 1),
               TablePrinter::Fmt(spans["VALIDATE"].Mean() / 1e3, 1),
               TablePrinter::Fmt(spans["LOG"].Mean() / 1e3, 1),
               TablePrinter::Fmt(spans["txn"].Mean() / 1e3, 1),
               TablePrinter::Fmt(spans["txn"].count())});
    std::fprintf(stderr, "  %s load=%u done\n", c.label.c_str(), c.contexts);
  }
  std::printf("%s\n",
              tp.Render("Extension: commit-protocol phase breakdown (coordinator NIC view)")
                  .c_str());
  std::printf("EXECUTE dominates (lock+read roundtrips and NIC execution); VALIDATE is\n"
              "cheap or skipped (locked read-write keys need none); LOG is one parallel\n"
              "roundtrip to the backups.\n");
  return 0;
}
