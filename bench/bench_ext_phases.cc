// Extension bench: commit-protocol phase breakdown. For distributed
// transactions, where does the time go -- EXECUTE (lock+read at remote
// NICs), VALIDATE (version checks), or LOG (backup replication)? Measured
// at the coordinator NIC for Smallbank (small objects, 1-2 shards) and the
// TPC-C new-order pattern (many shards, large stock rows), at low and high
// load.

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"


int main(int argc, char** argv) {
  using namespace xenic;
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
    // Build the cluster directly so the per-node phase histograms are
    // reachable.
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
    for (uint32_t n = 0; n < nodes; ++n) {
      cluster.node(n).phases() = txn::XenicNode::PhaseBreakdown{};
    }
    cluster.engine().RunFor(800 * sim::kNsPerUs);
    stopped = true;
    cluster.StopWorkers();
    cluster.engine().RunFor(100 * sim::kNsPerUs);

    txn::XenicNode::PhaseBreakdown agg;
    for (uint32_t n = 0; n < nodes; ++n) {
      agg.execute.Merge(cluster.node(n).phases().execute);
      agg.validate.Merge(cluster.node(n).phases().validate);
      agg.log.Merge(cluster.node(n).phases().log);
      agg.total.Merge(cluster.node(n).phases().total);
    }
    tp.AddRow({c.label, c.contexts <= 2 ? "low" : "high",
               TablePrinter::Fmt(agg.execute.Mean() / 1e3, 1),
               TablePrinter::Fmt(agg.validate.Mean() / 1e3, 1),
               TablePrinter::Fmt(agg.log.Mean() / 1e3, 1),
               TablePrinter::Fmt(agg.total.Mean() / 1e3, 1),
               TablePrinter::Fmt(agg.total.count())});
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
