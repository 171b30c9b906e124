// TPC-C benchmark (paper sections 5.2 / 5.3).
//
// Cross-cluster tables (Robinhood-resident, remotely accessible):
// WAREHOUSE, DISTRICT, CUSTOMER, STOCK. ITEM is a read-only catalog
// replicated at every node (read at request-build time, as real systems
// cache it). ORDER / NEW-ORDER / ORDER-LINE / HISTORY are coordinator-local
// B+trees (paper: "B+ trees local to their respective coordinators; all
// tables are replicated") -- replicated to backups through compact logical
// log records applied by the Robinhood worker hook.
//
// Two configurations:
//  * new_order_only + uniform_remote_items: the section 5.2 benchmark
//    (DrTM+H's variant -- supplying warehouses uniformly random across the
//    cluster, a strenuous remote access pattern);
//  * the full five-transaction mix at standard remote probabilities
//    (~1%/item new-order remote, 15% payment remote customer), section 5.3.

#ifndef SRC_WORKLOAD_TPCC_H_
#define SRC_WORKLOAD_TPCC_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "src/btree/btree.h"
#include "src/workload/workload.h"

namespace xenic::workload {

class Tpcc : public Workload {
 public:
  struct Options {
    uint32_t num_nodes = 6;
    uint32_t warehouses_per_node = 12;  // paper: 72/server at full scale
    uint32_t districts_per_warehouse = 10;
    uint32_t customers_per_district = 120;  // spec: 3000
    uint32_t items = 2000;                  // spec: 100000
    uint32_t initial_orders_per_district = 20;
    bool new_order_only = false;
    bool uniform_remote_items = false;
    double payment_remote_prob = 0.15;
    double item_remote_prob = 0.01;
    std::vector<uint32_t> mix = {45, 43, 4, 4, 4};  // NO, PAY, OS, DLV, SL
  };

  enum TxnType : uint8_t {
    kNewOrder = 0,
    kPayment,
    kOrderStatus,
    kDelivery,
    kStockLevel,
    kNumTypes,
  };

  // Robinhood tables.
  static constexpr TableId kWarehouse = 0;
  static constexpr TableId kDistrict = 1;
  static constexpr TableId kCustomer = 2;
  static constexpr TableId kStock = 3;
  // Workload-managed (B+tree) log-record tables.
  static constexpr TableId kOrderPack = kWorkloadTableBase + 0;
  static constexpr TableId kHistoryPack = kWorkloadTableBase + 1;
  static constexpr TableId kDeliveryPack = kWorkloadTableBase + 2;

  // Row sizes (bytes), from the spec's row definitions; CUSTOMER and STOCK
  // exceed the 256 B inline limit and exercise the large-object path.
  static constexpr size_t kWarehouseBytes = 96;
  static constexpr size_t kDistrictBytes = 104;
  static constexpr size_t kCustomerBytes = 656;
  static constexpr size_t kStockBytes = 312;

  // --- Key encodings ---
  static Key WKey(uint64_t w) { return w; }
  static Key DKey(uint64_t w, uint64_t d) { return w * 16 + d; }
  static Key CKey(uint64_t w, uint64_t d, uint64_t c) { return (DKey(w, d) << 20) | c; }
  static Key SKey(uint64_t w, uint64_t item) { return (w << 24) | item; }
  static Key OrderKey(uint64_t dkey, uint64_t o) { return (dkey << 32) | o; }

  explicit Tpcc(const Options& options);

  std::string Name() const override {
    return options_.new_order_only ? "tpcc-neworder" : "tpcc";
  }
  std::vector<TableDef> Tables() const override;
  const txn::Partitioner& partitioner() const override { return part_; }
  void Load(const LoadFn& load) override;
  void NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* req) override;
  std::function<sim::Tick(const store::LogWrite&)> WorkerHook(NodeId node) override;
  bool CountsForThroughput(uint8_t tag) const override {
    return tag == kNewOrder || options_.new_order_only;
  }

  // Per-node local state (primary B+trees plus replicas of backed-up
  // shards). Exposed for consistency checks in tests. An order's lines
  // are its order pack, the block the new-order builder writes and every
  // LOG record carries: each node's ORDER-LINE entry shares that block,
  // and every NEW-ORDER entry shares one empty row.
  struct LocalState {
    btree::BTree orders;       // OrderKey -> {c, ol_cnt, delivered}
    btree::BTree new_orders;   // OrderKey -> {}
    btree::BTree order_lines;  // OrderKey -> order pack {dkey, c, ol_cnt, lines}
    uint64_t history_count = 0;
    std::unordered_map<uint64_t, uint32_t> next_o;  // dkey -> next order id
  };
  LocalState& local(NodeId node) { return *locals_[node]; }

  const Options& options() const { return options_; }
  uint32_t total_warehouses() const { return total_warehouses_; }
  NodeId NodeOfWarehouse(uint64_t w) const {
    return static_cast<NodeId>((w - 1) / options_.warehouses_per_node);
  }

 private:
  class TpccPartitioner : public txn::Partitioner {
   public:
    TpccPartitioner(const Tpcc* wl) : wl_(wl) {}
    NodeId PrimaryOf(TableId table, Key key) const override;

   private:
    const Tpcc* wl_;
  };

  // Each builds its transaction into `req`, which NextTxnInto cleared.
  void BuildNewOrder(NodeId coordinator, Rng& rng, TxnRequest& req);
  void BuildPayment(NodeId coordinator, Rng& rng, TxnRequest& req);
  void BuildOrderStatus(NodeId coordinator, Rng& rng, TxnRequest& req);
  void BuildDelivery(NodeId coordinator, Rng& rng, TxnRequest& req);
  void BuildStockLevel(NodeId coordinator, Rng& rng, TxnRequest& req);

  // Shared primary/backup application of logical records.
  void ApplyOrderPack(LocalState& ls, const Value& pack) const;
  static void ApplyDeliveryPack(LocalState& ls, const Value& pack);

  uint64_t HomeWarehouse(NodeId coordinator, Rng& rng) const;

  Options options_;
  uint32_t total_warehouses_;
  TpccPartitioner part_;
  std::vector<std::unique_ptr<LocalState>> locals_;
  std::vector<int64_t> item_price_;  // replicated read-only catalog
  Value new_order_row_;              // every NEW-ORDER entry's row
};

}  // namespace xenic::workload

#endif  // SRC_WORKLOAD_TPCC_H_
