#include "src/workload/tpcc.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace xenic::workload {

namespace {

using store::GetI64;
using store::GetU64;
using store::PutI64;
using store::PutU64;

// Row field offsets (fields are u64/i64 slots of the value's bytes).
// WAREHOUSE: [0] w_ytd.
// DISTRICT:  [0] d_ytd, [8] d_next_o_id.
// CUSTOMER:  [0] c_balance, [8] c_ytd_payment, [16] c_payment_cnt,
//            [24] c_delivery_cnt.
// STOCK:     [0] s_quantity, [8] s_ytd, [16] s_order_cnt, [24] s_remote_cnt.

Value WarehouseRow() { return Value(Tpcc::kWarehouseBytes, 0); }

Value DistrictRow(uint64_t next_o_id) {
  Value v(Tpcc::kDistrictBytes, 0);
  PutU64(v, 8, next_o_id);
  return v;
}

Value CustomerRow(int64_t balance) {
  Value v(Tpcc::kCustomerBytes, 0);
  PutI64(v, 0, balance);
  return v;
}

Value StockRow(int64_t quantity) {
  Value v(Tpcc::kStockBytes, 0);
  PutI64(v, 0, quantity);
  return v;
}

// ORDER b+tree value: [0] c, [8] ol_cnt, [16] delivered flag.
Value OrderRow(uint64_t c, uint64_t ol_cnt, bool delivered) {
  Value v(24, 0);
  PutU64(v, 0, c);
  PutU64(v, 8, ol_cnt);
  PutU64(v, 16, delivered ? 1 : 0);
  return v;
}

// Order pack: [0] dkey, [8] c, [16] ol_cnt, then line l (1-based) at
// PackLine(l): [0] item, [8] supply warehouse, [16] quantity, [24] amount.
// The new-order builder and Load write one per order; it is the LOG
// record's value and, shared, every node's ORDER-LINE entry.
constexpr size_t PackLine(uint64_t l) { return 24 + 32 * (l - 1); }

Value OrderPack(uint64_t dkey, uint64_t c, uint64_t ol_cnt) {
  Value pack(24 + 32 * ol_cnt, 0);
  PutU64(pack, 0, dkey);
  PutU64(pack, 8, c);
  PutU64(pack, 16, ol_cnt);
  return pack;
}

void PutOrderLine(Value& pack, uint64_t l, uint64_t item, uint64_t supply, uint64_t qty,
                  int64_t amount) {
  const size_t row = PackLine(l);
  PutU64(pack, row, item);
  PutU64(pack, row + 8, supply);
  PutU64(pack, row + 16, qty);
  PutI64(pack, row + 24, amount);
}

// The sum of an order's line amounts.
int64_t OrderTotal(const Value& pack) {
  int64_t total = 0;
  for (uint64_t l = 1; l <= GetU64(pack, 16); ++l) {
    total += GetI64(pack, PackLine(l) + 24);
  }
  return total;
}

// A new-order line: the item, its supplying warehouse and the quantity.
struct NewOrderLine {
  uint64_t item;
  uint64_t supply;
  uint64_t qty;
};
constexpr size_t kMaxOrderLines = 15;
struct NewOrderLines {
  std::array<NewOrderLine, kMaxOrderLines> at;
  size_t n = 0;
};

}  // namespace

store::NodeId Tpcc::TpccPartitioner::PrimaryOf(TableId table, Key key) const {
  uint64_t w = 1;
  switch (table) {
    case Tpcc::kWarehouse:
      w = key;
      break;
    case Tpcc::kDistrict:
      w = key / 16;
      break;
    case Tpcc::kCustomer:
      w = (key >> 20) / 16;
      break;
    case Tpcc::kStock:
      w = key >> 24;
      break;
    default:
      assert(false && "workload-managed table in partitioner");
  }
  return wl_->NodeOfWarehouse(w) % wl_->options_.num_nodes;
}

Tpcc::Tpcc(const Options& options)
    : options_(options),
      total_warehouses_(options.num_nodes * options.warehouses_per_node),
      part_(this),
      new_order_row_(8, 0) {
  for (uint32_t n = 0; n < options.num_nodes; ++n) {
    locals_.push_back(std::make_unique<LocalState>());
  }
  item_price_.resize(options.items + 1);
  for (uint32_t i = 1; i <= options.items; ++i) {
    item_price_[i] = 100 + static_cast<int64_t>(ScrambleKey(i) % 9900);
  }
}

std::vector<TableDef> Tpcc::Tables() const {
  auto log2_for = [](uint64_t n) {
    size_t cap = 1;
    size_t lg = 0;
    const auto need = static_cast<uint64_t>(static_cast<double>(n) * 1.6) + 64;
    while (cap < need) {
      cap <<= 1;
      lg++;
    }
    return lg;
  };
  const uint64_t w = total_warehouses_;
  const uint64_t d = w * options_.districts_per_warehouse;
  const uint64_t c = d * options_.customers_per_district;
  const uint64_t s = w * options_.items;
  return {
      TableDef{kWarehouse, "warehouse", log2_for(w), kWarehouseBytes, 8},
      TableDef{kDistrict, "district", log2_for(d), kDistrictBytes, 8},
      TableDef{kCustomer, "customer", log2_for(c), kCustomerBytes, 16},
      TableDef{kStock, "stock", log2_for(s), kStockBytes, 16},
  };
}

void Tpcc::Load(const LoadFn& load) {
  Rng rng(0xC0FFEE);
  const uint32_t init_orders = options_.initial_orders_per_district;
  // Every distinct initial row is built once and shared by all the keys
  // (and replicas) that start with it; a transaction's write replaces a
  // row, it never edits one in place.
  const Value warehouse = WarehouseRow();
  const Value district = DistrictRow(init_orders + 1);
  const Value customer = CustomerRow(0);
  std::vector<Value> stock;  // indexed by initial quantity, 10..100
  for (int64_t q = 0; q <= 100; ++q) {
    stock.push_back(StockRow(q));
  }
  for (uint64_t w = 1; w <= total_warehouses_; ++w) {
    load(kWarehouse, WKey(w), warehouse);
    for (uint64_t item = 1; item <= options_.items; ++item) {
      load(kStock, SKey(w, item), stock[10 + rng.NextBounded(91)]);
    }
    // Replica chain for the local (B+tree) tables mirrors the Robinhood
    // replication: primary + the next replication-1 nodes. We conservatively
    // populate every node's replica structures for warehouses it may back
    // up; the hook keeps them in sync afterwards.
    for (uint64_t d = 1; d <= options_.districts_per_warehouse; ++d) {
      const uint64_t dkey = DKey(w, d);
      load(kDistrict, dkey, district);
      for (uint64_t c = 1; c <= options_.customers_per_district; ++c) {
        load(kCustomer, CKey(w, d, c), customer);
      }
      for (uint32_t n = 0; n < options_.num_nodes; ++n) {
        locals_[n]->next_o[dkey] = init_orders + 1;
      }
      // Initial order history (primary replica only needs it for scans; we
      // mirror on all nodes so any backup promotion sees the same state).
      for (uint64_t o = 1; o <= init_orders; ++o) {
        const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
        const uint64_t ol_cnt = 5 + rng.NextBounded(6);
        const bool undelivered = o > init_orders * 7 / 10;
        // Each order's row and pack are built once and every node's copy
        // shares them.
        const Value order = OrderRow(c, ol_cnt, !undelivered);
        Value pack = OrderPack(dkey, c, ol_cnt);
        for (uint64_t l = 1; l <= ol_cnt; ++l) {
          const uint64_t item = 1 + rng.NextBounded(options_.items);
          PutOrderLine(pack, l, item, w, 5, item_price_[item] * 5);
        }
        for (uint32_t n = 0; n < options_.num_nodes; ++n) {
          LocalState& ls = *locals_[n];
          ls.orders.Put(OrderKey(dkey, o), order);
          if (undelivered) {
            ls.new_orders.Put(OrderKey(dkey, o), new_order_row_);
          }
          ls.order_lines.Put(OrderKey(dkey, o), pack);
        }
      }
    }
  }
}

uint64_t Tpcc::HomeWarehouse(NodeId coordinator, Rng& rng) const {
  return static_cast<uint64_t>(coordinator) * options_.warehouses_per_node + 1 +
         rng.NextBounded(options_.warehouses_per_node);
}

void Tpcc::NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* req) {
  req->Clear();
  if (options_.new_order_only) {
    BuildNewOrder(coordinator, rng, *req);
    return;
  }
  switch (rng.NextWeighted(options_.mix)) {
    case 0:
      BuildNewOrder(coordinator, rng, *req);
      break;
    case 1:
      BuildPayment(coordinator, rng, *req);
      break;
    case 2:
      BuildOrderStatus(coordinator, rng, *req);
      break;
    case 3:
      BuildDelivery(coordinator, rng, *req);
      break;
    default:
      BuildStockLevel(coordinator, rng, *req);
      break;
  }
}

void Tpcc::BuildNewOrder(NodeId coordinator, Rng& rng, TxnRequest& req) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
  const uint64_t dkey = DKey(w, d);
  const uint64_t n_items = 5 + rng.NextBounded(11);  // 5..15
  static_assert(5 + 10 <= kMaxOrderLines);

  NewOrderLines lines{};
  for (uint64_t i = 0; i < n_items; ++i) {
    NewOrderLine line{};
    line.qty = 1 + rng.NextBounded(10);
    // Distinct (supply, item) pairs so the write set has no duplicates.
    for (int attempt = 0;; ++attempt) {
      line.item = 1 + rng.NextBounded(options_.items);
      if (options_.uniform_remote_items) {
        line.supply = 1 + rng.NextBounded(total_warehouses_);
      } else if (total_warehouses_ > 1 && rng.NextBool(options_.item_remote_prob)) {
        line.supply = 1 + rng.NextBounded(total_warehouses_);
      } else {
        line.supply = w;
      }
      const bool dup =
          std::any_of(lines.at.begin(), lines.at.begin() + lines.n, [&](const NewOrderLine& l) {
            return l.item == line.item && l.supply == line.supply;
          });
      if (!dup || attempt > 20) {
        break;
      }
    }
    lines.at[lines.n++] = line;
  }

  req.tag = kNewOrder;
  req.exec_cost = 800;
  req.external_bytes = static_cast<uint32_t>(16 + 8 * lines.n);
  req.allow_ship = true;
  req.reads.reserve(2 + lines.n);
  req.writes.reserve(1 + lines.n);
  req.reads.push_back({kDistrict, dkey});
  req.reads.push_back({kCustomer, CKey(w, d, c)});
  req.writes.push_back({kDistrict, dkey});
  // Local B+tree work: ORDER / NEW-ORDER / ORDER-LINE entries, replicated
  // to backups via a compact logical record, the order pack.
  Value pack = OrderPack(dkey, c, lines.n);
  for (size_t i = 0; i < lines.n; ++i) {
    const NewOrderLine& l = lines.at[i];
    req.reads.push_back({kStock, SKey(l.supply, l.item)});
    req.writes.push_back({kStock, SKey(l.supply, l.item)});
    PutOrderLine(pack, i + 1, l.item, l.supply, l.qty,
                 item_price_[l.item] * static_cast<int64_t>(l.qty));
  }

  const uint64_t home_w = w;
  req.execute = [lines, home_w](txn::ExecRound& er) {
    // District: bump next_o_id.
    Value dist = (*er.reads)[0].value;
    if (dist.empty()) {
      *er.abort = true;
      return;
    }
    PutU64(dist, 8, GetU64(dist, 8) + 1);
    (*er.writes)[0].value = std::move(dist);
    // Stock rows.
    for (size_t i = 0; i < lines.n; ++i) {
      const auto qty = static_cast<int64_t>(lines.at[i].qty);
      Value s = (*er.reads)[2 + i].value;
      if (s.empty()) {
        *er.abort = true;
        return;
      }
      int64_t q = GetI64(s, 0);
      q = q - qty >= 10 ? q - qty : q - qty + 91;
      PutI64(s, 0, q);
      PutI64(s, 8, GetI64(s, 8) + qty);   // s_ytd
      PutI64(s, 16, GetI64(s, 16) + 1);  // s_order_cnt
      if (lines.at[i].supply != home_w) {
        PutI64(s, 24, GetI64(s, 24) + 1);  // s_remote_cnt
      }
      (*er.writes)[1 + i].value = std::move(s);
    }
  };

  req.local_log_writes.push_back(store::LogWrite{kOrderPack, dkey, 0, pack, false});
  req.host_finish_cost = 3000 + 700 * static_cast<sim::Tick>(lines.n);
  LocalState* ls = locals_[coordinator].get();
  req.host_finish = [this, ls, pack = std::move(pack)] { ApplyOrderPack(*ls, pack); };
}

void Tpcc::BuildPayment(NodeId coordinator, Rng& rng, TxnRequest& req) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  uint64_t cw = w;
  uint64_t cd = d;
  if (total_warehouses_ > 1 && rng.NextBool(options_.payment_remote_prob)) {
    do {
      cw = 1 + rng.NextBounded(total_warehouses_);
    } while (cw == w);
    cd = 1 + rng.NextBounded(options_.districts_per_warehouse);
  }
  const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
  const auto amount = static_cast<int64_t>(1 + rng.NextBounded(5000));

  req.tag = kPayment;
  req.exec_cost = 400;
  req.external_bytes = 24;
  req.allow_ship = true;
  req.reads = {{kWarehouse, WKey(w)}, {kDistrict, DKey(w, d)}, {kCustomer, CKey(cw, cd, c)}};
  req.writes = req.reads;
  req.execute = [amount](txn::ExecRound& er) {
    Value wh = (*er.reads)[0].value;
    Value dist = (*er.reads)[1].value;
    Value cust = (*er.reads)[2].value;
    if (wh.empty() || dist.empty() || cust.empty()) {
      *er.abort = true;
      return;
    }
    PutI64(wh, 0, GetI64(wh, 0) + amount);
    PutI64(dist, 0, GetI64(dist, 0) + amount);
    PutI64(cust, 0, GetI64(cust, 0) - amount);
    PutI64(cust, 8, GetI64(cust, 8) + amount);
    PutI64(cust, 16, GetI64(cust, 16) + 1);
    (*er.writes)[0].value = std::move(wh);
    (*er.writes)[1].value = std::move(dist);
    (*er.writes)[2].value = std::move(cust);
  };

  Value hpack(48, 0);
  PutU64(hpack, 0, DKey(w, d));
  PutU64(hpack, 8, CKey(cw, cd, c));
  PutI64(hpack, 16, amount);
  req.local_log_writes.push_back(store::LogWrite{kHistoryPack, DKey(w, d), 0, hpack, false});
  req.host_finish_cost = 800;
  LocalState* ls = locals_[coordinator].get();
  req.host_finish = [ls] { ls->history_count++; };
}

void Tpcc::BuildOrderStatus(NodeId coordinator, Rng& rng, TxnRequest& req) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
  const uint64_t dkey = DKey(w, d);

  req.tag = kOrderStatus;
  req.exec_cost = 2500;  // B+tree scans dominate
  req.allow_ship = false;
  req.reads = {{kCustomer, CKey(w, d, c)}};
  LocalState* ls = locals_[coordinator].get();
  req.execute = [ls, dkey, c](txn::ExecRound& er) {
    if (er.round > 0) {
      return;
    }
    // Most recent order of this customer: walk back from the newest order.
    auto cur = ls->orders.SeekLast(OrderKey(dkey + 1, 0) - 1);
    int scanned = 0;
    while (cur && (cur->first >> 32) == dkey && scanned < 100) {
      if (GetU64(cur->second, 0) == c) {
        // Read its order lines.
        int64_t total = 0;
        if (auto pack = ls->order_lines.Get(cur->first)) {
          total = OrderTotal(*pack);
        }
        (void)total;
        break;
      }
      scanned++;
      cur = ls->orders.SeekLast(cur->first - 1);
    }
  };
}

void Tpcc::BuildDelivery(NodeId coordinator, Rng& rng, TxnRequest& req) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t dkey = DKey(w, d);
  LocalState* ls = locals_[coordinator].get();

  req.tag = kDelivery;
  req.exec_cost = 2000;
  req.allow_ship = false;  // multi-round, local B+tree access
  // Round 0 finds the oldest undelivered order and adds its customer to
  // the write set; round 1 credits the customer's balance.
  auto scratch = std::make_shared<std::pair<uint64_t, int64_t>>(0, 0);  // {order, sum}
  const uint64_t wq = w;
  const uint64_t dq = d;
  req.execute = [ls, dkey, wq, dq, scratch](txn::ExecRound& er) {
    if (er.round == 0) {
      auto oldest = ls->new_orders.SeekFirst(OrderKey(dkey, 0));
      if (!oldest || (oldest->first >> 32) != dkey) {
        *er.abort = true;  // nothing to deliver
        return;
      }
      const uint64_t o = oldest->first & 0xFFFFFFFFull;
      auto order = ls->orders.Get(OrderKey(dkey, o));
      if (!order) {
        *er.abort = true;
        return;
      }
      const uint64_t c = GetU64(*order, 0);
      auto pack = ls->order_lines.Get(OrderKey(dkey, o));
      scratch->first = o;
      scratch->second = pack ? OrderTotal(*pack) : 0;
      er.add_reads->push_back({kCustomer, CKey(wq, dq, c)});
      er.add_writes->push_back({kCustomer, CKey(wq, dq, c)});
      return;
    }
    Value cust = (*er.reads)[0].value;
    if (cust.empty()) {
      *er.abort = true;
      return;
    }
    PutI64(cust, 0, GetI64(cust, 0) + scratch->second);
    PutI64(cust, 24, GetI64(cust, 24) + 1);  // c_delivery_cnt
    (*er.writes)[0].value = std::move(cust);
  };

  Value dpack(16, 0);
  PutU64(dpack, 0, dkey);
  req.local_log_writes.push_back(store::LogWrite{kDeliveryPack, dkey, 0, dpack, false});
  req.host_finish_cost = 1500;
  req.host_finish = [ls, dpack = std::move(dpack)] { ApplyDeliveryPack(*ls, dpack); };
}

void Tpcc::BuildStockLevel(NodeId coordinator, Rng& rng, TxnRequest& req) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t dkey = DKey(w, d);
  LocalState* ls = locals_[coordinator].get();

  // Collect distinct items from the last 20 orders' order lines, in order
  // and line order (request build happens on the coordinator host, which
  // owns these B+trees).
  const uint64_t next_o = ls->next_o.count(dkey) != 0 ? ls->next_o[dkey] : 1;
  const uint64_t from_o = next_o > 20 ? next_o - 20 : 1;
  std::array<uint64_t, 20> items{};
  size_t n_items = 0;
  ls->order_lines.Scan(OrderKey(dkey, from_o), OrderKey(dkey, next_o) - 1,
                       [&](store::Key, const Value& pack) {
                         for (uint64_t l = 1; l <= GetU64(pack, 16); ++l) {
                           const uint64_t item = GetU64(pack, PackLine(l));
                           if (std::find(items.begin(), items.begin() + n_items, item) ==
                               items.begin() + n_items) {
                             items[n_items++] = item;
                           }
                           if (n_items == items.size()) {
                             return false;
                           }
                         }
                         return true;
                       });

  req.tag = kStockLevel;
  req.exec_cost = 3500;
  req.allow_ship = false;
  req.reads.push_back({kDistrict, dkey});
  for (size_t i = 0; i < n_items; ++i) {
    req.reads.push_back({kStock, SKey(w, items[i])});
  }
  const auto threshold = static_cast<int64_t>(10 + rng.NextBounded(11));
  req.execute = [threshold](txn::ExecRound& er) {
    int low = 0;
    for (size_t i = 1; i < er.reads->size(); ++i) {
      if (!(*er.reads)[i].value.empty() && GetI64((*er.reads)[i].value, 0) < threshold) {
        low++;
      }
    }
    (void)low;
  };
}

void Tpcc::ApplyOrderPack(LocalState& ls, const Value& pack) const {
  const uint64_t dkey = GetU64(pack, 0);
  const uint64_t o = ls.next_o[dkey]++;
  ls.orders.Put(OrderKey(dkey, o), OrderRow(GetU64(pack, 8), GetU64(pack, 16), false));
  ls.new_orders.Put(OrderKey(dkey, o), new_order_row_);
  ls.order_lines.Put(OrderKey(dkey, o), pack);
}

void Tpcc::ApplyDeliveryPack(LocalState& ls, const Value& pack) {
  const uint64_t dkey = GetU64(pack, 0);
  auto oldest = ls.new_orders.SeekFirst(OrderKey(dkey, 0));
  if (!oldest || (oldest->first >> 32) != dkey) {
    return;  // already drained (tolerated on replay)
  }
  ls.new_orders.Erase(oldest->first);
  if (auto order = ls.orders.Get(oldest->first)) {
    Value row = *order;
    PutU64(row, 16, 1);
    ls.orders.Put(oldest->first, std::move(row));
  }
}

std::function<sim::Tick(const store::LogWrite&)> Tpcc::WorkerHook(NodeId node) {
  LocalState* ls = locals_[node].get();
  return [this, ls](const store::LogWrite& w) -> sim::Tick {
    switch (w.table) {
      case kOrderPack: {
        ApplyOrderPack(*ls, w.value);
        const uint64_t cnt = GetU64(w.value, 16);
        return 2000 + 500 * static_cast<sim::Tick>(cnt);
      }
      case kHistoryPack:
        ls->history_count++;
        return 300;
      case kDeliveryPack:
        ApplyDeliveryPack(*ls, w.value);
        return 1200;
      default:
        return 0;
    }
  };
}

}  // namespace xenic::workload
