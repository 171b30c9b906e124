#include "src/workload/tpcc.h"

#include <algorithm>
#include <cassert>

namespace xenic::workload {

namespace {

using store::GetI64;
using store::GetU64;
using store::PutI64;
using store::PutU64;

// Row field offsets (values are byte vectors; fields are u64/i64 slots).
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

// ORDER-LINE b+tree value: [0] item, [8] supply warehouse, [16] quantity,
// [24] amount.
Value OrderLineRow(uint64_t item, uint64_t supply, uint64_t qty, int64_t amount) {
  Value v(32, 0);
  PutU64(v, 0, item);
  PutU64(v, 8, supply);
  PutU64(v, 16, qty);
  PutI64(v, 24, amount);
  return v;
}

// Order-pack logical log record: [0] dkey, [8] c, [16] ol_cnt, then per
// line a 32 B OrderLineRow-shaped block.
Value MakeOrderPack(uint64_t dkey, uint64_t c, const std::vector<Value>& lines) {
  Value v(24 + 32 * lines.size(), 0);
  PutU64(v, 0, dkey);
  PutU64(v, 8, c);
  PutU64(v, 16, lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    std::copy(lines[i].begin(), lines[i].end(), v.begin() + 24 + static_cast<ptrdiff_t>(32 * i));
  }
  return v;
}

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
      part_(this) {
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
  std::vector<uint64_t> line_items;
  for (uint64_t w = 1; w <= total_warehouses_; ++w) {
    load(kWarehouse, WKey(w), WarehouseRow());
    for (uint64_t item = 1; item <= options_.items; ++item) {
      load(kStock, SKey(w, item), StockRow(static_cast<int64_t>(10 + rng.NextBounded(91))));
    }
    // Replica chain for the local (B+tree) tables mirrors the Robinhood
    // replication: primary + the next replication-1 nodes. We conservatively
    // populate every node's replica structures for warehouses it may back
    // up; the hook keeps them in sync afterwards.
    for (uint64_t d = 1; d <= options_.districts_per_warehouse; ++d) {
      const uint64_t dkey = DKey(w, d);
      load(kDistrict, dkey, DistrictRow(init_orders + 1));
      for (uint64_t c = 1; c <= options_.customers_per_district; ++c) {
        load(kCustomer, CKey(w, d, c), CustomerRow(0));
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
        // Each line's item is drawn once, so every node's copy of the
        // order is the same.
        line_items.clear();
        for (uint64_t l = 1; l <= ol_cnt; ++l) {
          line_items.push_back(1 + rng.NextBounded(options_.items));
        }
        for (uint32_t n = 0; n < options_.num_nodes; ++n) {
          LocalState& ls = *locals_[n];
          ls.orders.Put(OrderKey(dkey, o), OrderRow(c, ol_cnt, !undelivered));
          if (undelivered) {
            ls.new_orders.Put(OrderKey(dkey, o), Value(8, 0));
          }
          for (uint64_t l = 1; l <= ol_cnt; ++l) {
            const uint64_t item = line_items[l - 1];
            ls.order_lines.Put(OlKey(dkey, o, l),
                               OrderLineRow(item, w, 5, item_price_[item] * 5));
          }
        }
      }
    }
  }
}

uint64_t Tpcc::HomeWarehouse(NodeId coordinator, Rng& rng) const {
  return static_cast<uint64_t>(coordinator) * options_.warehouses_per_node + 1 +
         rng.NextBounded(options_.warehouses_per_node);
}

TxnRequest Tpcc::NextTxn(NodeId coordinator, Rng& rng) {
  if (options_.new_order_only) {
    return BuildNewOrder(coordinator, rng);
  }
  switch (rng.NextWeighted(options_.mix)) {
    case 0:
      return BuildNewOrder(coordinator, rng);
    case 1:
      return BuildPayment(coordinator, rng);
    case 2:
      return BuildOrderStatus(coordinator, rng);
    case 3:
      return BuildDelivery(coordinator, rng);
    default:
      return BuildStockLevel(coordinator, rng);
  }
}

TxnRequest Tpcc::BuildNewOrder(NodeId coordinator, Rng& rng) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
  const uint64_t dkey = DKey(w, d);
  const uint64_t n_items = 5 + rng.NextBounded(11);  // 5..15

  struct Line {
    uint64_t item;
    uint64_t supply;
    uint64_t qty;
  };
  std::vector<Line> lines;
  for (uint64_t i = 0; i < n_items; ++i) {
    Line line;
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
      const bool dup = std::any_of(lines.begin(), lines.end(), [&](const Line& l) {
        return l.item == line.item && l.supply == line.supply;
      });
      if (!dup || attempt > 20) {
        break;
      }
    }
    lines.push_back(line);
  }

  TxnRequest req;
  req.tag = kNewOrder;
  req.exec_cost = 800;
  req.external_bytes = static_cast<uint32_t>(16 + 8 * lines.size());
  req.allow_ship = true;
  req.reads.push_back({kDistrict, dkey});
  req.reads.push_back({kCustomer, CKey(w, d, c)});
  req.writes.push_back({kDistrict, dkey});
  std::vector<Value> ol_rows;
  for (const auto& l : lines) {
    req.reads.push_back({kStock, SKey(l.supply, l.item)});
    req.writes.push_back({kStock, SKey(l.supply, l.item)});
    ol_rows.push_back(OrderLineRow(l.item, l.supply, l.qty,
                                   item_price_[l.item] * static_cast<int64_t>(l.qty)));
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
    for (size_t i = 0; i < lines.size(); ++i) {
      Value s = (*er.reads)[2 + i].value;
      if (s.empty()) {
        *er.abort = true;
        return;
      }
      int64_t q = GetI64(s, 0);
      q = q - static_cast<int64_t>(lines[i].qty) >= 10
              ? q - static_cast<int64_t>(lines[i].qty)
              : q - static_cast<int64_t>(lines[i].qty) + 91;
      PutI64(s, 0, q);
      PutI64(s, 8, GetI64(s, 8) + static_cast<int64_t>(lines[i].qty));  // s_ytd
      PutI64(s, 16, GetI64(s, 16) + 1);                                  // s_order_cnt
      if (lines[i].supply != home_w) {
        PutI64(s, 24, GetI64(s, 24) + 1);  // s_remote_cnt
      }
      (*er.writes)[1 + i].value = std::move(s);
    }
  };

  // Local B+tree work: ORDER / NEW-ORDER / ORDER-LINE rows, replicated to
  // backups via a compact logical record.
  Value pack = MakeOrderPack(dkey, c, ol_rows);
  req.local_log_writes.push_back(store::LogWrite{kOrderPack, dkey, 0, pack, false});
  req.host_finish_cost = 3000 + 700 * static_cast<sim::Tick>(lines.size());
  LocalState* ls = locals_[coordinator].get();
  req.host_finish = [ls, pack = std::move(pack)] { ApplyOrderPack(*ls, pack); };
  return req;
}

TxnRequest Tpcc::BuildPayment(NodeId coordinator, Rng& rng) {
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

  TxnRequest req;
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
  return req;
}

TxnRequest Tpcc::BuildOrderStatus(NodeId coordinator, Rng& rng) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t c = 1 + rng.NextBounded(options_.customers_per_district);
  const uint64_t dkey = DKey(w, d);

  TxnRequest req;
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
        const uint64_t o = cur->first & 0xFFFFFFFFull;
        const uint64_t cnt = GetU64(cur->second, 8);
        int64_t total = 0;
        for (uint64_t l = 1; l <= cnt; ++l) {
          auto ol = ls->order_lines.Get(OlKey(dkey, o, l));
          if (ol) {
            total += GetI64(*ol, 24);
          }
        }
        (void)total;
        break;
      }
      scanned++;
      cur = ls->orders.SeekLast(cur->first - 1);
    }
  };
  return req;
}

TxnRequest Tpcc::BuildDelivery(NodeId coordinator, Rng& rng) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t dkey = DKey(w, d);
  LocalState* ls = locals_[coordinator].get();

  TxnRequest req;
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
      const uint64_t cnt = GetU64(*order, 8);
      int64_t total = 0;
      for (uint64_t l = 1; l <= cnt; ++l) {
        auto ol = ls->order_lines.Get(OlKey(dkey, o, l));
        if (ol) {
          total += GetI64(*ol, 24);
        }
      }
      scratch->first = o;
      scratch->second = total;
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
  return req;
}

TxnRequest Tpcc::BuildStockLevel(NodeId coordinator, Rng& rng) {
  const uint64_t w = HomeWarehouse(coordinator, rng);
  const uint64_t d = 1 + rng.NextBounded(options_.districts_per_warehouse);
  const uint64_t dkey = DKey(w, d);
  LocalState* ls = locals_[coordinator].get();

  // Collect distinct items from the last 20 orders' order lines (request
  // build happens on the coordinator host, which owns these B+trees).
  const uint64_t next_o = ls->next_o.count(dkey) != 0 ? ls->next_o[dkey] : 1;
  const uint64_t from_o = next_o > 20 ? next_o - 20 : 1;
  std::vector<uint64_t> items;
  ls->order_lines.Scan(OlKey(dkey, from_o, 0), OlKey(dkey, next_o, 0),
                       [&](store::Key, const Value& v) {
                         const uint64_t item = GetU64(v, 0);
                         if (std::find(items.begin(), items.end(), item) == items.end()) {
                           items.push_back(item);
                         }
                         return items.size() < 20;
                       });

  TxnRequest req;
  req.tag = kStockLevel;
  req.exec_cost = 3500;
  req.allow_ship = false;
  req.reads.push_back({kDistrict, dkey});
  for (uint64_t item : items) {
    req.reads.push_back({kStock, SKey(w, item)});
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
  return req;
}

void Tpcc::ApplyOrderPack(LocalState& ls, const Value& pack) {
  const uint64_t dkey = GetU64(pack, 0);
  const uint64_t c = GetU64(pack, 8);
  const uint64_t cnt = GetU64(pack, 16);
  const uint64_t o = ls.next_o[dkey]++;
  ls.orders.Put(OrderKey(dkey, o), OrderRow(c, cnt, false));
  ls.new_orders.Put(OrderKey(dkey, o), Value(8, 0));
  for (uint64_t l = 1; l <= cnt; ++l) {
    Value row(pack.begin() + static_cast<ptrdiff_t>(24 + 32 * (l - 1)),
              pack.begin() + static_cast<ptrdiff_t>(24 + 32 * l));
    ls.order_lines.Put(OlKey(dkey, o, l), std::move(row));
  }
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
  return [ls](const store::LogWrite& w) -> sim::Tick {
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
