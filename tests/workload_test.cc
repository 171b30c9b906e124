// Workload generator tests: transaction mixes, key distributions, request
// structure, and the TPC-C logical-record application helpers.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/store/robinhood_table.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace xenic::workload {
namespace {

// FNV-1a over everything `count` requests carry that a run reads: their
// fields, key sets and log writes, and what each execute closure writes
// for a fixed image of its reads (read i holds 656 bytes of value i + 1),
// round after round while a round adds keys (the added keys join the
// hash). A request that does not abort then runs its host_finish, so the
// workload state later builders read is the one its commits leave.
struct Fingerprint {
  uint64_t hash = 14695981039346656037ull;
  int later_rounds = 0;  // rounds run because an earlier one added keys
};

// With `recycle`, every request is built into one reused request
// (NextTxnInto), as a closed-loop context rebuilds the request its last
// transaction handed back; otherwise each is a fresh NextTxn.
Fingerprint RequestsFingerprint(Workload& wl, uint32_t nodes, int count, bool recycle) {
  Fingerprint f;
  auto add = [&f](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      f.hash = (f.hash ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  auto add_value = [&](const Value& v) {
    add(v.size());
    for (uint8_t b : v) {
      add(b);
    }
  };
  Rng rng(7);
  TxnRequest req;
  for (int i = 0; i < count; ++i) {
    const auto node = static_cast<NodeId>(i % nodes);
    if (recycle) {
      wl.NextTxnInto(node, rng, &req);
    } else {
      req = wl.NextTxn(node, rng);
    }
    add(req.tag);
    add(req.exec_cost);
    add(req.external_bytes);
    add(req.allow_ship);
    add(req.host_finish_cost);
    for (const auto* set : {&req.reads, &req.writes}) {
      add(set->size());
      for (const auto& k : *set) {
        add(k.table);
        add(k.key);
      }
    }
    for (const auto& w : req.local_log_writes) {
      add(w.table);
      add(w.key);
      add(w.seq);
      add_value(w.value);
      add(w.is_delete);
    }
    std::vector<txn::ReadResult> reads;
    std::vector<txn::WriteIntent> writes;
    std::vector<txn::KeyRef> add_reads;
    std::vector<txn::KeyRef> add_writes;
    bool abort = false;
    for (int round = 0;; ++round) {
      f.later_rounds += round > 0 ? 1 : 0;
      for (size_t r = reads.size(); r < req.reads.size(); ++r) {
        reads.push_back(
            {true, static_cast<store::Seq>(r + 1), Value(656, static_cast<uint8_t>(r + 1))});
      }
      writes.resize(req.writes.size());
      add_reads.clear();
      add_writes.clear();
      txn::ExecRound er{round,   &req.reads,  &reads,      &req.writes,
                        &writes, &add_reads, &add_writes, &abort};
      req.execute(er);
      add(abort);
      add(add_reads.size());
      add(add_writes.size());
      for (const auto* added : {&add_reads, &add_writes}) {
        for (const auto& k : *added) {
          add(k.table);
          add(k.key);
        }
      }
      for (const auto& w : writes) {
        add_value(w.value);
        add(w.is_delete);
      }
      if (abort || (add_reads.empty() && add_writes.empty())) {
        break;
      }
      req.reads.insert(req.reads.end(), add_reads.begin(), add_reads.end());
      req.writes.insert(req.writes.end(), add_writes.begin(), add_writes.end());
    }
    if (!abort && req.host_finish) {
      req.host_finish();
    }
  }
  return f;
}

// Runs both passes, each on a fresh workload from `make` (builders keep
// state: YCSB's read-ratio accumulator, TPC-C's trees), and expects both
// to give `want` and to run the same later rounds. Returns the two
// workloads and the rounds.
template <typename Make>
auto ExpectFingerprintBothWays(Make make, uint32_t nodes, int count, uint64_t want) {
  struct Passes {
    decltype(make()) fresh;
    decltype(make()) recycled;
    int later_rounds = 0;
  };
  Passes p{make(), make()};
  const Fingerprint f = RequestsFingerprint(*p.fresh, nodes, count, false);
  const Fingerprint r = RequestsFingerprint(*p.recycled, nodes, count, true);
  EXPECT_EQ(f.hash, want) << p.fresh->Name() << ", each request built fresh";
  EXPECT_EQ(r.hash, want) << p.recycled->Name() << ", built into one reused request";
  EXPECT_EQ(r.later_rounds, f.later_rounds) << p.recycled->Name();
  p.later_rounds = f.later_rounds;
  return p;
}

// The builders draw the same random numbers in the same order and build
// the same requests as when these fingerprints were recorded, whether each
// request is fresh or rebuilt from the last: a change that moves one shows
// here before it moves a modeled number, and a field a rebuild leaves over
// from the earlier transaction moves the recycled pass's.
TEST(RequestFingerprintTest, RetwisYcsbAndTpccNewOrderAreUnchanged) {
  ExpectFingerprintBothWays(
      [] {
        Retwis::Options ro;
        ro.num_nodes = 3;
        ro.keys_per_node = 1000;
        return std::make_unique<Retwis>(ro);
      },
      3, 2000, 7271276685527464890u);

  ExpectFingerprintBothWays(
      [] {
        Ycsb::Options yo;
        yo.num_nodes = 3;
        yo.keys_per_node = 1000;
        yo.zipf_theta = 0.9;
        return std::make_unique<Ycsb>(yo);
      },
      3, 2000, 3859683478515385547u);

  ExpectFingerprintBothWays(
      [] {
        Tpcc::Options to;
        to.num_nodes = 3;
        to.warehouses_per_node = 2;
        to.customers_per_district = 20;
        to.items = 200;
        to.new_order_only = true;
        to.uniform_remote_items = true;
        return std::make_unique<Tpcc>(to);
      },
      3, 2000, 5391534778992147974u);
}

// Smallbank's six types rebuild one another: a read-only Balance after a
// three-key Amalgamate, a one-key deposit after a two-account payment.
TEST(RequestFingerprintTest, SmallbankIsUnchanged) {
  ExpectFingerprintBothWays(
      [] {
        Smallbank::Options so;
        so.num_nodes = 3;
        so.accounts_per_node = 1000;
        return std::make_unique<Smallbank>(so);
      },
      3, 2000, 1645938476748543517u);
}

using Rows = std::vector<std::pair<store::Key, store::Value>>;

// Every entry of a B+tree, in key order.
Rows RowsOf(const btree::BTree& t) {
  Rows rows;
  t.Scan(0, ~store::Key{0}, [&](store::Key k, const store::Value& v) {
    rows.emplace_back(k, v);
    return true;
  });
  return rows;
}

// Everything a node's local TPC-C state holds: its three trees, its
// history count and its next order ids.
std::tuple<Rows, Rows, Rows, uint64_t, std::map<uint64_t, uint32_t>> LocalStateOf(Tpcc& wl,
                                                                                 NodeId node) {
  const Tpcc::LocalState& ls = wl.local(node);
  return {RowsOf(ls.orders), RowsOf(ls.new_orders), RowsOf(ls.order_lines), ls.history_count,
          std::map<uint64_t, uint32_t>(ls.next_o.begin(), ls.next_o.end())};
}

// The full TPC-C mix on loaded B+trees: StockLevel's read set comes from
// the last 20 orders' lines, OrderStatus and Delivery sum an order's line
// amounts (Delivery's sum lands in the customer row its second round
// writes), and every new order's host_finish feeds the orders that later
// builders scan. Rebuilt into one request, a Payment becomes an
// OrderStatus, a NewOrder a Delivery, and so on; both passes must leave
// every node's local state, which only host_finish writes here, the same.
TEST(RequestFingerprintTest, TpccFullMixOnLoadedTreesIsUnchanged) {
  const auto passes = ExpectFingerprintBothWays(
      [] {
        Tpcc::Options to;
        to.num_nodes = 3;
        to.warehouses_per_node = 2;
        to.customers_per_district = 20;
        to.items = 200;
        auto tpcc = std::make_unique<Tpcc>(to);
        tpcc->Load([](store::TableId, store::Key, const store::Value&) {});
        return tpcc;
      },
      3, 4000, 782751781435643639u);
  EXPECT_GT(passes.later_rounds, 0) << "Deliveries run their second round";
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(LocalStateOf(*passes.recycled, n) == LocalStateOf(*passes.fresh, n))
        << "node " << n;
  }
}

TEST(SmallbankTest, MixMatchesWeights) {
  Smallbank::Options o;
  o.num_nodes = 3;
  o.accounts_per_node = 1000;
  Smallbank wl(o);
  Rng rng(1);
  std::map<uint8_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    counts[wl.NextTxn(0, rng).tag]++;
  }
  EXPECT_NEAR(counts[Smallbank::kBalance], n * 0.15, n * 0.02);
  EXPECT_NEAR(counts[Smallbank::kSendPayment], n * 0.25, n * 0.02);
  EXPECT_NEAR(counts[Smallbank::kAmalgamate], n * 0.15, n * 0.02);
}

TEST(SmallbankTest, BalanceIsReadOnly) {
  Smallbank::Options o;
  o.num_nodes = 3;
  o.accounts_per_node = 1000;
  o.mix = {0, 100, 0, 0, 0, 0};  // Balance only
  Smallbank wl(o);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    auto req = wl.NextTxn(0, rng);
    EXPECT_EQ(req.tag, Smallbank::kBalance);
    EXPECT_EQ(req.reads.size(), 2u);
    EXPECT_TRUE(req.writes.empty());
    // Savings and checking of the SAME account: single shard.
    EXPECT_EQ(req.reads[0].key, req.reads[1].key);
  }
}

TEST(SmallbankTest, HotspotConcentratesAccess) {
  Smallbank::Options o;
  o.num_nodes = 3;
  o.accounts_per_node = 10000;
  o.mix = {0, 0, 100, 0, 0, 0};  // DepositChecking: one key per txn
  Smallbank wl(o);
  Rng rng(3);
  const uint64_t hot = static_cast<uint64_t>(0.04 * static_cast<double>(wl.total_accounts()));
  std::map<store::Key, int> freq;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    freq[wl.NextTxn(0, rng).reads[0].key]++;
  }
  // ~90% of accesses should land on ~4% of keys.
  std::vector<int> counts;
  for (auto& [k, c] : freq) {
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  int64_t hot_hits = 0;
  for (size_t i = 0; i < hot && i < counts.size(); ++i) {
    hot_hits += counts[i];
  }
  EXPECT_GT(static_cast<double>(hot_hits) / n, 0.80);
}

TEST(SmallbankTest, KeysWithinRange) {
  Smallbank::Options o;
  o.num_nodes = 2;
  o.accounts_per_node = 100;
  Smallbank wl(o);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    auto req = wl.NextTxn(0, rng);
    for (const auto& k : req.reads) {
      EXPECT_LT(k.key, wl.total_accounts());
    }
  }
}

TEST(RetwisTest, MixAndKeyCounts) {
  Retwis::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 5000;
  Retwis wl(o);
  Rng rng(5);
  int read_only = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto req = wl.NextTxn(0, rng);
    switch (req.tag) {
      case Retwis::kAddUser:
        EXPECT_EQ(req.reads.size(), 1u);
        EXPECT_EQ(req.writes.size(), 3u);
        break;
      case Retwis::kFollow:
        EXPECT_EQ(req.reads.size(), 2u);
        EXPECT_EQ(req.writes.size(), 2u);
        break;
      case Retwis::kPostTweet:
        EXPECT_EQ(req.reads.size(), 3u);
        EXPECT_EQ(req.writes.size(), 5u);
        break;
      case Retwis::kGetTimeline:
        EXPECT_GE(req.reads.size(), 1u);
        EXPECT_LE(req.reads.size(), 10u);
        EXPECT_TRUE(req.writes.empty());
        read_only++;
        break;
      default:
        FAIL();
    }
  }
  EXPECT_NEAR(read_only, n * 0.5, n * 0.02);  // 50% read-only
}

TEST(RetwisTest, ZipfSkewsPopularity) {
  Retwis::Options o;
  o.num_nodes = 3;
  o.keys_per_node = 50000;
  Retwis wl(o);
  Rng rng(6);
  std::map<store::Key, int> freq;
  for (int i = 0; i < 50000; ++i) {
    auto req = wl.NextTxn(0, rng);
    for (const auto& k : req.reads) {
      freq[k.key]++;
    }
  }
  std::vector<int> counts;
  for (auto& [k, c] : freq) {
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  // The head of the popularity distribution clearly dominates the tail.
  EXPECT_GT(counts[0], 20);
}

TEST(TpccTest, NewOrderStructure) {
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  o.new_order_only = true;
  o.uniform_remote_items = true;
  Tpcc wl(o);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    auto req = wl.NextTxn(1, rng);
    EXPECT_EQ(req.tag, Tpcc::kNewOrder);
    // district + customer + 5..15 stocks read; district + stocks written.
    EXPECT_GE(req.reads.size(), 2u + 5u);
    EXPECT_LE(req.reads.size(), 2u + 15u);
    EXPECT_EQ(req.writes.size(), req.reads.size() - 1);
    EXPECT_EQ(req.reads[0].table, Tpcc::kDistrict);
    EXPECT_EQ(req.reads[1].table, Tpcc::kCustomer);
    EXPECT_FALSE(req.local_log_writes.empty());
    EXPECT_EQ(req.local_log_writes[0].table, Tpcc::kOrderPack);
    // Home warehouse belongs to the coordinator.
    EXPECT_EQ(wl.NodeOfWarehouse(req.reads[0].key / 16), 1u);
  }
}

TEST(TpccTest, UniformRemoteItemsSpreadAcrossCluster) {
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  o.new_order_only = true;
  o.uniform_remote_items = true;
  Tpcc wl(o);
  Rng rng(8);
  std::map<store::NodeId, int> shard_hits;
  for (int i = 0; i < 1000; ++i) {
    auto req = wl.NextTxn(0, rng);
    for (size_t k = 2; k < req.reads.size(); ++k) {
      shard_hits[wl.partitioner().PrimaryOf(Tpcc::kStock, req.reads[k].key)]++;
    }
  }
  // Supplying warehouses uniform across all 3 nodes.
  EXPECT_EQ(shard_hits.size(), 3u);
  for (auto& [n, c] : shard_hits) {
    EXPECT_GT(c, 1000);
  }
}

TEST(TpccTest, StandardModeMostlyLocal) {
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  o.new_order_only = true;
  o.uniform_remote_items = false;
  Tpcc wl(o);
  Rng rng(9);
  int remote_orders = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto req = wl.NextTxn(0, rng);
    bool remote = false;
    for (const auto& k : req.reads) {
      remote |= wl.partitioner().PrimaryOf(k.table, k.key) != 0;
    }
    remote_orders += remote ? 1 : 0;
  }
  // ~1% per item x ~10 items => ~10% remote new-orders (paper 5.3).
  EXPECT_NEAR(static_cast<double>(remote_orders) / n, 0.10, 0.05);
}

TEST(TpccTest, LoadMirrorsTheSameOrdersOnEveryNode) {
  // Load fills every node's order history so a promoted backup sees the
  // primary's state: each node must hold the same orders and order lines.
  // An order's lines are one entry, its order pack, under the order's key,
  // and every node's mirror shares the pack's block.
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  Tpcc wl(o);
  wl.Load([](store::TableId, store::Key, const store::Value&) {});
  const Rows orders = RowsOf(wl.local(0).orders);
  const Rows lines = RowsOf(wl.local(0).order_lines);
  ASSERT_FALSE(orders.empty());
  ASSERT_EQ(lines.size(), orders.size());
  for (size_t i = 0; i < orders.size(); ++i) {
    const uint64_t ol_cnt = store::GetU64(orders[i].second, 8);
    ASSERT_EQ(lines[i].first, orders[i].first);
    EXPECT_EQ(store::GetU64(lines[i].second, 16), ol_cnt) << "order " << i;
    EXPECT_EQ(lines[i].second.size(), 24 + 32 * ol_cnt) << "order " << i;
  }
  for (store::NodeId n = 1; n < o.num_nodes; ++n) {
    EXPECT_EQ(RowsOf(wl.local(n).orders), orders) << "node " << n;
    const Rows mirror = RowsOf(wl.local(n).order_lines);
    EXPECT_EQ(mirror, lines) << "node " << n;
    for (size_t i = 0; i < mirror.size() && i < lines.size(); ++i) {
      EXPECT_EQ(mirror[i].second.data(), lines[i].second.data()) << "node " << n << " order " << i;
    }
  }
}

TEST(TpccTest, FullMixProportions) {
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  Tpcc wl(o);
  Rng rng(10);
  std::map<uint8_t, int> counts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    counts[wl.NextTxn(0, rng).tag]++;
  }
  EXPECT_NEAR(counts[Tpcc::kNewOrder], n * 0.45, n * 0.02);
  EXPECT_NEAR(counts[Tpcc::kPayment], n * 0.43, n * 0.02);
  EXPECT_NEAR(counts[Tpcc::kDelivery], n * 0.04, n * 0.01);
  EXPECT_TRUE(wl.CountsForThroughput(Tpcc::kNewOrder));
  EXPECT_FALSE(wl.CountsForThroughput(Tpcc::kPayment));
}

TEST(TpccTest, OrderPackApplication) {
  Tpcc::Options o;
  o.num_nodes = 2;
  o.warehouses_per_node = 1;
  o.initial_orders_per_district = 0;
  Tpcc wl(o);
  auto hook = wl.WorkerHook(0);

  // Build a pack via a generated new-order request and apply it.
  Rng rng(11);
  auto req = wl.NextTxn(0, rng);
  while (req.tag != Tpcc::kNewOrder) {
    req = wl.NextTxn(0, rng);
  }
  const auto& pack = req.local_log_writes[0];
  const uint64_t dkey = pack.key;
  const uint32_t before = wl.local(0).next_o[dkey];
  const sim::Tick cost = hook(pack);
  EXPECT_GT(cost, 0u);
  EXPECT_EQ(wl.local(0).next_o[dkey], before + 1);
  EXPECT_TRUE(wl.local(0).orders.Contains(Tpcc::OrderKey(dkey, before)));
  EXPECT_TRUE(wl.local(0).new_orders.Contains(Tpcc::OrderKey(dkey, before)));
  // The order's lines are the pack itself: the entry shares its block.
  const auto lines = wl.local(0).order_lines.Get(Tpcc::OrderKey(dkey, before));
  ASSERT_TRUE(lines.has_value());
  EXPECT_EQ(lines->data(), pack.value.data());
  // So does the coordinator's: its host_finish applies the same pack.
  req.host_finish();
  const auto coordinator_lines = wl.local(0).order_lines.Get(Tpcc::OrderKey(dkey, before + 1));
  ASSERT_TRUE(coordinator_lines.has_value());
  EXPECT_EQ(coordinator_lines->data(), pack.value.data());
}

TEST(TpccTest, DeliveryPackPopsOldest) {
  Tpcc::Options o;
  o.num_nodes = 2;
  o.warehouses_per_node = 1;
  o.initial_orders_per_district = 10;
  Tpcc wl(o);
  wl.Load([](store::TableId, store::Key, const store::Value&) {});  // populate B+trees
  // Pre-populated: orders 8..10 are undelivered (the last 30%).
  auto hook = wl.WorkerHook(0);
  const uint64_t dkey = Tpcc::DKey(1, 1);
  const size_t before = wl.local(0).new_orders.size();
  ASSERT_GT(before, 0u);
  store::Value dpack(16, 0);
  store::PutU64(dpack, 0, dkey);
  hook(store::LogWrite{Tpcc::kDeliveryPack, dkey, 0, dpack, false});
  EXPECT_EQ(wl.local(0).new_orders.size(), before - 1);
}

TEST(TpccTest, TableSizesCoverRows) {
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 4;
  o.items = 500;
  Tpcc wl(o);
  auto tables = wl.Tables();
  ASSERT_EQ(tables.size(), 4u);
  EXPECT_EQ(tables[2].value_size, Tpcc::kCustomerBytes);
  EXPECT_GT(tables[2].value_size, store::kInlineValueLimit);  // large-object path
  EXPECT_GT(tables[3].value_size, store::kInlineValueLimit);
  // Stock table capacity >= total stock rows.
  EXPECT_GE(size_t{1} << tables[3].capacity_log2,
            static_cast<size_t>(wl.total_warehouses()) * 500);
}

}  // namespace
}  // namespace xenic::workload
