// Workload generator tests: transaction mixes, key distributions, request
// structure, and the TPC-C logical-record application helpers.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/store/robinhood_table.h"
#include "src/workload/tpcc.h"

namespace xenic::workload {
namespace {

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
  Tpcc::Options o;
  o.num_nodes = 3;
  o.warehouses_per_node = 2;
  Tpcc wl(o);
  wl.Load([](store::TableId, store::Key, const store::Value&) {});
  auto dump = [](const btree::BTree& t) {
    std::vector<std::pair<store::Key, store::Value>> rows;
    t.Scan(0, ~store::Key{0}, [&](store::Key k, const store::Value& v) {
      rows.emplace_back(k, v);
      return true;
    });
    return rows;
  };
  const auto orders = dump(wl.local(0).orders);
  const auto lines = dump(wl.local(0).order_lines);
  ASSERT_FALSE(orders.empty());
  ASSERT_GT(lines.size(), orders.size());
  for (store::NodeId n = 1; n < o.num_nodes; ++n) {
    EXPECT_EQ(dump(wl.local(n).orders), orders) << "node " << n;
    EXPECT_EQ(dump(wl.local(n).order_lines), lines) << "node " << n;
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
