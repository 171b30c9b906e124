// A loaded row is one block: the workload's row, every replica's host
// table slot and every replica's NIC cache entry share it, and host and
// NIC reads hand that block back rather than a copy.

#include <gtest/gtest.h>

#include <map>

#include "src/txn/xenic_cluster.h"
#include "src/workload/retwis.h"

namespace xenic {
namespace {

TEST(SlotSharingTest, LoadedRowIsOneBlockInEveryReplicaAndCache) {
  workload::Retwis::Options wo;
  wo.keys_per_node = 200;
  workload::Retwis wl(wo);
  txn::XenicClusterOptions o;
  o.num_nodes = wo.num_nodes;
  o.replication = 3;
  for (const auto& t : wl.Tables()) {
    o.tables.push_back(
        store::TableSpec{t.id, t.name, t.capacity_log2, t.value_size, t.max_displacement});
  }
  txn::XenicCluster cluster(o, &wl.partitioner());
  std::map<store::Key, store::Value> rows;  // the rows the workload handed over
  wl.Load([&](store::TableId t, store::Key k, const store::Value& v) {
    cluster.LoadReplicated(t, k, v);
    if (k % 50 == 0) {
      rows.emplace(k, v);
    }
  });
  ASSERT_FALSE(rows.empty());

  const store::TableId table = workload::Retwis::kStore;
  for (const auto& [key, row] : rows) {
    uint32_t replicas = 0;
    for (uint32_t n = 0; n < cluster.size(); ++n) {
      store::Datastore& ds = cluster.datastore(n);
      const auto slot = ds.table(table).Lookup(key);
      if (!slot.has_value()) {
        continue;
      }
      replicas++;
      EXPECT_EQ(slot->value.data(), row.data()) << "key " << key << " node " << n;
      bool cached = false;
      for (const auto& e : ds.index(table).CachedEntries()) {
        if (e.key == key) {
          cached = true;
          EXPECT_EQ(e.value->data(), row.data()) << "key " << key << " node " << n;
        }
      }
      EXPECT_TRUE(cached) << "key " << key << " node " << n;
    }
    EXPECT_EQ(replicas, o.replication) << "key " << key;
    // The row, three slots and three cache entries.
    EXPECT_EQ(row.use_count(), 1 + 2 * o.replication) << "key " << key;
  }

  // A cache miss reads the host slot and hands back its block.
  const auto& [key, row] = *rows.begin();
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    store::Datastore& ds = cluster.datastore(n);
    if (!ds.table(table).Contains(key)) {
      continue;
    }
    ds.index(table).Invalidate(key);
    store::NicIndex::LookupStats st;
    const auto remote = ds.index(table).LookupRemote(key, &st);
    ASSERT_TRUE(remote.has_value());
    EXPECT_FALSE(st.cache_hit);
    EXPECT_EQ(remote->value.data(), row.data()) << "node " << n;
  }
}

}  // namespace
}  // namespace xenic
