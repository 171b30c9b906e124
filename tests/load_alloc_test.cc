// Allocation checks for bulk loading: storing a replica object costs no
// heap allocation. Datastore::Load shares the value's block with its
// host-table slot and with the NIC cache; XenicCluster::LoadReplicated
// hands every replica the same block. What remains is amortized growth: a
// NIC index entry's overflow positions once its segment outgrows the
// inline ways, and the host table's overflow buckets.
//
// The values are built before the counted window (building them is the
// workload's cost, not the store's), and the tables are sized the way the
// workloads size theirs: each of six nodes holds half of the keys (its
// shard and the two it backs up), in a table of at least 0.8 slots per key
// for 64-byte values (Retwis) and 1.6 for 312-byte rows (TPC-C's stock).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/store/datastore.h"
#include "src/txn/xenic_cluster.h"
#include "tests/alloc_counter.h"

namespace xenic {
namespace {

constexpr size_t kKeys = 12000;
constexpr uint32_t kNodes = 6;
constexpr double kMaxCallsPerObject = 0.1;

// Table 0 holds 64-byte values inline; table 1 holds 312-byte values,
// which a NIC reads with a second DMA read.
std::vector<store::TableSpec> Tables() {
  return {store::TableSpec{0, "inline", 14, 64, 8, 8},
          store::TableSpec{1, "large", 15, 312, 16, 8}};
}

std::vector<store::Value> Values(size_t size) {
  std::vector<store::Value> out;
  for (size_t k = 0; k < kKeys; ++k) {
    store::Value v(size, static_cast<uint8_t>(k));
    store::PutU64(v, 0, k);
    out.push_back(v);
  }
  return out;
}

TEST(LoadAllocTest, DatastoreLoadStoresAnObjectWithoutAllocating) {
  const std::vector<store::TableSpec> specs = Tables();
  store::Datastore ds(specs, store::NicIndex::Options{});
  for (const auto& spec : specs) {
    const std::vector<store::Value> values = Values(spec.value_size);
    const size_t objects = kKeys / 2;  // one node's share
    const uint64_t before = OperatorNewCalls();
    for (store::Key k = 0; k < objects; ++k) {
      if (!ds.Load(spec.id, k, values[k]).ok()) {
        FAIL() << "load of key " << k << " failed";
      }
    }
    const uint64_t calls = OperatorNewCalls() - before;
    EXPECT_LT(static_cast<double>(calls) / objects, kMaxCallsPerObject)
        << spec.name << ": " << calls << " calls for " << objects << " objects";
    EXPECT_EQ(ds.table(spec.id).size(), objects);
    EXPECT_EQ(ds.index(spec.id).cached_objects(), objects);
  }
}

TEST(LoadAllocTest, LoadReplicatedStoresEveryReplicaWithoutAllocating) {
  txn::HashPartitioner part(kNodes);
  txn::XenicClusterOptions o;
  o.num_nodes = kNodes;
  o.replication = 3;
  o.tables = Tables();
  txn::XenicCluster cluster(o, &part);
  for (const auto& spec : o.tables) {
    const std::vector<store::Value> values = Values(spec.value_size);
    const uint64_t before = OperatorNewCalls();
    for (store::Key k = 0; k < kKeys; ++k) {
      cluster.LoadReplicated(spec.id, k, values[k]);
    }
    const uint64_t calls = OperatorNewCalls() - before;
    const size_t objects = kKeys * o.replication;
    EXPECT_LT(static_cast<double>(calls) / objects, kMaxCallsPerObject)
        << spec.name << ": " << calls << " calls for " << objects << " replica objects";
    size_t stored = 0;
    for (uint32_t n = 0; n < kNodes; ++n) {
      stored += cluster.datastore(n).table(spec.id).size();
    }
    EXPECT_EQ(stored, objects);
  }
}

}  // namespace
}  // namespace xenic
