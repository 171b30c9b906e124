// Request-slot lifetimes (XenicNode): every in-flight EXECUTE, VALIDATE,
// LOG and COMMIT request is parked in a slot owned by its sender, and every
// path that drops a request must free that slot. Each test drives one drop
// path -- a server crash with requests in flight, a crashed coordinator
// whose sends the transport discards, a hot-key remote park that times
// out, a WAIT_DIE park whose coordinator crashes -- and then checks that no
// node still holds a request, append or DMA fan-in slot once the cluster
// has quiesced. The chaos run applies the same audit to live nodes.
//
// A last test covers coordinator state: a read-only distributed
// transaction frees its TxnState when it commits.

#include <gtest/gtest.h>

#include <vector>

#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

constexpr sim::Tick kQuiesce = 500 * sim::kNsPerUs;

std::vector<store::Key> KeysOn(const Partitioner& part, store::NodeId node, size_t count,
                               store::Key from = 0) {
  std::vector<store::Key> out;
  for (store::Key k = from; out.size() < count; ++k) {
    if (part.PrimaryOf(0, k) == node) {
      out.push_back(k);
    }
  }
  return out;
}

XenicClusterOptions Options(uint32_t nodes, uint32_t replication) {
  XenicClusterOptions o;
  o.num_nodes = nodes;
  o.replication = replication;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  return o;
}

void Load(XenicCluster& c, const std::vector<store::Key>& keys) {
  for (store::Key k : keys) {
    c.LoadReplicated(0, k, store::Value(16, 0));
  }
}

// A blind read-modify-write of `keys`.
TxnRequest Rmw(const std::vector<store::Key>& keys) {
  TxnRequest req;
  for (store::Key k : keys) {
    req.reads.push_back({0, k});
    req.writes.push_back({0, k});
  }
  req.allow_ship = false;
  req.execute = [](ExecRound& er) {
    for (auto& w : *er.writes) {
      w.value = store::Value(16, 1);
    }
  };
  return req;
}

void ExpectNoParkedSlots(XenicCluster& c) {
  for (store::NodeId n = 0; n < c.size(); ++n) {
    const XenicNode::ParkedSlots p = c.node(n).parked_slots();
    EXPECT_EQ(p.requests, 0u) << "node " << n;
    EXPECT_EQ(p.appends, 0u) << "node " << n;
    EXPECT_EQ(p.fan_ins, 0u) << "node " << n;
  }
}

// Submit `count` read-write transactions at `coord`, each over one key on
// every shard in `shards`.
void SubmitSpread(XenicCluster& c, const Partitioner& part, store::NodeId coord,
                  const std::vector<store::NodeId>& shards, int count) {
  for (int i = 0; i < count; ++i) {
    std::vector<store::Key> keys;
    for (store::NodeId s : shards) {
      keys.push_back(KeysOn(part, s, 1, static_cast<store::Key>(i * 64))[0]);
    }
    Load(c, keys);
    c.node(coord).Submit(Rmw(keys), [](TxnOutcome) {});
  }
}

TEST(RequestSlotTest, ServerCrashWithRequestsInFlightFreesTheirSlots) {
  HashPartitioner part(3);
  XenicCluster c(Options(3, 2), &part);
  c.StartWorkers();
  SubmitSpread(c, part, 0, {1, 2}, 24);
  // Stop while node 0 has requests at node 1: on the wire, in its NIC
  // queues, and between DMA reads.
  c.engine().RunFor(3 * sim::kNsPerUs);
  ASSERT_GT(c.node(0).parked_slots().requests, 0u);
  c.node(1).Crash();
  c.engine().RunFor(kQuiesce);
  c.StopWorkers();
  c.engine().Run();
  ExpectNoParkedSlots(c);
}

TEST(RequestSlotTest, CrashedCoordinatorFreesItsDroppedSends) {
  HashPartitioner part(3);
  XenicCluster c(Options(3, 2), &part);
  c.StartWorkers();
  SubmitSpread(c, part, 0, {1, 2}, 24);
  c.engine().RunFor(3 * sim::kNsPerUs);
  ASSERT_GT(c.node(0).parked_slots().requests, 0u);
  const uint64_t sent_before = c.node(0).stats().messages;
  // From here on the transport discards every send of node 0 -- the
  // VALIDATE, LOG and COMMIT rounds its in-flight replies would start --
  // together with the request slot each one holds.
  c.node(0).Crash();
  c.engine().RunFor(kQuiesce);
  c.StopWorkers();
  c.engine().Run();
  EXPECT_EQ(c.node(0).stats().messages, sent_before);
  ExpectNoParkedSlots(c);
}

TEST(RequestSlotTest, HotKeyRemoteParkTimeoutFreesTheSlot) {
  HashPartitioner part(2);
  XenicClusterOptions o = Options(2, 1);
  o.features.hot_key_fastpath = true;
  XenicCluster c(o, &part);
  const store::Key hot = KeysOn(part, 1, 1)[0];
  Load(c, {hot});
  c.StartWorkers();
  // A lock nobody will release through the node (as after a recovery
  // sweep): every EXECUTE on `hot` conflicts, the sketch flags the key,
  // and the next request parks until its timeout denies it.
  const TxnId stranger = store::MakeTxnId(1, 1ull << 30);
  ASSERT_TRUE(c.datastore(1).index(0).AcquireLock(hot, stranger).ok());
  int finished = 0;
  for (int i = 0; i < 12; ++i) {
    c.node(0).Submit(Rmw({hot}), [&](TxnOutcome out) {
      EXPECT_EQ(out, TxnOutcome::kAborted);
      finished++;
    });
    c.engine().RunFor(5 * sim::kNsPerUs);
  }
  c.engine().RunFor(kQuiesce);
  EXPECT_EQ(finished, 12);
  EXPECT_GT(c.node(1).stats().hot_remote_parks, 0u);
  c.datastore(1).index(0).ReleaseLock(hot, stranger);
  c.StopWorkers();
  c.engine().Run();
  ExpectNoParkedSlots(c);
}

TEST(RequestSlotTest, WaitDieParkWhoseCoordinatorCrashesFreesTheSlot) {
  HashPartitioner part(3);
  XenicClusterOptions o = Options(3, 2);
  o.features.cc = CcPolicyKind::kWaitDie;
  XenicCluster c(o, &part);
  const store::Key key = KeysOn(part, 1, 1)[0];
  Load(c, {key});
  c.StartWorkers();
  // A much younger holder: under WAIT_DIE the older requester parks.
  const TxnId younger = store::MakeTxnId(2, 1ull << 30);
  ASSERT_TRUE(c.datastore(1).index(0).AcquireLock(key, younger).ok());
  c.node(0).Submit(Rmw({key}), [](TxnOutcome) {});
  c.engine().RunFor(10 * sim::kNsPerUs);
  ASSERT_GT(c.node(1).stats().cc_waits, 0u);
  ASSERT_EQ(c.node(0).parked_slots().requests, 1u);
  // The parked request's coordinator dies; the park's timeout finds it
  // gone and drops the request.
  c.node(0).Crash();
  c.engine().RunFor(kQuiesce);
  c.datastore(1).index(0).ReleaseLock(key, younger);
  c.StopWorkers();
  c.engine().Run();
  ExpectNoParkedSlots(c);
}

TEST(RequestSlotTest, ReadOnlyDistributedTxnsFreeTheirState) {
  HashPartitioner part(3);
  XenicCluster c(Options(3, 2), &part);
  const auto on1 = KeysOn(part, 1, 4);
  const auto on2 = KeysOn(part, 2, 4);
  Load(c, on1);
  Load(c, on2);
  c.StartWorkers();
  int committed = 0;
  auto read = [&](std::vector<KeyRef> keys) {
    TxnRequest req;
    req.reads = std::move(keys);
    req.execute = [](ExecRound&) {};
    c.node(0).Submit(std::move(req), [&](TxnOutcome out) {
      EXPECT_EQ(out, TxnOutcome::kCommitted);
      committed++;
    });
  };
  for (int i = 0; i < 4; ++i) {
    // Single shard: commits on its EXECUTE snapshot, with no VALIDATE.
    read({{0, on1[i]}});
    // Two shards: commits once its VALIDATE round succeeds.
    read({{0, on1[i]}, {0, on2[i]}});
  }
  c.engine().RunFor(kQuiesce);
  EXPECT_EQ(committed, 8);
  EXPECT_EQ(c.node(0).live_txns(), 0u);
  c.StopWorkers();
  c.engine().Run();
  ExpectNoParkedSlots(c);
}

}  // namespace
}  // namespace xenic::txn
