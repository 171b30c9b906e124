// Pins the server-side handler NIC cost semantics (DESIGN.md §12). The
// historical code passed `NicOpCost(reads.size() + writes.size())` alongside
// a lambda whose init-captures moved `reads`/`writes` in the same call;
// argument evaluation ran the moves first, so the handler was always charged
// NicOpCost(0) -- the base cost, with no per-key term. The VALIDATE, LOG and
// COMMIT handlers had the same shape (`checks`, `record`, `writes`). Every
// golden transcript encodes that timing, so the cost is now written as an
// explicit NicOpCost(0) in ServeExecute, ServeShipExec, ServeValidate,
// ServeLog and ServeCommit. These tests fail if anyone "fixes" it back: a
// remote request must cost the serving NIC the same core time whether it
// carries one key or six.

#include <gtest/gtest.h>

#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

// Placement helper: find keys whose primary is the wanted node.
std::vector<store::Key> KeysOn(const Partitioner& part, store::NodeId node, size_t count) {
  std::vector<store::Key> out;
  for (store::Key k = 0; out.size() < count; ++k) {
    if (part.PrimaryOf(0, k) == node) {
      out.push_back(k);
    }
  }
  return out;
}

// Remote NIC-core busy time of serving one read-only transaction whose keys
// all live on node 1, submitted at node 0.
sim::Tick RemoteBusyFor(size_t n_keys) {
  XenicClusterOptions o;
  o.num_nodes = 2;
  o.replication = 1;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  HashPartitioner part(2);
  XenicCluster cluster(o, &part);
  const auto keys = KeysOn(part, 1, n_keys);
  for (store::Key k : keys) {
    store::Value v(16, 0);
    cluster.LoadReplicated(0, k, v);
  }
  cluster.StartWorkers();

  TxnRequest req;
  for (store::Key k : keys) {
    req.reads.push_back({0, k});
  }
  req.execute = [](ExecRound&) {};
  bool done = false;
  cluster.node(0).Submit(std::move(req), [&](TxnOutcome out) {
    EXPECT_EQ(out, TxnOutcome::kCommitted);
    done = true;
  });
  for (int i = 0; i < 1000 && !done; ++i) {
    cluster.engine().RunFor(10 * sim::kNsPerUs);
  }
  EXPECT_TRUE(done);
  const sim::Tick busy = cluster.nic(1).nic_cores().busy_time();
  cluster.StopWorkers();
  cluster.engine().Run();
  return busy;
}

TEST(ServeExecuteCostTest, RemoteExecuteChargesBaseCostOnly) {
  const sim::Tick one = RemoteBusyFor(1);
  const sim::Tick six = RemoteBusyFor(6);
  // Combined ops let a single-shard read-only txn commit inside its one
  // EXECUTE round, so the remote NIC busy time (the handler's NicOpCost(0)
  // plus fixed receive/reply costs, none key-dependent) must be identical:
  // a per-key term in the handler would separate the two by 5 * kNicKeyCost.
  EXPECT_EQ(one, six);
  EXPECT_GT(one, 0);
}

TEST(ServeExecuteCostTest, CoordinatorSideStillScalesWithKeys) {
  // Control: the coordinator's own NIC work (building and parsing the
  // combined op) DOES carry the per-key term, so total simulated time is
  // still key-count sensitive -- the pin above is about the serving side
  // only, not a claim that key count is free end to end.
  XenicClusterOptions o;
  o.num_nodes = 2;
  o.replication = 1;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  HashPartitioner part(2);

  auto coord_busy = [&](size_t n_keys) {
    XenicCluster cluster(o, &part);
    const auto keys = KeysOn(part, 1, n_keys);
    for (store::Key k : keys) {
      cluster.LoadReplicated(0, k, store::Value(16, 0));
    }
    cluster.StartWorkers();
    TxnRequest req;
    for (store::Key k : keys) {
      req.reads.push_back({0, k});
    }
    req.execute = [](ExecRound&) {};
    bool done = false;
    cluster.node(0).Submit(std::move(req), [&](TxnOutcome) { done = true; });
    for (int i = 0; i < 1000 && !done; ++i) {
      cluster.engine().RunFor(10 * sim::kNsPerUs);
    }
    EXPECT_TRUE(done);
    const sim::Tick busy = cluster.nic(0).nic_cores().busy_time();
    cluster.StopWorkers();
    cluster.engine().Run();
    return busy;
  };

  EXPECT_GT(coord_busy(6), coord_busy(1));
}

// NIC-core busy time of `server` after one transaction submitted at node 0
// of a 3-node cluster (replication 2, so node 1's backup is node 2). The
// transaction touches `n_keys` keys on node 1 -- read-only, or written
// blind -- plus, for `extra_read`, one read on node 2, which makes a
// read-only transaction validate.
sim::Tick ServerBusyFor(size_t n_keys, bool write, bool extra_read, store::NodeId server) {
  XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  HashPartitioner part(3);
  XenicCluster cluster(o, &part);
  const auto keys = KeysOn(part, 1, n_keys);
  const auto other = KeysOn(part, 2, 1);
  for (store::Key k : keys) {
    cluster.LoadReplicated(0, k, store::Value(16, 0));
  }
  cluster.LoadReplicated(0, other[0], store::Value(16, 0));
  cluster.StartWorkers();

  TxnRequest req;
  for (store::Key k : keys) {
    (write ? req.writes : req.reads).push_back({0, k});
  }
  if (extra_read) {
    req.reads.push_back({0, other[0]});
  }
  req.allow_ship = false;  // the standard EXECUTE/VALIDATE/LOG/COMMIT path
  req.execute = [](ExecRound& er) {
    for (auto& w : *er.writes) {
      w.value = store::Value(16, 1);
    }
  };
  bool done = false;
  cluster.node(0).Submit(std::move(req), [&](TxnOutcome out) {
    EXPECT_EQ(out, TxnOutcome::kCommitted);
    done = true;
  });
  for (int i = 0; i < 1000 && !done; ++i) {
    cluster.engine().RunFor(10 * sim::kNsPerUs);
  }
  EXPECT_TRUE(done);
  cluster.engine().RunFor(50 * sim::kNsPerUs);  // COMMIT acks land after the report
  const sim::Tick busy = cluster.nic(server).nic_cores().busy_time();
  cluster.StopWorkers();
  cluster.engine().Run();
  return busy;
}

TEST(ServeExecuteCostTest, RemoteValidateChargesBaseCostOnly) {
  // Node 1 serves one EXECUTE and one VALIDATE carrying every key's check.
  const sim::Tick one = ServerBusyFor(1, /*write=*/false, /*extra_read=*/true, 1);
  const sim::Tick six = ServerBusyFor(6, /*write=*/false, /*extra_read=*/true, 1);
  EXPECT_EQ(one, six);
  EXPECT_GT(one, 0);
}

TEST(ServeExecuteCostTest, RemoteLogChargesBaseCostOnly) {
  // Node 2, node 1's only backup, serves one LOG record carrying every write.
  const sim::Tick one = ServerBusyFor(1, /*write=*/true, /*extra_read=*/false, 2);
  const sim::Tick six = ServerBusyFor(6, /*write=*/true, /*extra_read=*/false, 2);
  EXPECT_EQ(one, six);
  EXPECT_GT(one, 0);
}

TEST(ServeExecuteCostTest, RemoteCommitChargesBaseCostOnly) {
  // Node 1 serves one EXECUTE (the write locks) and one COMMIT carrying
  // every write.
  const sim::Tick one = ServerBusyFor(1, /*write=*/true, /*extra_read=*/false, 1);
  const sim::Tick six = ServerBusyFor(6, /*write=*/true, /*extra_read=*/false, 1);
  EXPECT_EQ(one, six);
  EXPECT_GT(one, 0);
}

}  // namespace
}  // namespace xenic::txn
