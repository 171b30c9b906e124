// Allocation checks for the simulator's hot paths: resource grants,
// SmartNIC DMA, PCIe crossings and Ethernet frames, and RDMA verbs, which
// must not allocate at all; and the remote transaction rounds of XenicNode
// and of BaselineNode in each mode, whose remaining allocations are the
// data a transaction carries. XenicPoolTest checks what pooling Xenic's
// coordinator states must keep: a finished transaction's handle stops
// resolving once its slot serves the next one, a crashed coordinator's
// states keep resolving, a shipped execution whose transaction finished is
// dropped, and the reported-commit bitmap answers for the node's own ids
// only.
//
// This executable replaces the global operator new with a counting one
// (alloc_counter.h). Each test first runs its scenario a few times, which
// sizes the components' slot tables, the frame pool and the engine's
// calendar wheel, and then runs it once more inside a counted window. The callbacks under
// test capture at most 32 bytes, so they stay inline in SmallCallback.
// gtest assertions allocate, so they stay outside the counted window.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baseline/baseline_cluster.h"
#include "src/nicmodel/rdma_nic.h"
#include "src/nicmodel/smart_nic.h"
#include "src/sim/resource.h"
#include "src/store/datastore.h"
#include "src/txn/xenic_cluster.h"
#include "tests/alloc_counter.h"

namespace xenic {
namespace {

using sim::Engine;
using sim::Tick;

constexpr int kWarmupRounds = 3;

// Give every calendar-wheel bucket and the overflow heap room for
// `per_tick` events per tick, so the counted round never grows an engine
// vector wherever the wheel window sits. Requires a fresh engine: the first
// window fills every bucket, the second passes through the overflow heap.
void PrimeWheel(Engine& e, size_t per_tick = 16) {
  for (Tick t = 0; t < 2 * sim::CalendarQueue::kWheelSize; ++t) {
    for (size_t i = 0; i < per_tick; ++i) {
      e.ScheduleAt(e.now() + t, [] {});
    }
  }
  e.Run();
}

// Warm `round` up, then return the operator new calls of one more round.
template <typename Round>
uint64_t AllocsAfterWarmup(Round&& round) {
  for (int i = 0; i < kWarmupRounds; ++i) {
    round();
  }
  const uint64_t before = OperatorNewCalls();
  round();
  return OperatorNewCalls() - before;
}

TEST(HotPathAllocTest, ResourceGrantsImmediateAndQueued) {
  Engine e;
  PrimeWheel(e);
  sim::Resource r(&e, "cores", 3);
  const Tick services[] = {10, 25, 5, 40, 15, 30, 20, 35};
  uint64_t done = 0;
  const uint64_t allocs = AllocsAfterWarmup([&] {
    // Three grants start at once; the other five queue.
    for (Tick s : services) {
      r.Submit(s, [&done] { done++; });
    }
    e.Run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 8u * (kWarmupRounds + 1));
  EXPECT_EQ(r.jobs_started(), done);
}

struct LioFixture {
  LioFixture() : fabric(&engine, model, 3) { PrimeWheel(engine); }
  Engine engine;
  net::PerfModel model;
  nicmodel::SmartNicFabric fabric;
};

void ExpectDmaAllocFree(bool async_batching) {
  LioFixture f;
  nicmodel::SmartNic& nic = f.fabric.node(0);
  nic.features().async_dma_batching = async_batching;
  uint64_t done = 0;
  const uint64_t allocs = AllocsAfterWarmup([&] {
    for (int i = 0; i < 4; ++i) {
      nic.DmaRead(256, [&done] { done++; });
      nic.DmaWrite(64, [&done] { done++; });
    }
    f.engine.Run();
  });
  EXPECT_EQ(allocs, 0u) << "async_dma_batching=" << async_batching;
  EXPECT_EQ(done, 8u * (kWarmupRounds + 1));
}

TEST(HotPathAllocTest, DmaAsyncBatched) { ExpectDmaAllocFree(true); }

TEST(HotPathAllocTest, DmaBlockingUnbatched) { ExpectDmaAllocFree(false); }

TEST(HotPathAllocTest, PcieCrossings) {
  LioFixture f;
  nicmodel::SmartNic& nic = f.fabric.node(0);
  uint64_t done = 0;
  const uint64_t allocs = AllocsAfterWarmup([&] {
    for (int i = 0; i < 4; ++i) {
      nic.HostToNic(128, [&done] { done++; });
      nic.NicToHost(128, [&done] { done++; });
    }
    f.engine.Run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 8u * (kWarmupRounds + 1));
}

TEST(HotPathAllocTest, NicSendBurstToOneDestination) {
  LioFixture f;
  uint64_t delivered = 0;
  const uint64_t allocs = AllocsAfterWarmup([&] {
    // 10 x 200 B overflows one 1500 B frame: one MTU flush, then the
    // batch-window flush carries the rest.
    for (int i = 0; i < 10; ++i) {
      f.fabric.node(0).NicSend(1, 200, [&delivered] { delivered++; });
    }
    f.engine.Run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 10u * (kWarmupRounds + 1));
  EXPECT_EQ(f.fabric.node(0).frames_sent(), 2u * (kWarmupRounds + 1));
}

struct RdmaFixture {
  RdmaFixture() {
    PrimeWheel(engine);
    for (int i = 0; i < 2; ++i) {
      cores.push_back(std::make_unique<sim::Resource>(&engine, "host", model.host_threads));
      ptrs.push_back(cores.back().get());
    }
    fabric = std::make_unique<nicmodel::RdmaFabric>(&engine, model, ptrs);
  }
  Engine engine;
  net::PerfModel model;
  std::vector<std::unique_ptr<sim::Resource>> cores;
  std::vector<sim::Resource*> ptrs;
  std::unique_ptr<nicmodel::RdmaFabric> fabric;
};

TEST(HotPathAllocTest, RdmaReadWriteRpcRoundTrips) {
  RdmaFixture f;
  nicmodel::RdmaNic& nic = f.fabric->node(0);
  uint64_t done = 0;
  uint64_t at_target = 0;
  const uint64_t allocs = AllocsAfterWarmup([&] {
    nic.Read(1, 256, [&done] { done++; });
    nic.Read(1, 64, [&at_target] { at_target++; }, [&done] { done++; });
    nic.Write(1, 32, [&done] { done++; });
    nic.Write(1, 32, [&at_target] { at_target++; }, [&done] { done++; });
    nic.Rpc(1, 64, 128, 200, [&at_target] { at_target++; }, [&done] { done++; });
    f.engine.Run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 5u * (kWarmupRounds + 1));
  EXPECT_EQ(at_target, 3u * (kWarmupRounds + 1));
}

// --- txn layer: the coordinators' EXECUTE, VALIDATE, LOG and COMMIT rounds

txn::XenicClusterOptions XenicOptions(uint32_t nodes, uint32_t replication) {
  txn::XenicClusterOptions o;
  o.num_nodes = nodes;
  o.replication = replication;
  o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
  return o;
}

baseline::BaselineClusterOptions BaselineOptions(baseline::BaselineMode mode) {
  baseline::BaselineClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.mode = mode;
  o.tables = {baseline::BaselineStore::TableSpec{0, 10, 16}};
  return o;
}

// A cluster (txn::XenicCluster or baseline::BaselineCluster) whose node 0
// coordinates the transactions under test.
template <typename Cluster>
struct TxnFixture {
  template <typename Options>
  explicit TxnFixture(const Options& o) : part(o.num_nodes) {
    cluster = std::make_unique<Cluster>(o, &part);
    PrimeWheel(cluster->engine());
    cluster->StartWorkers();
  }
  ~TxnFixture() {
    cluster->StopWorkers();
    cluster->engine().Run();
  }

  // Keys whose primary is `node`, loaded on every replica.
  std::vector<store::Key> LoadOn(store::NodeId node, size_t count) {
    std::vector<store::Key> out;
    for (store::Key k = 0; out.size() < count; ++k) {
      if (part.PrimaryOf(0, k) == node) {
        cluster->LoadReplicated(0, k, store::Value(16, 0));
        out.push_back(k);
      }
    }
    return out;
  }

  // Operator new calls of one transaction submitted at node 0 and run
  // until it and its commit round (acks, log applies) have finished. The
  // request and the callback are built outside the counted window. Taken
  // as the minimum of three runs: a growing container now and then
  // reallocates (Xenic's reported-commit bitmap gains a word every 64
  // commits, each backup's applied-record index grows).
  uint64_t Allocs(const txn::TxnRequest& req) {
    uint64_t best = ~uint64_t{0};
    for (int i = 0; i < 3; ++i) {
      txn::TxnRequest r = req;
      bool committed = false;
      txn::CommitCallback done = [&committed](txn::TxnResult res) {
        committed = res.outcome == txn::TxnOutcome::kCommitted;
      };
      const uint64_t before = OperatorNewCalls();
      cluster->node(0).Submit(std::move(r), std::move(done));
      cluster->engine().RunFor(100 * sim::kNsPerUs);
      best = std::min(best, OperatorNewCalls() - before);
      EXPECT_TRUE(committed);
    }
    return best;
  }

  txn::HashPartitioner part;
  std::unique_ptr<Cluster> cluster;
};

using XenicFixture = TxnFixture<txn::XenicCluster>;
using BaselineFixture = TxnFixture<baseline::BaselineCluster>;

txn::TxnRequest ReadOnly(const std::vector<store::Key>& keys) {
  txn::TxnRequest req;
  for (store::Key k : keys) {
    req.reads.push_back({0, k});
  }
  req.execute = [](txn::ExecRound&) {};
  return req;
}

TEST(HotPathAllocTest, RemoteReadKeyAllocatesNothing) {
  // One EXECUTE round at node 1 that commits on its snapshot. Per read key
  // the server shares the value's block out of its NIC index, and the
  // reply moves that handle into the coordinator's read set, so another
  // key costs no allocation. Everything else -- the request slot's
  // vectors, the DMA fan-in, the reply -- is reused.
  XenicFixture f(XenicOptions(2, 1));
  const std::vector<store::Key> keys = f.LoadOn(1, 4);
  for (int i = 0; i < kWarmupRounds; ++i) {
    for (size_t n = 1; n <= keys.size(); ++n) {
      f.Allocs(ReadOnly({keys.begin(), keys.begin() + static_cast<ptrdiff_t>(n)}));
    }
  }
  uint64_t prev = f.Allocs(ReadOnly({keys[0]}));
  for (size_t n = 2; n <= keys.size(); ++n) {
    const uint64_t cur =
        f.Allocs(ReadOnly({keys.begin(), keys.begin() + static_cast<ptrdiff_t>(n)}));
    EXPECT_EQ(cur, prev) << n << " keys";
    prev = cur;
  }
}

// A read-modify-write of one key on each of nodes 1 and 2, coordinated
// by node 0.
template <typename Fixture>
txn::TxnRequest TwoShardReadWrite(Fixture& f) {
  const store::Key a = f.LoadOn(1, 1)[0];
  const store::Key b = f.LoadOn(2, 1)[0];
  txn::TxnRequest req;
  req.reads = {{0, a}, {0, b}};
  req.writes = {{0, a}, {0, b}};
  req.allow_ship = false;
  req.execute = [](txn::ExecRound& er) {
    for (auto& w : *er.writes) {
      w.value = store::Value(16, 1);
    }
  };
  for (int i = 0; i < kWarmupRounds; ++i) {
    f.Allocs(req);
  }
  return req;
}

TEST(HotPathAllocTest, TwoShardReadWriteTxnAllocationBudget) {
  // Replication 2: two EXECUTEs, one LOG per shard to its backup, two
  // COMMITs. What still allocates is the data the transaction carries, not
  // the protocol: the two values the transaction writes. Each backup's
  // applied-record mark is a bit in a page its index already holds, and
  // the commit log a ring whose slots are reused. The TxnState comes from
  // the node's pool with its key sets, locked-shard list and ack set, and
  // continuations hold its handle; the outcome report is parked in a
  // node-owned slot and the reported commit is a bit. No value is copied:
  // reads, LOG and COMMIT records and the pending index share the blocks.
  // Each LOG record and COMMIT write set is built in its request slot, and
  // the server's append moves the writes into its log's write store, so
  // the slot keeps its vector; the pending index holds each write in a
  // slot of its flat table.
  XenicFixture f(XenicOptions(3, 2));
  const txn::TxnRequest req = TwoShardReadWrite(f);
  EXPECT_LE(f.Allocs(req), 2u);
}

// A read-modify-write of `a` and `b` that the coordinator may ship.
txn::TxnRequest ShippableReadWrite(store::Key a, store::Key b) {
  txn::TxnRequest req;
  req.reads = {{0, a}, {0, b}};
  req.writes = {{0, a}, {0, b}};
  req.execute = [](txn::ExecRound& er) {
    for (auto& w : *er.writes) {
      w.value = store::Value(16, 1);
    }
  };
  return req;
}

TEST(HotPathAllocTest, ShippedTwoShardReadWriteTxnAllocationBudget) {
  // The multi-hop shipped path (paper 4.2.3): a read-modify-write of a key
  // on the coordinator and one on node 1 locks the local key, ships the
  // execution to node 1, which locks, reads, executes and sends the LOG
  // records, and commits like the EXECUTE pipeline. The executor parks the
  // shipped execution in a slot it owns and the coordinator's home keys
  // are node-owned scratch, so the same data allocates as above: the two
  // written values.
  XenicFixture f(XenicOptions(3, 2));
  const store::Key a = f.LoadOn(0, 1)[0];
  const store::Key b = f.LoadOn(1, 1)[0];
  const txn::TxnRequest req = ShippableReadWrite(a, b);
  for (int i = 0; i < kWarmupRounds; ++i) {
    f.Allocs(req);
  }
  const uint64_t shipped = f.cluster->node(0).stats().shipped_multihop;
  EXPECT_LE(f.Allocs(req), 2u);
  EXPECT_EQ(f.cluster->node(0).stats().shipped_multihop, shipped + 3);
}

// --- Xenic's pooled coordinator states and reported-commit bitmap

TEST(XenicPoolTest, FinishedTxnStopsResolvingOnceItsStateIsReused) {
  // One transaction at a time, so each submission takes the state the last
  // one gave back: Submit allocates nothing, and the finished transaction
  // no longer resolves although its slot now serves the next one (what a
  // continuation holding its stale handle then does is the next tests').
  XenicFixture f(XenicOptions(3, 2));
  const txn::TxnRequest req = TwoShardReadWrite(f);
  txn::XenicNode& node = f.cluster->node(0);
  auto done = [](txn::TxnResult) {};
  txn::TxnRequest r = req;
  const store::TxnId first = node.Submit(std::move(r), done);
  const std::optional<txn::TxnHandle> stale = node.HandleOf(first);
  ASSERT_TRUE(stale.has_value());
  f.cluster->engine().RunFor(100 * sim::kNsPerUs);
  EXPECT_FALSE(node.HandleOf(first).has_value());
  EXPECT_EQ(node.live_txns(), 0u);

  r = req;
  txn::CommitCallback cb = done;
  const uint64_t before = OperatorNewCalls();
  const store::TxnId second = node.Submit(std::move(r), std::move(cb));
  const uint64_t allocs = OperatorNewCalls() - before;
  EXPECT_EQ(allocs, 0u);
  const std::optional<txn::TxnHandle> h = node.HandleOf(second);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->slot, stale->slot);
  EXPECT_FALSE(node.HandleOf(first).has_value());
  EXPECT_EQ(node.live_txns(), 1u);
  f.cluster->engine().RunFor(100 * sim::kNsPerUs);
  EXPECT_FALSE(node.HandleOf(second).has_value());
  EXPECT_EQ(node.live_txns(), 0u);
}

// Run until `node` has sent its first shipped execution.
void RunUntilShipped(sim::Engine& e, txn::XenicNode& node) {
  while (node.stats().by_type.MsgCount(net::MsgType::kShipExec) == 0 &&
         e.now() < 100 * sim::kNsPerUs) {
    e.RunFor(10);
  }
  ASSERT_EQ(node.stats().by_type.MsgCount(net::MsgType::kShipExec), 1u);
}

TEST(XenicPoolTest, CrashedCoordinatorKeepsItsInFlightStates) {
  // A shippable read-modify-write of a key on node 0 and one on node 1:
  // node 0 locks its key and ships the execution to node 1, then crashes
  // with the ship message on the wire. Node 1's shipped execution holds
  // node 0's handle and runs only while it resolves (ServeShipExec's
  // guard), so the crash must leave the states in flight in the pool:
  // node 1 executes and sends the LOG records.
  XenicFixture f(XenicOptions(3, 2));
  const store::Key a = f.LoadOn(0, 1)[0];
  const store::Key b = f.LoadOn(1, 1)[0];
  txn::XenicNode& coord = f.cluster->node(0);
  txn::XenicNode& executor = f.cluster->node(1);
  bool reported = false;
  const store::TxnId txn = coord.Submit(ShippableReadWrite(a, b),
                                        [&reported](txn::TxnResult) { reported = true; });
  sim::Engine& e = f.cluster->engine();
  RunUntilShipped(e, coord);
  const uint64_t logs_before = executor.stats().by_type.MsgCount(net::MsgType::kLog);
  coord.Crash();
  e.RunFor(100 * sim::kNsPerUs);
  EXPECT_TRUE(coord.HandleOf(txn).has_value());
  EXPECT_EQ(coord.live_txns(), 1u);
  EXPECT_FALSE(reported);
  EXPECT_GT(executor.stats().by_type.MsgCount(net::MsgType::kLog), logs_before);
}

TEST(XenicPoolTest, ShippedExecutionOfAFinishedTxnIsDropped) {
  // Node 0 ships a read-modify-write to node 1, and while the ship message
  // is on the wire the transaction is aborted at its coordinator (as a
  // handoff's straggler sweep aborts it) and its slot goes to the next
  // submission: a read of node 1's key and node 2's, which stays in flight
  // (node 2 is down). The delivery's handle names the same slot but
  // resolves to null, so node 1 runs nothing for it: had it run, it would
  // have locked the next transaction's key homed there and left it locked.
  XenicFixture f(XenicOptions(3, 2));
  const store::Key a = f.LoadOn(0, 1)[0];
  const store::Key b = f.LoadOn(1, 1)[0];
  const store::Key c = f.LoadOn(2, 1)[0];
  txn::XenicNode& coord = f.cluster->node(0);
  txn::XenicNode& executor = f.cluster->node(1);
  f.cluster->node(2).Crash();
  std::optional<txn::TxnOutcome> shipped_outcome;
  const store::TxnId shipped =
      coord.Submit(ShippableReadWrite(a, b), [&shipped_outcome](txn::TxnResult res) {
        shipped_outcome = res.outcome;
      });
  sim::Engine& e = f.cluster->engine();
  RunUntilShipped(e, coord);
  const std::optional<txn::TxnHandle> stale = coord.HandleOf(shipped);
  ASSERT_TRUE(stale.has_value());
  coord.ForceAbortWedged(*stale);

  txn::TxnRequest read;
  read.reads = {{0, b}, {0, c}};
  read.allow_ship = false;
  const store::TxnId next = coord.Submit(std::move(read), [](txn::TxnResult) {});
  const std::optional<txn::TxnHandle> h = coord.HandleOf(next);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->slot, stale->slot);

  const uint64_t logs_before = executor.stats().by_type.MsgCount(net::MsgType::kLog);
  e.RunFor(100 * sim::kNsPerUs);
  EXPECT_EQ(shipped_outcome, txn::TxnOutcome::kAborted);
  EXPECT_TRUE(coord.HandleOf(next).has_value());
  EXPECT_EQ(executor.stats().by_type.MsgCount(net::MsgType::kLog), logs_before);
  EXPECT_EQ(executor.parked_slots().requests, 0u);
  EXPECT_EQ(f.cluster->datastore(1).index(0).LockOwner(b), store::kNoTxn);
}

TEST(XenicPoolTest, ReportedCommitsSurviveBitmapGrowth) {
  // 300 transactions at node 0, every third aborted by its application:
  // the reported-commit bitmap grows by several words, keeps every earlier
  // bit, and answers only for node 0's own ids.
  XenicFixture f(XenicOptions(3, 2));
  const store::Key a = f.LoadOn(1, 1)[0];
  txn::XenicNode& node = f.cluster->node(0);
  std::vector<store::TxnId> committed;
  std::vector<store::TxnId> app_aborted;
  for (int i = 0; i < 300; ++i) {
    const bool abort = i % 3 == 0;
    txn::TxnRequest req;
    req.reads = {{0, a}};
    req.writes = {{0, a}};
    req.allow_ship = false;
    req.execute = [abort](txn::ExecRound& er) {
      if (abort) {
        *er.abort = true;
        return;
      }
      (*er.writes)[0].value = store::Value(16, 1);
    };
    txn::TxnOutcome outcome = txn::TxnOutcome::kAborted;
    const store::TxnId id =
        node.Submit(std::move(req), [&outcome](txn::TxnResult res) { outcome = res.outcome; });
    f.cluster->engine().RunFor(100 * sim::kNsPerUs);
    ASSERT_EQ(outcome, abort ? txn::TxnOutcome::kAppAborted : txn::TxnOutcome::kCommitted);
    (abort ? app_aborted : committed).push_back(id);
  }
  for (store::TxnId id : committed) {
    EXPECT_TRUE(node.HasReportedCommit(id)) << id;
    // The same sequence number at another coordinator.
    EXPECT_FALSE(node.HasReportedCommit(store::MakeTxnId(1, store::TxnSeq(id)))) << id;
    EXPECT_FALSE(f.cluster->node(1).HasReportedCommit(id)) << id;
  }
  for (store::TxnId id : app_aborted) {
    EXPECT_FALSE(node.HasReportedCommit(id)) << id;
  }
  // Past every bit the node has set.
  EXPECT_FALSE(node.HasReportedCommit(store::MakeTxnId(0, store::TxnSeq(committed.back()) + 1)));
  EXPECT_FALSE(node.HasReportedCommit(store::MakeTxnId(0, 1u << 20)));
}

void ExpectBaselineBudget(baseline::BaselineMode mode, uint64_t budget) {
  BaselineFixture f(BaselineOptions(mode));
  const txn::TxnRequest req = TwoShardReadWrite(f);
  EXPECT_LE(f.Allocs(req), budget) << baseline::BaselineModeName(mode);
}

// The same transaction on the baselines. The TxnState comes from the
// node's pool with its vectors and its verbs' scratch, every verb and host
// closure stays inline (DrTM+R's lock CAS parks its typed closures and
// result word in the verb's slot), and LOG and COMMIT write sets are
// reused in place, each backup's append copying the shard's one LOG
// record into the write store of its log. What still allocates is the
// data the transaction carries: the two values it writes.
TEST(HotPathAllocTest, DrtmHTwoShardReadWriteTxnAllocationBudget) {
  ExpectBaselineBudget(baseline::BaselineMode::kDrtmH, 2);
}

TEST(HotPathAllocTest, DrtmHNCTwoShardReadWriteTxnAllocationBudget) {
  ExpectBaselineBudget(baseline::BaselineMode::kDrtmHNC, 2);
}

TEST(HotPathAllocTest, FasstTwoShardReadWriteTxnAllocationBudget) {
  ExpectBaselineBudget(baseline::BaselineMode::kFasst, 2);
}

TEST(HotPathAllocTest, DrtmRTwoShardReadWriteTxnAllocationBudget) {
  ExpectBaselineBudget(baseline::BaselineMode::kDrtmR, 2);
}

// --- The commit log's bookkeeping: the applied-record index and the ring.

TEST(HotPathAllocTest, WarmAppliedIndexNoteAllocatesNothing) {
  // The index keeps its marks in pages of store::kTxnPageSeqs sequences,
  // one set per coordinator, each page made on its first note with its
  // shard planes inline. 1,500 notes of three coordinators make each one's
  // first page, and coordinator 0's has a plane for shard 0 only. The
  // next 750 -- two shards of each of 250 of coordinator 0's transactions,
  // the second a plane its page had not used, and a repeat of each --
  // land in that page.
  store::Datastore ds({store::TableSpec{0, "t", 8, 16, 8, 8}}, store::NicIndex::Options{});
  for (store::TxnId t = 1; t <= 1500; ++t) {
    ds.NoteLogApplied(store::MakeTxnId(t % 3, t), static_cast<store::NodeId>(t % 3), 1);
  }
  const uint64_t before = OperatorNewCalls();
  for (store::TxnId t = 1501; t <= 1750; ++t) {
    ds.NoteLogApplied(store::MakeTxnId(0, t), 0, 2);
    ds.NoteLogApplied(store::MakeTxnId(0, t), 1, 2);
    ds.NoteLogApplied(store::MakeTxnId(0, t), 0, 2);
  }
  EXPECT_EQ(OperatorNewCalls() - before, 0u);
  uint32_t total = 0;
  EXPECT_EQ(ds.AppliedShardsOf(store::MakeTxnId(0, 1600), &total),
            (std::vector<store::NodeId>{0, 1}));
  EXPECT_EQ(total, 2u);
}

TEST(HotPathAllocTest, AppliedIndexTakesAtMostFourBytesPerTransaction) {
  // Two shards of each of 1,000,000 consecutive transactions of one
  // coordinator, as a backup of two shards applies them: a page holds a
  // byte of total_shards and a bit per shard for each of its sequences,
  // about 1.5 bytes per transaction. A table of 16-byte (txn, shard)
  // entries that doubles at half full asked for 134.
  constexpr uint64_t kTxns = 1000000;
  store::Datastore ds({store::TableSpec{0, "t", 8, 16, 8, 8}}, store::NicIndex::Options{});
  const uint64_t before = OperatorNewBytes();
  for (uint64_t t = 1; t <= kTxns; ++t) {
    ds.NoteLogApplied(store::MakeTxnId(2, t), 4, 2);
    ds.NoteLogApplied(store::MakeTxnId(2, t), 5, 2);
  }
  const uint64_t bytes = OperatorNewBytes() - before;
  EXPECT_LE(bytes, 4 * kTxns);
  RecordProperty("bytes_per_txn", std::to_string(static_cast<double>(bytes) / kTxns));
  EXPECT_EQ(ds.AppliedShardsOf(store::MakeTxnId(2, kTxns)), (std::vector<store::NodeId>{4, 5}));
}

TEST(HotPathAllocTest, WarmCommitLogRingAllocatesNothing) {
  // Appends, applies and reclaims that wrap the ring's head and the write
  // store, each record built in one reused vector whose writes the append
  // moves out. Once the ring and the store have grown to the backlog, a
  // record's slot and its writes' slots are reused in place, so a round
  // allocates nothing.
  store::CommitLog log(1 << 10);
  std::vector<store::LogWrite> buf;
  auto round = [&log, &buf] {
    store::LogHeader header;
    header.txn = 7;
    for (int burst = 0; burst < 5; ++burst) {
      for (int i = 0; i < 23; ++i) {
        for (int w = 0; w <= i % 5; ++w) {
          buf.push_back(store::LogWrite{0, static_cast<store::Key>(i), 1, {}, false});
        }
        ASSERT_TRUE(log.Append(header, &buf).ok());
      }
      while (const store::LogRecordView* rec = log.Peek()) {
        const uint64_t lsn = rec->lsn;
        log.PopApplied();
        log.Reclaim(lsn + 1);
      }
    }
  };
  EXPECT_EQ(AllocsAfterWarmup(round), 0u);
  EXPECT_EQ(log.unreclaimed(), 0u);
  EXPECT_EQ(log.appended(), 23u * 5 * (kWarmupRounds + 1));
}

TEST(HotPathAllocTest, GrowingCommitLogAllocatesLogarithmically) {
  // A log that only grows, as when the host falls behind: 20,000 appends
  // of 1 to 16 writes (170,000 in all), each built in one reused vector,
  // and nothing reclaimed. The ring and the write store double, so the
  // appends allocate a few dozen times, not once per record.
  store::CommitLog log;
  std::vector<store::LogWrite> buf;
  const store::Value v(8, 1);
  store::LogHeader header;
  const uint64_t before = OperatorNewCalls();
  for (int i = 0; i < 20000; ++i) {
    header.txn = static_cast<store::TxnId>(i + 1);
    for (int w = 0; w <= i % 16; ++w) {
      buf.push_back(store::LogWrite{0, static_cast<store::Key>(w), 1, v, false});
    }
    if (!log.Append(header, &buf).ok()) {
      break;
    }
  }
  const uint64_t allocs = OperatorNewCalls() - before;
  EXPECT_LE(allocs, 40u);
  EXPECT_EQ(log.unreclaimed(), 20000u);
  EXPECT_EQ(log.Record(19999).writes.size(), 16u);
  EXPECT_EQ(v.use_count(), 1u + 170000u);
}

}  // namespace
}  // namespace xenic
