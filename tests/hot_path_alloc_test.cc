// Allocation checks for the simulator's hot paths: resource grants,
// SmartNIC DMA, PCIe crossings and Ethernet frames, and RDMA verbs, which
// must not allocate at all; and XenicNode's remote transaction rounds,
// whose remaining allocations are the data a transaction carries.
//
// This executable replaces the global operator new with a counting one.
// Each test first runs its scenario a few times, which sizes the
// components' slot tables, the frame pool and the engine's calendar wheel,
// and then runs it once more inside a counted window. The callbacks under
// test capture at most 32 bytes, so they stay inline in SmallCallback.
// gtest assertions allocate, so they stay outside the counted window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/nicmodel/rdma_nic.h"
#include "src/nicmodel/smart_nic.h"
#include "src/sim/resource.h"
#include "src/txn/xenic_cluster.h"

namespace {

uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(align);
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

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
  const uint64_t before = g_allocs;
  round();
  return g_allocs - before;
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

// --- txn layer: XenicNode's EXECUTE, VALIDATE, LOG and COMMIT rounds ----

struct TxnFixture {
  TxnFixture(uint32_t nodes, uint32_t replication) : part(nodes) {
    txn::XenicClusterOptions o;
    o.num_nodes = nodes;
    o.replication = replication;
    o.tables = {store::TableSpec{0, "t", 10, 16, 8, 8}};
    cluster = std::make_unique<txn::XenicCluster>(o, &part);
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
  // as the minimum of three runs: a growing hash set (the node's reported
  // commits) rehashes now and then.
  uint64_t Allocs(const txn::TxnRequest& req) {
    uint64_t best = ~uint64_t{0};
    for (int i = 0; i < 3; ++i) {
      txn::TxnRequest r = req;
      bool committed = false;
      txn::CommitCallback done = [&committed](txn::TxnResult res) {
        committed = res.outcome == txn::TxnOutcome::kCommitted;
      };
      const uint64_t before = g_allocs;
      cluster->node(0).Submit(std::move(r), std::move(done));
      cluster->engine().RunFor(100 * sim::kNsPerUs);
      best = std::min(best, g_allocs - before);
      EXPECT_TRUE(committed);
    }
    return best;
  }

  txn::HashPartitioner part;
  std::unique_ptr<txn::XenicCluster> cluster;
};

txn::TxnRequest ReadOnly(const std::vector<store::Key>& keys) {
  txn::TxnRequest req;
  for (store::Key k : keys) {
    req.reads.push_back({0, k});
  }
  req.execute = [](txn::ExecRound&) {};
  return req;
}

TEST(HotPathAllocTest, RemoteReadKeyCostsOnlyItsValueCopy) {
  // One EXECUTE round at node 1 that commits on its snapshot. Per read key
  // the server copies the value out of its NIC index (one allocation); the
  // reply moves it into the coordinator's read set. Everything else -- the
  // request slot's vectors, the DMA fan-in, the reply -- is reused.
  TxnFixture f(2, 1);
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
    EXPECT_EQ(cur, prev + 1) << n << " keys";
    prev = cur;
  }
}

TEST(HotPathAllocTest, TwoShardReadWriteTxnAllocationBudget) {
  // A read-modify-write of one key on each of nodes 1 and 2 (replication
  // 2): two EXECUTEs, one LOG per shard to its backup, two COMMITs. What
  // still allocates is the data the transaction carries, not the protocol:
  // the TxnState and its six vectors plus its entry in the state table;
  // the two value copies read at the servers and the two written by the
  // transaction; each LOG record (vector and value); the COMMIT slots'
  // value copies and each server's commit-record copy; the log appends'
  // pending-index copies; the reported-commit entry; and the host log
  // workers' applies.
  TxnFixture f(3, 2);
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
  EXPECT_LE(f.Allocs(req), 36u);
}

}  // namespace
}  // namespace xenic
