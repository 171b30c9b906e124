// Tests for the hardware timing models: latency composition (Figure 2
// shapes), Ethernet aggregation, DMA engine behaviour (Figure 4 shapes),
// and the RDMA NIC's verbs and ceilings.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/nicmodel/rdma_nic.h"
#include "src/nicmodel/smart_nic.h"

namespace xenic::nicmodel {
namespace {

using sim::Engine;
using sim::Tick;

struct LioFixture {
  LioFixture() : fabric(&engine, model, 3) {}
  Engine engine;
  net::PerfModel model;
  SmartNicFabric fabric;
};

Tick MeasureOnce(Engine& eng, const std::function<void(Engine::Callback)>& op) {
  Tick done_at = 0;
  const Tick start = eng.now();
  op([&] { done_at = eng.now(); });
  eng.Run();
  return done_at - start;
}

TEST(SmartNicTest, NicToNicMessageLatency) {
  LioFixture f;
  const Tick rtt = MeasureOnce(f.engine, [&](Engine::Callback done) {
    f.fabric.node(0).NicSend(1, 256, [&, done = std::move(done)]() mutable {
      f.fabric.node(1).NicSend(0, 256, std::move(done));
    });
  });
  // NIC-to-NIC roundtrip: ~2.5-3.5us (below two-sided RDMA's ~6-7us).
  EXPECT_GT(rtt, 2000u);
  EXPECT_LT(rtt, 4000u);
}

TEST(SmartNicTest, HostInitiationAddsPcieCrossings) {
  LioFixture f;
  const Tick from_nic = MeasureOnce(f.engine, [&](Engine::Callback done) {
    f.fabric.node(0).NicSend(1, 256, [&, done = std::move(done)]() mutable {
      f.fabric.node(1).NicSend(0, 256, std::move(done));
    });
  });
  LioFixture g;
  const Tick from_host = MeasureOnce(g.engine, [&](Engine::Callback done) {
    g.fabric.node(0).HostToNic(256, [&, done = std::move(done)]() mutable {
      g.fabric.node(0).NicSend(1, 256, [&, done = std::move(done)]() mutable {
        g.fabric.node(1).NicSend(0, 256, [&, done = std::move(done)]() mutable {
          g.fabric.node(0).NicToHost(256, std::move(done));
        });
      });
    });
  });
  // Two PCIe crossings add ~1.5-2.5us.
  EXPECT_GT(from_host, from_nic + 1200);
  EXPECT_LT(from_host, from_nic + 3500);
}

TEST(SmartNicTest, AggregationSharesFrames) {
  LioFixture batched;
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    batched.fabric.node(0).NicSend(1, 50, [&] { delivered++; });
  }
  batched.engine.Run();
  EXPECT_EQ(delivered, 20);
  // 20 x 50B messages fit one MTU: a single frame (or two with timing).
  EXPECT_LE(batched.fabric.node(0).frames_sent(), 2u);

  LioFixture single;
  for (uint32_t n = 0; n < 3; ++n) {
    single.fabric.node(n).features().eth_aggregation = false;
  }
  delivered = 0;
  for (int i = 0; i < 20; ++i) {
    single.fabric.node(0).NicSend(1, 50, [&] { delivered++; });
  }
  single.engine.Run();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(single.fabric.node(0).frames_sent(), 20u);
}

TEST(SmartNicTest, MtuTriggersImmediateFlush) {
  LioFixture f;
  int delivered = 0;
  // 3 x 600B exceeds the 1500B MTU: flushes before the batch window.
  for (int i = 0; i < 3; ++i) {
    f.fabric.node(0).NicSend(1, 600, [&] { delivered++; });
  }
  f.engine.RunFor(f.model.batch_window - 50);
  EXPECT_GE(f.fabric.node(0).frames_sent(), 1u);
  f.engine.Run();
  EXPECT_EQ(delivered, 3);
}

TEST(SmartNicTest, WireBytesIncludeFrameOverhead) {
  LioFixture f;
  f.fabric.node(0).NicSend(1, 100, [] {});
  f.engine.Run();
  EXPECT_EQ(f.fabric.node(0).wire_bytes_sent(), 100u + f.model.frame_overhead);
}

TEST(SmartNicTest, DmaReadSlowerThanWrite) {
  LioFixture f;
  const Tick read = MeasureOnce(
      f.engine, [&](Engine::Callback done) { f.fabric.node(0).DmaRead(256, std::move(done)); });
  LioFixture g;
  const Tick write = MeasureOnce(
      g.engine, [&](Engine::Callback done) { g.fabric.node(0).DmaWrite(256, std::move(done)); });
  EXPECT_GT(read, write);
  EXPECT_GE(read, f.model.dma_read_completion);
  EXPECT_GE(write, f.model.dma_write_completion);
  EXPECT_LT(read, 2500u);
}

TEST(SmartNicTest, DmaEngineThroughputCeiling) {
  LioFixture f;
  uint64_t completed = 0;
  std::function<void()> loop = [&] {
    f.fabric.node(0).DmaRead(64, [&] {
      completed++;
      loop();
    });
  };
  for (int i = 0; i < 64; ++i) {
    loop();
  }
  f.engine.RunFor(500 * sim::kNsPerUs);
  const double mops = static_cast<double>(completed) / 500e3 * 1e3;
  // Vectored submission reaches the 8.7 Mops/s hardware maximum.
  EXPECT_GT(mops, 8.0);
  EXPECT_LT(mops, 9.5);
}

TEST(SmartNicTest, UnbatchedDmaSubmissionLimitsThroughput) {
  LioFixture f;
  f.fabric.node(0).features().async_dma_batching = false;
  uint64_t completed = 0;
  std::function<void()> loop = [&] {
    f.fabric.node(0).DmaRead(64, [&] {
      completed++;
      loop();
    });
  };
  for (int i = 0; i < 64; ++i) {
    loop();
  }
  f.engine.RunFor(500 * sim::kNsPerUs);
  const double mops = static_cast<double>(completed) / 500e3 * 1e3;
  // Per-request descriptor fetches cap the rate at ~1/190ns = 5.3 Mops/s.
  EXPECT_LT(mops, 6.0);
  EXPECT_GT(mops, 4.0);
}

// --- Slot lifetime: continuations that re-enter the model ------------------
//
// Each callback below starts new work on the model while the model is still
// delivering it, so new slots are parked, and tables may grow, mid-delivery.
// The callbacks touch their captures after that, so a callback run in place
// from a reallocated slot shows up as a use-after-free under ASan.

TEST(SmartNicTest, DmaDoneThatIssuesAnotherDma) {
  for (const bool async : {true, false}) {
    LioFixture single;
    single.fabric.node(0).features().async_dma_batching = async;
    const Tick one = MeasureOnce(single.engine, [&](Engine::Callback done) {
      single.fabric.node(0).DmaRead(256, std::move(done));
    });

    LioFixture f;
    SmartNic& nic = f.fabric.node(0);
    nic.features().async_dma_batching = async;
    // A chain of four reads, each issued from the previous one's done, and
    // each done also fanning out a write.
    std::vector<Tick> reads;
    int writes = 0;
    std::function<void()> next = [&] {
      nic.DmaRead(256, [&] {
        if (reads.size() < 3) {
          nic.DmaWrite(64, [&writes] { writes++; });
          next();
        }
        reads.push_back(f.engine.now());
      });
    };
    next();
    f.engine.Run();
    ASSERT_EQ(reads.size(), 4u) << "async=" << async;
    EXPECT_EQ(writes, 3) << "async=" << async;
    EXPECT_EQ(nic.dma_ops(), 7u);
    // The first read runs on an idle engine, exactly like a lone read.
    EXPECT_EQ(reads[0], one) << "async=" << async;
    for (size_t i = 1; i < reads.size(); ++i) {
      EXPECT_GT(reads[i], reads[i - 1]);
    }
  }
}

TEST(SmartNicTest, FrameHandlerThatSendsWhileFrameIsDelivered) {
  for (const bool aggregate : {true, false}) {
    LioFixture f;
    for (uint32_t n = 0; n < 3; ++n) {
      f.fabric.node(n).features().eth_aggregation = aggregate;
    }
    // Node 0 sends a burst to node 1; every handler at node 1 replies to
    // node 0 and to node 2 while its own frame is still being delivered.
    int replies = 0;
    std::vector<int> delivered;
    for (int i = 0; i < 12; ++i) {
      f.fabric.node(0).NicSend(1, 100, [&, i] {
        f.fabric.node(1).NicSend(0, 100, [&replies] { replies++; });
        f.fabric.node(1).NicSend(2, 100, [&replies] { replies++; });
        delivered.push_back(i);
      });
    }
    f.engine.Run();
    std::vector<int> in_order(12);
    for (int i = 0; i < 12; ++i) {
      in_order[i] = i;
    }
    EXPECT_EQ(delivered, in_order) << "aggregate=" << aggregate;
    EXPECT_EQ(replies, 24) << "aggregate=" << aggregate;
    EXPECT_EQ(f.fabric.node(1).messages_sent(), 24u);
    if (!aggregate) {
      EXPECT_EQ(f.fabric.node(1).frames_sent(), 24u);
    }
  }
}

struct RdmaFixture {
  RdmaFixture() {
    for (int i = 0; i < 2; ++i) {
      cores.push_back(std::make_unique<sim::Resource>(&engine, "host", model.host_threads));
      ptrs.push_back(cores.back().get());
    }
    fabric = std::make_unique<RdmaFabric>(&engine, model, ptrs);
  }
  Engine engine;
  net::PerfModel model;
  std::vector<std::unique_ptr<sim::Resource>> cores;
  std::vector<sim::Resource*> ptrs;
  std::unique_ptr<RdmaFabric> fabric;
};

TEST(RdmaNicTest, OneSidedReadLatency) {
  RdmaFixture f;
  const Tick rtt = MeasureOnce(f.engine, [&](Engine::Callback done) {
    f.fabric->node(0).Read(1, 256, std::move(done));
  });
  // ~3.4us (paper Figure 2b).
  EXPECT_GT(rtt, 2800u);
  EXPECT_LT(rtt, 4200u);
}

TEST(RdmaNicTest, TwoSidedRpcSlowerThanOneSided) {
  RdmaFixture f;
  const Tick read = MeasureOnce(f.engine, [&](Engine::Callback done) {
    f.fabric->node(0).Read(1, 256, std::move(done));
  });
  RdmaFixture g;
  const Tick rpc = MeasureOnce(g.engine, [&](Engine::Callback done) {
    g.fabric->node(0).Rpc(1, 256, 256, 0, [] {}, std::move(done));
  });
  EXPECT_GT(rpc, read + 2000);
}

TEST(RdmaNicTest, AtomicExecutesAtTarget) {
  RdmaFixture f;
  uint64_t target_word = 7;
  uint64_t result = 0;
  f.fabric->node(0).Atomic(
      1,
      [&]() -> uint64_t {
        const uint64_t old = target_word;
        target_word = 99;
        return old;
      },
      [&](uint64_t v) { result = v; });
  f.engine.Run();
  EXPECT_EQ(result, 7u);
  EXPECT_EQ(target_word, 99u);
}

TEST(RdmaNicTest, RpcHandlerRunsOnTargetHost) {
  RdmaFixture f;
  bool handled = false;
  bool done = false;
  f.fabric->node(0).Rpc(1, 64, 64, 500, [&] { handled = true; }, [&] { done = true; });
  f.engine.Run();
  EXPECT_TRUE(handled);
  EXPECT_TRUE(done);
  // Handler consumed target host-core time.
  EXPECT_GT(f.cores[1]->busy_time(), 500u);
}

TEST(RdmaNicTest, SmallOpThroughputCeiling) {
  RdmaFixture f;
  uint64_t completed = 0;
  std::function<void()> loop = [&] {
    f.fabric->node(0).Write(1, 32, [&] {
      completed++;
      loop();
    });
  };
  for (int i = 0; i < 256; ++i) {
    loop();
  }
  f.engine.RunFor(500 * sim::kNsPerUs);
  const double mops = static_cast<double>(completed) / 500e3 * 1e3;
  // ~15 Mops/s small-op ceiling (paper section 3.4).
  EXPECT_GT(mops, 11.0);
  EXPECT_LT(mops, 18.0);
}

TEST(RdmaNicTest, ReadDataVisibleAtInitiator) {
  RdmaFixture f;
  int target_value = 42;
  int got = 0;
  f.fabric->node(0).Read(1, 64, [&] { got = target_value; }, [&] { EXPECT_EQ(got, 42); });
  f.engine.Run();
  EXPECT_EQ(got, 42);
}

TEST(RdmaNicTest, AtTargetAndRpcHandlerThatPostVerbs) {
  RdmaFixture f;
  RdmaNic& n0 = f.fabric->node(0);
  RdmaNic& n1 = f.fabric->node(1);
  std::vector<std::string> events;
  // A READ whose target-side memory effect posts a WRITE back to node 0,
  // and an RPC whose handler posts a READ of node 0. Both nested verbs are
  // initiated by node 1 while the outer verbs are still in flight.
  n0.Read(
      1, 64,
      [&] {
        n1.Write(0, 32, [&] { events.push_back("nested write done"); });
        events.push_back("read at target");
      },
      [&] { events.push_back("read done"); });
  n0.Rpc(
      1, 64, 64, 100,
      [&] {
        n1.Read(0, 128, [&] { events.push_back("nested read done"); });
        events.push_back("rpc handler");
      },
      [&] { events.push_back("rpc done"); });
  f.engine.Run();
  std::vector<std::string> sorted = events;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"nested read done", "nested write done",
                                              "read at target", "read done", "rpc done",
                                              "rpc handler"}));
  // Causality: each verb's target-side work precedes its completion.
  auto pos = [&](const std::string& e) {
    return std::find(events.begin(), events.end(), e) - events.begin();
  };
  EXPECT_LT(pos("read at target"), pos("read done"));
  EXPECT_LT(pos("read at target"), pos("nested write done"));
  EXPECT_LT(pos("rpc handler"), pos("rpc done"));
  EXPECT_LT(pos("rpc handler"), pos("nested read done"));
  EXPECT_EQ(n0.ops(), 2u);
  EXPECT_EQ(n1.ops(), 2u);
}

}  // namespace
}  // namespace xenic::nicmodel
