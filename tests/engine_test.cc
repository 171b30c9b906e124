#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xenic::sim {
namespace {

TEST(EngineTest, StartsAtZeroIdle) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.idle());
  EXPECT_FALSE(e.Step());
}

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(30, [&] { order.push_back(3); });
  e.ScheduleAt(10, [&] { order.push_back(1); });
  e.ScheduleAt(20, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(EngineTest, TieBrokenByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Tick seen = 0;
  e.ScheduleAt(100, [&] {
    e.ScheduleAfter(50, [&] { seen = e.now(); });
  });
  e.Run();
  EXPECT_EQ(seen, 150u);
}

TEST(EngineTest, CascadingEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      e.ScheduleAfter(1, recurse);
    }
  };
  e.ScheduleAt(0, recurse);
  e.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99u);
}

TEST(EngineTest, RunUntilStopsAtBoundary) {
  Engine e;
  int ran = 0;
  e.ScheduleAt(10, [&] { ran++; });
  e.ScheduleAt(20, [&] { ran++; });
  e.ScheduleAt(21, [&] { ran++; });
  e.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), 20u);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(EngineTest, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.RunUntil(500);
  EXPECT_EQ(e.now(), 500u);
}

TEST(EngineTest, EventCountTracked) {
  Engine e;
  for (int i = 0; i < 5; ++i) {
    e.ScheduleAt(static_cast<Tick>(i), [] {});
  }
  e.Run();
  EXPECT_EQ(e.events_executed(), 5u);
}

TEST(EngineTest, EventsScheduledDuringRunUntilWindowExecute) {
  Engine e;
  int count = 0;
  e.ScheduleAt(5, [&] {
    count++;
    e.ScheduleAfter(2, [&] { count++; });  // lands at 7, inside window
    e.ScheduleAfter(100, [&] { count++; });  // outside window
  });
  e.RunUntil(50);
  EXPECT_EQ(count, 2);
}

// --- Trace context ---------------------------------------------------------
//
// These rules let attribution sinks name the transaction behind every
// span without any component passing ids by hand.

class NullSink : public TraceSink {
 public:
  uint32_t RegisterTrack(const std::string&, const std::string&) override { return 0; }
  void Span(uint32_t, const char*, Tick, Tick, uint64_t) override {}
  void Instant(uint32_t, const char*, Tick, uint64_t) override {}
};

TEST(EngineTest, ScheduleAtCarriesContextWhenSinkAttached) {
  Engine e;
  NullSink sink;
  e.set_trace(&sink);
  uint64_t seen_at = 0;
  uint64_t seen_after = 0;
  uint64_t seen_grandchild = 0;
  e.ScheduleAt(10, [&] {
    e.set_trace_ctx(42);
    e.ScheduleAt(20, [&] { seen_at = e.trace_ctx(); });
    e.ScheduleAfter(5, [&] {
      seen_after = e.trace_ctx();
      // The restored context propagates again, transitively.
      e.ScheduleAfter(5, [&] { seen_grandchild = e.trace_ctx(); });
    });
  });
  e.Run();
  EXPECT_EQ(seen_at, 42u);
  EXPECT_EQ(seen_after, 42u);
  EXPECT_EQ(seen_grandchild, 42u);
}

TEST(EngineTest, ContextIsNotCarriedWithoutSink) {
  // No sink, no wrapping: the scheduled event starts from context 0.
  Engine e;
  uint64_t seen = 99;
  e.ScheduleAt(10, [&] {
    e.set_trace_ctx(42);
    e.ScheduleAfter(5, [&] { seen = e.trace_ctx(); });
  });
  e.Run();
  EXPECT_EQ(seen, 0u);
}

TEST(EngineTest, DetachedScheduleRunsWithZeroContext) {
  Engine e;
  NullSink sink;
  e.set_trace(&sink);
  uint64_t seen_at = 99;
  uint64_t seen_after = 99;
  e.ScheduleAt(10, [&] {
    e.set_trace_ctx(7);
    e.ScheduleDetachedAt(12, [&] { seen_at = e.trace_ctx(); });
    e.ScheduleDetachedAfter(5, [&] { seen_after = e.trace_ctx(); });
  });
  e.Run();
  EXPECT_EQ(seen_at, 0u);
  EXPECT_EQ(seen_after, 0u);
}

TEST(EngineTest, UncontextedEventRunsWithZeroRightAfterTracedEvent) {
  // The second event was scheduled with no context; the first leaves 42
  // behind, and dispatch must not leak it across the event boundary.
  Engine e;
  NullSink sink;
  e.set_trace(&sink);
  uint64_t seen = 99;
  e.ScheduleAt(10, [&] { e.set_trace_ctx(42); });
  e.ScheduleAt(10, [&] { seen = e.trace_ctx(); });
  e.Run();
  EXPECT_EQ(seen, 0u);
}

}  // namespace
}  // namespace xenic::sim
