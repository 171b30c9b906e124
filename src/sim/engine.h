// Discrete-event simulation engine.
//
// Time is measured in integer nanoseconds (Tick). Events are callbacks
// ordered by (time, insertion sequence); the sequence tiebreak makes every
// run fully deterministic for a given seed and schedule, which the test
// suite and the ablation benches rely on.
//
// Hot path: callbacks are SmallCallback (captures up to 48 B stay inline in
// the event record -- no heap allocation) and the event queue is a two-level
// calendar queue (O(1) schedule/dispatch for the near-term horizon where
// almost all events land). See calendar_queue.h for the ordering proof.
//
// The engine is serial: one queue, one clock, one thread. Cluster runs draw
// all randomness from one shared harness Rng, so they cannot be split into
// independently advancing partitions without changing results. DESIGN.md
// section 14 records a multi-LP variant that was built, measured slower
// than serial, and removed.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>

#include "src/sim/calendar_queue.h"
#include "src/sim/sbo_callback.h"
#include "src/sim/trace.h"

namespace xenic::sim {

constexpr Tick kNsPerUs = 1000;
constexpr Tick kNsPerMs = 1000 * 1000;
constexpr Tick kNsPerSec = 1000 * 1000 * 1000;

class Engine {
 public:
  using Callback = SmallCallback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Tick now() const { return now_; }
  uint64_t events_executed() const { return events_executed_; }
  bool idle() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }

  // Schedule cb at absolute time t (>= now).
  void ScheduleAt(Tick t, Callback cb);

  // Schedule cb `delay` ns from now.
  void ScheduleAfter(Tick delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  // Like ScheduleAt, but never captures the current trace context: the
  // event runs on behalf of no transaction even when armed inside a traced
  // span. For ambient timers (worker poll ticks, retry wakeups) whose
  // firing is not causally part of the arming transaction's critical path
  // -- capturing the arming context there misattributes whatever the timer
  // does to a transaction that may already have finished (see the
  // trace-context tests in tests/engine_test.cc).
  void ScheduleDetachedAt(Tick t, Callback cb);
  void ScheduleDetachedAfter(Tick delay, Callback cb) {
    ScheduleDetachedAt(now_ + delay, std::move(cb));
  }

  // Execute the next event. Returns false if the queue is empty.
  bool Step();

  // Run until the queue drains. Returns events executed by this call
  // (events_executed() advances by the same amount).
  uint64_t Run();

  // Run until simulated time reaches `t` (events at exactly `t` execute).
  // The clock is advanced to `t` even if the queue drains earlier. Returns
  // events executed by this call (the events_executed() delta, so the two
  // counters cannot drift).
  uint64_t RunUntil(Tick t);

  uint64_t RunFor(Tick duration) { return RunUntil(now_ + duration); }

  // Observability sink (null = tracing off). The sink is write-only from
  // the simulation's point of view: attaching one never changes event
  // order, timing, or any simulated result (see trace.h), which
  // check_determinism.sh enforces end-to-end.
  TraceSink* trace() const { return trace_; }
  void set_trace(TraceSink* sink) { trace_ = sink; }

  // Trace context: the transaction id the currently executing event is
  // working on behalf of (0 = none). With a sink attached, ScheduleAt
  // captures the current context into each scheduled event and restores it
  // at dispatch, so identity propagates causally through resource grants,
  // channel deliveries, and remote message handlers without any component
  // re-plumbing ids by hand. Pure bookkeeping: the context feeds only span
  // ids, never a simulated decision, so traced and untraced runs stay
  // byte-identical (the wrapping itself is skipped when no sink is
  // attached).
  uint64_t trace_ctx() const { return trace_ctx_; }
  void set_trace_ctx(uint64_t ctx) { trace_ctx_ = ctx; }

 private:
  CalendarQueue queue_;
  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  TraceSink* trace_ = nullptr;
  uint64_t trace_ctx_ = 0;
};

}  // namespace xenic::sim

#endif  // SRC_SIM_ENGINE_H_
