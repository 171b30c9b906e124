#include "src/sim/engine.h"

#include <cassert>

namespace xenic::sim {

void Engine::ScheduleAt(Tick t, Callback cb) {
  assert(t >= now_ && "cannot schedule in the past");
  if (trace_ != nullptr && trace_ctx_ != 0) {
    // Capture the current transaction context into the event and restore it
    // at dispatch. Only done while a sink is attached: the wrapper changes
    // neither the callback's effect nor the event's (time, seq) slot, so
    // traced runs execute the exact untraced schedule.
    cb = Callback([this, ctx = trace_ctx_, inner = std::move(cb)]() mutable {
      trace_ctx_ = ctx;
      inner();
    });
  }
  queue_.Push(t, next_seq_++, std::move(cb));
}

void Engine::ScheduleDetachedAt(Tick t, Callback cb) {
  assert(t >= now_ && "cannot schedule in the past");
  queue_.Push(t, next_seq_++, std::move(cb));
}

bool Engine::Step() {
  if (queue_.empty()) {
    return false;
  }
  Tick t = 0;
  Callback cb = queue_.PopNext(&t);
  now_ = t;
  events_executed_++;
  trace_ctx_ = 0;  // events scheduled without a context run without one
  cb();
  return true;
}

uint64_t Engine::Run() {
  const uint64_t before = events_executed_;
  while (Step()) {
  }
  return events_executed_ - before;
}

uint64_t Engine::RunUntil(Tick t) {
  const uint64_t before = events_executed_;
  while (!queue_.empty() && queue_.PeekTime() <= t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
  return events_executed_ - before;
}

}  // namespace xenic::sim
