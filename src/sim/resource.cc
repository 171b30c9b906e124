#include "src/sim/resource.h"

#include <cassert>
#include <utility>

namespace xenic::sim {

Resource::Resource(Engine* engine, std::string name, uint32_t servers)
    : engine_(engine), name_(std::move(name)), servers_(servers) {
  assert(servers > 0);
}

void Resource::Submit(Tick service, Engine::Callback done) {
  // The submitting event's transaction context rides along with the job so
  // both the wait and the service span name the right transaction even when
  // the grant happens inside another job's completion event.
  const uint32_t slot =
      jobs_.Put(Job{service, engine_->now(), engine_->trace_ctx(), kNoSlot, std::move(done)});
  if (busy_ < servers_) {
    Start(slot);
    return;
  }
  if (wait_tail_ == kNoSlot) {
    wait_head_ = slot;
  } else {
    jobs_[wait_tail_].next = slot;
  }
  wait_tail_ = slot;
  queued_++;
  if (queued_ > peak_queue_depth_) {
    peak_queue_depth_ = queued_;
  }
}

void Resource::EnsureTracks(TraceSink* t) {
  if (t != trace_sink_) {
    trace_sink_ = t;
    trace_track_ = t->RegisterTrack(name_, "service");
    trace_wait_track_ = t->RegisterTrack(name_, "wait");
  }
}

void Resource::Start(uint32_t slot) {
  const Job& job = jobs_[slot];
  const Tick wait = engine_->now() - job.enqueued;
  wait_time_total_ += wait;
  jobs_started_++;
  if (wait_hist_ != nullptr) {
    wait_hist_->Record(wait);
  }
  if (wait > 0) {
    if (TraceSink* t = engine_->trace()) {
      EnsureTracks(t);
      t->Span(trace_wait_track_, name_.c_str(), job.enqueued, engine_->now(), job.ctx);
    }
  }
  busy_++;
  engine_->ScheduleAfter(job.service, InlineCallback([this, slot] { Finish(slot); }));
}

void Resource::Finish(uint32_t slot) {
  Job job = jobs_.Take(slot);
  // Restore the job's own context: the engine-level capture would carry
  // the context of whichever event performed the grant.
  engine_->set_trace_ctx(job.ctx);
  if (TraceSink* t = engine_->trace()) {
    EnsureTracks(t);
    t->Span(trace_track_, name_.c_str(), engine_->now() - job.service, engine_->now(), job.ctx);
  }
  busy_--;
  busy_time_ += job.service;
  completed_++;
  if (queued_ > 0 && busy_ < servers_) {
    const uint32_t next = wait_head_;
    wait_head_ = jobs_[next].next;
    if (wait_head_ == kNoSlot) {
      wait_tail_ = kNoSlot;
    }
    queued_--;
    Start(next);
  }
  job.done();
}

}  // namespace xenic::sim
