#include "src/repl/log_drain.h"

#include "src/net/perf_model.h"

namespace xenic::repl {

namespace {

// Host-thread costs (ns) of one poll, one record and one write, and the
// most records one poll consumes.
constexpr sim::Tick kPollCost = 80;
constexpr sim::Tick kRecordCost = 150;
constexpr sim::Tick kWriteCost = 120;
constexpr int kBatch = 16;

}  // namespace

sim::Tick LogDrain::Cost(sim::Tick host_cost) const {
  return net::ScaledCost(host_cost, options_.speed_ratio);
}

void LogDrain::Start(uint32_t count, sim::Tick poll_interval) {
  const uint64_t epoch = ++epoch_;
  for (uint32_t c = 0; c < count; ++c) {
    const sim::Tick offset = poll_interval * (c + 1) / (count + options_.stagger_pad);
    engine_->ScheduleAfter(offset, [this, poll_interval, epoch] { Poll(poll_interval, epoch); });
  }
}

void LogDrain::Stop() { epoch_++; }

void LogDrain::Poll(sim::Tick interval, uint64_t epoch) {
  if (!Live(epoch)) {
    return;
  }
  // Charge the poll, then apply up to a batch of records, charging the
  // apply work before the next poll. The poll is ambient infrastructure,
  // not any transaction's work: mark it so attribution sinks don't count
  // its span as a lost-context anomaly (obs::TxnTraceSink).
  engine_->set_trace_ctx(sim::kAmbientTraceCtx);
  options_.cores->Submit(Cost(kPollCost), [this, interval, epoch] {
    if (!Live(epoch)) {
      return;  // stopped while the poll ran
    }
    const sim::Tick extra = ApplyBatch();
    if (extra > 0) {
      options_.cores->Submit(extra, [this, interval, epoch] { Reschedule(interval, epoch); });
    } else {
      Reschedule(interval, epoch);
    }
  });
}

void LogDrain::Reschedule(sim::Tick interval, uint64_t epoch) {
  engine_->ScheduleAfter(interval, [this, interval, epoch] { Poll(interval, epoch); });
}

sim::Tick LogDrain::ApplyBatch() {
  store::CommitLog& log = target_->log();
  const size_t num_tables = target_->num_tables();
  sim::Tick extra = 0;
  for (int consumed = 0; consumed < kBatch; ++consumed) {
    const store::LogRecord* rec = log.Peek();
    if (rec == nullptr) {
      break;
    }
    const store::ApplyOutcome outcome = target_->ApplyLogRecord(*rec, options_.stability_gate);
    if (outcome == store::ApplyOutcome::kWait) {
      break;
    }
    if (outcome == store::ApplyOutcome::kApplied) {
      // A dropped record costs nothing; an applied one pays per record and
      // per write, plus the hook's work for workload-managed writes.
      extra += Cost(kRecordCost);
      if (record_hook_) {
        record_hook_(*rec);
      }
      for (const auto& w : rec->writes) {
        extra += Cost(kWriteCost);
        if (w.table >= num_tables && apply_hook_) {
          extra += Cost(apply_hook_(w));
        }
      }
    }
    const uint64_t lsn = rec->lsn;
    log.PopApplied();
    log.Reclaim(lsn + 1);
  }
  return extra;
}

}  // namespace xenic::repl
