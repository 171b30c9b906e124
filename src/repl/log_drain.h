// LogDrain: the loop that empties one node's host commit log (paper section
// 4.2, step 7). Polling contexts peek the log's head, apply up to a batch of
// records into the tables, and pop and reclaim each one -- the ack that lets
// the NIC unpin cached objects and reuse log space. Three callers run it:
//
//  * Xenic host Robinhood workers, charged to the host cores;
//  * Xenic NIC-ARM appliers under --nic-log-apply ("Reliable Replication
//    Protocols on SmartNICs", PAPERS.md), charged to the NIC cores with
//    every cost scaled by arm_multithread_ratio, and holding each kLog
//    record until its transaction's commit point is known (the stability
//    gate: CommitLog::IsStable, set by the coordinator's kLogCommit or by
//    recovery roll-forward). Backups stay current enough to serve replica
//    reads and planned failover without a recovery scan;
//  * the baselines' host workers, charged to their host cores.
//
// The drain owns start and stop, the stagger, the poll-and-batch loop, the
// costs, the workload apply hook and rescheduling; what one record does to
// the tables is the store's step (store::LogApplyTarget). DESIGN.md §15
// describes the inputs and the stop semantics.

#ifndef SRC_REPL_LOG_DRAIN_H_
#define SRC_REPL_LOG_DRAIN_H_

#include <cstdint>
#include <functional>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/store/commit_log.h"

namespace xenic::repl {

class LogDrain {
 public:
  struct Options {
    sim::Resource* cores = nullptr;  // where every step's cycles are charged
    // Per-thread speed of `cores` relative to a host thread; each cost
    // component is divided by it separately (net::ScaledCost).
    double speed_ratio = 1.0;
    // Context c of n first polls at interval * (c + 1) / (n + stagger_pad).
    uint32_t stagger_pad = 0;
    // Hold kLog records until CommitLog::IsStable (see LogApplyTarget).
    bool stability_gate = false;
  };

  LogDrain(sim::Engine* engine, store::LogApplyTarget* target, const Options& options)
      : engine_(engine), target_(target), options_(options) {}
  // Pending ticks hold `this`.
  LogDrain(const LogDrain&) = delete;
  LogDrain& operator=(const LogDrain&) = delete;

  // Start `count` contexts polling every `poll_interval` ns. Start and
  // Stop both begin a new epoch, and a tick chain lives only while its
  // start's epoch is current: it dies at its next check (before its poll,
  // and again after it), so a restart never doubles the contexts and a
  // stopped drain applies nothing.
  void Start(uint32_t count, sim::Tick poll_interval);
  void Stop();

  // Applies a write to a table at or past the store's num_tables()
  // (workload-managed structures, e.g. TPC-C B+trees replicated to
  // backups); returns the host ns to charge.
  using ApplyHook = std::function<sim::Tick(const store::LogWrite&)>;
  void set_apply_hook(ApplyHook hook) { apply_hook_ = std::move(hook); }
  // Runs once per applied (not dropped) record, before its writes are
  // costed: the caller's trace instant or counter. No simulation effect.
  using RecordHook = std::function<void(const store::LogRecordView&)>;
  void set_record_hook(RecordHook hook) { record_hook_ = std::move(hook); }

 private:
  bool Live(uint64_t epoch) const { return epoch == epoch_; }
  void Poll(sim::Tick interval, uint64_t epoch);
  // Consume up to a batch from the log's head; returns the apply work to
  // charge before the next poll.
  sim::Tick ApplyBatch();
  void Reschedule(sim::Tick interval, uint64_t epoch);
  sim::Tick Cost(sim::Tick host_cost) const;

  sim::Engine* engine_;
  store::LogApplyTarget* target_;
  Options options_;
  ApplyHook apply_hook_;
  RecordHook record_hook_;
  uint64_t epoch_ = 0;
};

}  // namespace xenic::repl

#endif  // SRC_REPL_LOG_DRAIN_H_
