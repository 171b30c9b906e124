// Resource: a k-server FIFO service center.
//
// Models pools of execution units with queueing: host cores, NIC cores, DMA
// engine queues, RDMA NIC processing pipelines. Each submitted job occupies
// one server for its service time; excess jobs wait in FIFO order. Busy-time
// accounting supports utilization-law sanity checks in tests and the
// Table 3 thread-count analysis.
//
// Ordering: jobs are granted servers in submission order. A job's `done`
// runs at grant time + service, in the job's own trace context (the one
// current when it was submitted); completions at the same tick run in grant
// order. Inside a completion the next waiting job is granted the freed
// server before `done` runs, so a `done` that re-submits joins the back of
// the queue.
//
// Queueing observability: every job's wait (submit -> server grant) feeds
// cheap always-on scalars (total wait, jobs started, peak queue depth) and,
// when a histogram is attached (obs::ResourceMonitor), a full wait-time
// distribution. When an Engine trace sink is attached, each job's service
// interval is emitted as a span. Neither path schedules events or alters
// timing: accounting is invisible to the simulation.
//
// Allocation: queued and in-service jobs live in one SlotTable, and the
// wait queue is a FIFO list threaded through those slots, so a grant's
// completion event captures only {this, slot} and stays inline. After the
// table has grown to the peak number of jobs in flight, Submit and its
// completion make no heap allocation beyond what `done` itself carries.

#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>
#include <string>

#include "src/common/histogram.h"
#include "src/sim/engine.h"
#include "src/sim/slot_table.h"

namespace xenic::sim {

class Resource {
 public:
  Resource(Engine* engine, std::string name, uint32_t servers);

  // Occupy one server for `service` ns, then run `done`. Jobs queue FIFO.
  void Submit(Tick service, Engine::Callback done);

  // Number of servers (can be lowered/raised between runs for Table 3).
  uint32_t servers() const { return servers_; }
  void set_servers(uint32_t servers) { servers_ = servers; }

  const std::string& name() const { return name_; }
  uint32_t busy() const { return busy_; }
  size_t queue_depth() const { return queued_; }
  uint64_t completed() const { return completed_; }
  Tick busy_time() const { return busy_time_; }

  // --- Queueing accounting (since the last ResetStats) ---
  Tick wait_time_total() const { return wait_time_total_; }
  uint64_t jobs_started() const { return jobs_started_; }
  size_t peak_queue_depth() const { return peak_queue_depth_; }
  double MeanWaitNs() const {
    return jobs_started_ == 0
               ? 0.0
               : static_cast<double>(wait_time_total_) / static_cast<double>(jobs_started_);
  }
  // Attach (or detach, with nullptr) a wait-time histogram. Each job's
  // queueing delay is recorded at server-grant time. The histogram is owned
  // by the caller and is pure bookkeeping: attaching one cannot perturb the
  // simulation.
  void set_wait_histogram(Histogram* hist) { wait_hist_ = hist; }

  // Fraction of server capacity used over `window` ns. Guards window == 0
  // (no elapsed time => nothing meaningful to report, not a divide-by-zero)
  // and servers_ == 0 (possible through set_servers between runs).
  double Utilization(Tick window) const {
    if (window == 0 || servers_ == 0) {
      return 0.0;
    }
    return static_cast<double>(busy_time_) / (static_cast<double>(window) * servers_);
  }

  void ResetStats() {
    busy_time_ = 0;
    completed_ = 0;
    wait_time_total_ = 0;
    jobs_started_ = 0;
    peak_queue_depth_ = 0;
  }

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  struct Job {
    Tick service;
    Tick enqueued;
    uint64_t ctx;  // transaction context at submit time (0 = none)
    uint32_t next;  // next waiting job's slot (wait queue only)
    Engine::Callback done;
  };

  void Start(uint32_t slot);
  void Finish(uint32_t slot);
  void EnsureTracks(TraceSink* t);

  Engine* engine_;
  std::string name_;
  uint32_t servers_;
  uint32_t busy_ = 0;
  SlotTable<Job> jobs_;
  // FIFO of waiting jobs, linked through Job::next.
  uint32_t wait_head_ = kNoSlot;
  uint32_t wait_tail_ = kNoSlot;
  size_t queued_ = 0;
  Tick busy_time_ = 0;
  uint64_t completed_ = 0;
  Tick wait_time_total_ = 0;
  uint64_t jobs_started_ = 0;
  size_t peak_queue_depth_ = 0;
  Histogram* wait_hist_ = nullptr;
  // Cached trace registration (lazily refreshed when a new sink appears).
  // Service intervals and queue waits go to separate lanes so a consumer
  // can tell busy time from head-of-line blocking per transaction.
  TraceSink* trace_sink_ = nullptr;
  uint32_t trace_track_ = 0;
  uint32_t trace_wait_track_ = 0;
};

}  // namespace xenic::sim

#endif  // SRC_SIM_RESOURCE_H_
