// Closed-loop benchmark runner: per-node application contexts submit
// transactions back-to-back (retrying OCC aborts with randomized backoff),
// the engine runs a warmup window and a measurement window, and the result
// reports committed throughput per server with latency percentiles --
// matching the paper's measurement methodology (per-server average
// throughput, median latency of committed transactions).

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/histogram.h"
#include "src/harness/system_adapter.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/resource_stats.h"
#include "src/obs/txn_trace.h"
#include "src/sim/trace.h"
#include "src/txn/retry_policy.h"
#include "src/workload/workload.h"

namespace xenic::harness {

struct RunConfig {
  uint32_t contexts_per_node = 8;  // offered load (closed loop)
  sim::Tick warmup = 200 * sim::kNsPerUs;
  sim::Tick measure = 1500 * sim::kNsPerUs;
  uint64_t seed = 1;
  // Abort-retry policy (kind, backoff base/cap, retry cap). The default --
  // uniform with a 4us base -- reproduces the historical fixed backoff
  // byte-for-byte (same single Rng draw per retry).
  txn::RetryPolicyConfig retry;

  // --- Observability (pure bookkeeping; cannot change results) ---
  // Collect per-resource queueing snapshots into RunResult::resources.
  bool collect_resources = false;
  // Attach this sink to the engine for the run (spans for every resource
  // service interval, txn phase, etc.); detached before returning.
  sim::TraceSink* trace = nullptr;
  // Per-transaction critical-path collection: this sink is attached too
  // (through a tee when `trace` is set) and the runner extracts a
  // BucketBreakdown for every counted committed transaction into
  // RunResult::txn_paths, linking retries via the redo bucket.
  obs::TxnTraceSink* txn_trace = nullptr;
  // Windowed metric sampling over the measurement window. When set, the
  // runner registers the standard sources (txn_committed / txn_aborted /
  // txn_latency_ns, the TxnStats breakdown as per-window deltas, the
  // conservation gauge, and one gauge + cumulative pair per
  // SystemAdapter::ForEachResource entry), then slices the measurement
  // RunFor into RunUntil calls every metrics_window ticks. RunUntil never
  // schedules, so the event sequence -- and every result scalar -- is
  // byte-identical with this on or off (check_determinism.sh enforces it).
  obs::MetricRegistry* metrics = nullptr;
  sim::Tick metrics_window = 50 * sim::kNsPerUs;
};

struct RunResult {
  double tput_per_server = 0;  // counted committed txns / second / server
  Histogram latency;           // ns, counted committed txns, incl. retries
  uint64_t committed = 0;      // all committed (counted or not)
  uint64_t aborted = 0;        // OCC aborts (before any successful retry)
  double abort_rate = 0;       // aborts / (aborts + committed)
  double wire_utilization = 0;
  double host_utilization = 0;
  double nic_utilization = 0;
  uint64_t dma_ops = 0;    // SmartNIC DMA engine operations in the window
  uint64_t dma_bytes = 0;  // ... and their payload bytes

  // Cluster-wide protocol stats over the measurement window (captured right
  // at window close, before the drain), including the per-message-type
  // breakdown maintained by the transport layer.
  txn::TxnStats txn_stats;

  // Simulator self-performance: events executed over warmup + measure,
  // taken when the measurement window closes (the teardown's stop and
  // drain are not counted, so the count depends on the run alone), and the
  // host wall-clock rate at which the engine dispatched them. Diagnostic
  // only -- never feeds a simulated metric, so results stay
  // bit-deterministic.
  uint64_t sim_events = 0;
  double wall_seconds = 0;
  double sim_events_per_sec = 0;

  // Per-resource queueing snapshots over the measurement window (empty
  // unless RunConfig::collect_resources), plus the window length they were
  // normalized against.
  std::vector<obs::ResourceSnapshot> resources;
  sim::Tick measure_window = 0;

  // One critical-path breakdown per counted committed transaction (empty
  // unless RunConfig::txn_trace). Feed to obs::AggregateTailAttribution.
  std::vector<obs::BucketBreakdown> txn_paths;

  double MedianLatencyUs() const { return static_cast<double>(latency.Median()) / 1e3; }
  double P99LatencyUs() const { return static_cast<double>(latency.P99()) / 1e3; }
  // NaN when nothing committed, so tables render "--" instead of a fake 0.
  double P999LatencyUs() const {
    if (latency.count() == 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return static_cast<double>(latency.P999()) / 1e3;
  }
};

// The run's contexts live in one state that `system` retains
// (SystemAdapter::Retain): attempts still in flight or backing off when the
// run stops complete during a later run on the same system, and count
// nowhere. Each context keeps one request: every outcome hands it back
// (TxnResult::request), an abort's retry resubmits it by move, and the
// context's next transaction is built into it (Workload::NextTxnInto).
RunResult RunWorkload(SystemAdapter& system, workload::Workload& workload,
                      const RunConfig& config);

}  // namespace xenic::harness

#endif  // SRC_HARNESS_RUNNER_H_
