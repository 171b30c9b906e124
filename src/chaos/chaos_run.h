// One deterministic chaos run: a seeded bank-transfer workload driven
// through a system under test (Xenic or any baseline) while a FaultPlan
// injects crashes, wire faults, eviction storms, and back-pressure windows.
// Every committed transaction's observation is recorded; at the end the run
// is audited for serializability, money conservation, leaked locks, leaked
// NIC-index pins, and undrained commit logs.
//
// Determinism contract: the verdict -- every counter, every violation
// string, and the simulator's total event count -- is a pure function of
// (ChaosConfig, seed, epoch). Two runs with the same config produce
// byte-identical Summary() output regardless of wall-clock, process, or how
// many runs execute concurrently (each run owns its engine and Rng streams).

#ifndef SRC_CHAOS_CHAOS_RUN_H_
#define SRC_CHAOS_CHAOS_RUN_H_

#include <string>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/chaos/history.h"
#include "src/harness/system_adapter.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/txn/retry_policy.h"

namespace xenic::chaos {

// Which closed-loop workload drives the run. kBank (default) is the
// money-conserving transfer mix every historical transcript uses; kYcsb is
// a small skewed YCSB instance (RMW updates, so the history checker still
// applies) without a money invariant -- its Summary omits the money line.
enum class ChaosWorkload : uint8_t { kBank = 0, kYcsb };

struct ChaosConfig {
  uint64_t seed = 1;
  uint64_t epoch = 1;
  harness::SystemConfig system;
  FaultSpec faults;

  sim::Tick horizon = 600 * sim::kNsPerUs;  // submission window
  sim::Tick drain = 200 * sim::kNsPerUs;    // post-horizon settle time
  uint32_t keys = 48;                       // bank accounts / ycsb keyspace
  uint32_t contexts_per_node = 3;           // closed-loop submitters
  int64_t initial_balance = 100;

  ChaosWorkload workload = ChaosWorkload::kBank;
  double ycsb_theta = 0.9;  // zipf skew of the kYcsb keyspace

  // Abort backoff between a submitter's transactions (chaos_runner
  // --retry-policy). Off by default: arming it draws extra Rng values, so
  // the historical per-seed transcripts stay byte-identical without it.
  bool retry_aborts = false;
  txn::RetryPolicyConfig retry;

  // Windowed time series of throughput/aborts/latency around the fault
  // windows (ChaosVerdict::Timeline()). Pure bookkeeping on existing
  // callbacks: enabling it cannot change the verdict. Bins tile exactly
  // [0, horizon + drain]; the final bin is partial (smaller width) when
  // the window does not divide the run, and completions after the drain
  // (the audit phase) are not recorded.
  bool timeline = false;
  sim::Tick timeline_window = 50 * sim::kNsPerUs;

  // Windowed metric sampling (chaos_runner --metrics): per-window
  // committed/aborted/latency series plus TxnStats deltas and the
  // conservation gauge, sampled on the timeline_window cadence via
  // obs::MetricRegistry and rendered as "metrics "-prefixed lines in
  // ChaosVerdict::metrics_text with fault markers aligned to windows.
  // Sampling slices the run into RunUntil calls at window boundaries; the
  // engine executes the identical event schedule either way, so the
  // verdict -- including events_executed -- is byte-identical with it on
  // or off (check_determinism.sh enforces this).
  bool metrics = false;
  // Declarative objectives (chaos_runner --slo) evaluated over the metric
  // windows; non-empty implies metrics sampling. Result lines (prefixed
  // "slo ") land in ChaosVerdict::slo_text.
  obs::SloSpec slo;
};

struct ChaosVerdict {
  std::string system_name;
  uint64_t seed = 0;
  uint64_t epoch = 0;

  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint32_t unfinished = 0;  // chains wedged at run end (crashed coordinators)

  FaultInjector::Stats faults;
  // Typed-drop reporting is emitted only when the fault was armed, so
  // configs without it keep their historical Summary() byte layout.
  bool typed_drop_armed = false;
  // Same convention for planned lease handoffs: the handoffs line appears
  // only when FaultSpec::planned_handoffs > 0.
  bool handoffs_armed = false;
  uint64_t frames_dropped = 0;
  uint64_t frames_duplicated = 0;
  uint64_t frames_delayed = 0;

  CheckResult check;                  // serializability verdict
  bool money_audited = true;          // false for workloads with no invariant
  int64_t expected_total = 0;         // keys * initial_balance
  int64_t actual_total = 0;           // final audit-read sum
  std::vector<std::string> failures;  // non-checker audit failures

  uint64_t events_executed = 0;  // total sim events; the determinism probe

  // Windowed completion series (empty unless ChaosConfig::timeline).
  struct TimelineBin {
    sim::Tick start = 0;
    sim::Tick width = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t lat_sum_ns = 0;  // over all completions in the bin
    uint64_t lat_max_ns = 0;
  };
  std::vector<TimelineBin> timeline;
  std::vector<FaultEvent> timeline_faults;  // planned fault markers
  // Submission horizon of the run (availability math must ignore the drain
  // tail, whose throughput decays to zero because submission stopped, not
  // because anything failed). 0 when the timeline is off.
  sim::Tick timeline_horizon = 0;

  // Windowed metric series ("metrics "-prefixed lines; empty unless
  // ChaosConfig::metrics or an SLO is armed) and the SLO objective report
  // ("slo "-prefixed lines; empty unless ChaosConfig::slo is set). Both
  // deterministic, both strippable by prefix.
  std::string metrics_text;
  std::string slo_text;

  bool ok() const { return check.ok() && failures.empty(); }
  // Deterministic multi-line report (identical across runs of one config).
  std::string Summary() const;
  // Deterministic time-series report; every line starts with "timeline "
  // so callers (and check_determinism.sh) can strip it, keeping the
  // default output byte-identical with the feature off.
  std::string Timeline() const;
};

ChaosVerdict RunChaos(const ChaosConfig& config);

// Availability transient of one fault, measured against the pre-fault
// commit-throughput baseline of the timeline bins. All math is integer so
// the derived lines obey the same byte-determinism contract as the rest of
// the transcript.
struct AvailStat {
  FaultEvent fault;
  uint32_t dip_depth_pct = 0;  // worst per-bin commit deficit vs baseline
  uint64_t dip_width_us = 0;   // fault bin until throughput back over 90%
  uint64_t degraded_us = 0;    // deficit-weighted service time lost
};

struct AvailabilityReport {
  // Baseline committed-per-bin as the exact ratio num/den (den = number of
  // bins averaged); kept unreduced so comparisons stay in integers.
  uint64_t baseline_num = 0;
  uint64_t baseline_den = 0;
  std::vector<AvailStat> per_fault;
  uint64_t degraded_service_us = 0;  // sum over faults, integer microseconds
  // Deficit-weighted degraded service accrued per timeline window (summed
  // across faults, indexed like the clamped bins) -- the "degraded service
  // live" series the metrics layer exports. Per-window integer division
  // rounds each window down independently, so the sum can undershoot
  // degraded_service_us by at most one us per window.
  std::vector<uint64_t> degraded_us_per_window;
};

// Derive per-fault dip depth/width and total degraded service time from a
// completed run's timeline. Baseline throughput is averaged over the bins
// strictly before the first fault (over all bins if a fault lands in bin
// 0); a fault's dip ends at the first bin whose committed count recovers to
// >= 90% of baseline. Overlapping faults are each measured independently.
// Bins past `horizon` (the submission window; 0 = no clamp) are excluded --
// the drain tail decays to zero by construction, not by fault.
AvailabilityReport ComputeAvailability(const std::vector<ChaosVerdict::TimelineBin>& bins,
                                       const std::vector<FaultEvent>& faults,
                                       sim::Tick horizon = 0);

}  // namespace xenic::chaos

#endif  // SRC_CHAOS_CHAOS_RUN_H_
