// Seeded chaos runner CLI.
//
// Runs one deterministic chaos schedule per seed -- crashes + recovery,
// wire faults, NIC-index eviction storms, commit-log back-pressure -- and
// audits the surviving history (serializability, money conservation, leaked
// locks/pins, log drain). Output is a pure function of the flags: the same
// seed prints the same verdict and the same simulator event count on every
// run and for every --jobs value, which tools/check_determinism.sh relies
// on. Exit status is 0 iff every seed's verdict is PASS.
//
// Usage: chaos_runner [flags]; --help lists them. Flags go through
// harness::FlagSet, as in every front-end: `--flag V` and `--flag=V` both
// work. The system, workload, retry, observer and --jobs flags are the
// shared ones (harness::RunSpec); the fault, seed-range and timeline flags
// are this tool's own. An unknown flag, a value that does not parse
// completely (numbers are unsigned decimals, --drop/--dup/--delay
// probabilities in [0, 1], and --backoff-base, --retry-cap and
// --timeline-window-us at least 1), or a spec that harness::Validate
// rejects exits 2 before any run starts.
//
// --cc selects the concurrency-control policy of Xenic systems (default
// occ, the historical pipeline; the 2PL policies change event schedules, so
// their transcripts are separate from the per-seed goldens). --workload
// ycsb swaps the bank-transfer mix for a skewed YCSB keyspace; it has no
// money invariant, so the summary omits the money line.
//
// --retry-policy arms contention-scaled backoff between a submitter's
// transactions (off by default -- arming draws extra Rng values, so the
// historical per-seed transcripts require it off). --hot-key-path /
// --adaptive-dma flip the corresponding Xenic features under chaos.
//
// --drop-type arms the transport-layer typed drop: every message matching
// NAME (a net::MsgType name such as "validate", or "<x>_reply" for the ACKs
// acknowledging <x>, e.g. "validate_reply") sent by --drop-node (default 0)
// is dropped and redelivered by link-layer retransmit. Xenic systems only.
//
// --replicas / --quorum size the replication group (quorum counts the
// primary; 0 or >= replicas keeps the historical wait-for-all commit).
// --handoffs schedules N planned lease handoffs: the primary role of a live
// node moves to its first live backup without a crash or log sweep (Xenic
// systems only; baselines count them as skipped). --nic-log-apply moves
// backup log apply onto the NIC ARM cores (continuous apply); adding
// --replica-reads lets a backup's node serve single-shard read-only
// transactions locally behind a freshness fence (requires --nic-log-apply).
//
// --timeline appends a windowed throughput/abort/latency time series (with
// planned-fault markers) after each seed's summary, followed by "timeline
// avail" lines quantifying each fault's availability dip (depth, width,
// degraded_service_seconds). Every extra line starts with "timeline ", and
// the summaries themselves are byte-identical with the flag on or off
// (check_determinism.sh enforces it).

#include <cstdio>
#include <string>
#include <vector>

#include "src/chaos/chaos_run.h"
#include "src/harness/run_spec.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using harness::FlagSet;

  chaos::ChaosConfig base;
  base.faults.crashes = 1;
  base.faults.eviction_storms = 2;
  base.faults.stall_windows = 1;
  base.faults.drop_prob = 0.01;
  base.faults.dup_prob = 0.01;
  base.faults.delay_prob = 0.02;

  harness::RunSpec spec;
  spec.workload = "bank";
  uint64_t seed_lo = 1;
  uint64_t seed_hi = 1;
  size_t log_capacity = base.system.log_capacity;
  FlagSet flags(&spec,
                harness::kFlagSystem | harness::kFlagNodes | harness::kFlagReplicas |
                    harness::kFlagQuorum | harness::kFlagCc | harness::kFlagHotKeyPath |
                    harness::kFlagAdaptiveDma | harness::kFlagNicLogApply |
                    harness::kFlagReplicaReads | harness::kFlagWorkload | harness::kFlagSeed |
                    harness::kRetryFlags | harness::kFlagDetectUs | harness::kFlagJobs |
                    harness::kFlagMetrics | harness::kFlagSlo,
                "workloads: bank | ycsb (default bank)\n");
  flags.Add("--seeds", "A-B", "run every seed from A to B", [&](const char* flag, const char* v) {
    const std::string range = v;
    const size_t dash = range.find('-');
    if (dash == std::string::npos) {
      RejectFlagValue(flag, v, "A-B");
    }
    seed_lo = FlagUint(flag, range.substr(0, dash).c_str());
    seed_hi = FlagUint(flag, range.substr(dash + 1).c_str());
    spec.seed.reset();  // the later of --seed and --seeds wins
  });
  flags.Add("--epoch", "N", "fault-plan epoch (default 1)", FlagSet::Uint(&base.epoch));
  flags.Add("--horizon-us", "US", "submission window in microseconds (default 600)",
            FlagSet::Micros(&base.horizon));
  flags.Add("--crashes", "N", "node crashes (default 1)", FlagSet::Uint(&base.faults.crashes));
  flags.Add("--handoffs", "N", "planned lease handoffs (default 0)",
            FlagSet::Uint(&base.faults.planned_handoffs));
  flags.Add("--storms", "N", "NIC-index eviction storms (default 2)",
            FlagSet::Uint(&base.faults.eviction_storms));
  flags.Add("--stalls", "N", "commit-log back-pressure windows (default 1)",
            FlagSet::Uint(&base.faults.stall_windows));
  flags.Add("--drop", "P", "per-frame drop probability (default 0.01)",
            FlagSet::Probability(&base.faults.drop_prob));
  flags.Add("--dup", "P", "per-frame duplicate probability (default 0.01)",
            FlagSet::Probability(&base.faults.dup_prob));
  flags.Add("--delay", "P", "per-frame delay probability (default 0.02)",
            FlagSet::Probability(&base.faults.delay_prob));
  flags.Add("--log-capacity", "N", "commit-log ring records per node (default 65536)",
            FlagSet::Uint(&log_capacity));
  flags.Add("--drop-type", "NAME", "drop every message of this type that --drop-node sends",
            [&](const char* flag, const char* v) {
              if (!net::ParseMsgSelector(v, &base.faults.typed_drop)) {
                RejectFlagValue(flag, v, "a message type, such as validate or validate_reply");
              }
              if (base.faults.typed_drop_node < 0) {
                base.faults.typed_drop_node = 0;
              }
            });
  flags.Add("--drop-node", "N", "sender of --drop-type's drops (default 0)",
            FlagSet::Uint(&base.faults.typed_drop_node));
  flags.Add("--timeline", nullptr, "append each seed's windowed time series and fault dips",
            FlagSet::On(&base.timeline));
  flags.Add("--timeline-window-us", "US",
            "timeline and --metrics window in microseconds (default 50)",
            FlagSet::Micros(&base.timeline_window, 1));
  flags.Parse(argc, argv);

  if (spec.workload == "ycsb") {
    base.workload = chaos::ChaosWorkload::kYcsb;
  } else if (spec.workload != "bank") {
    std::fprintf(stderr, "unknown --workload %s (bank|ycsb)\n", spec.workload.c_str());
    return 2;
  }
  if (spec.seed) {
    seed_lo = seed_hi = *spec.seed;
  }
  if (seed_hi < seed_lo) {
    std::fprintf(stderr, "empty seed range\n");
    return 2;
  }
  base.system = spec.System();
  base.system.log_capacity = log_capacity;
  base.retry_aborts = spec.retry_policy.has_value();
  spec.ApplyTo(&base.retry);
  if (spec.detect_us) {
    // The default 8us is almost instant; realistic lease timeouts are tens
    // of microseconds, which is exactly the availability gap planned
    // handoff closes.
    base.faults.detection_delay = *spec.detect_us * sim::kNsPerUs;
  }
  base.metrics = spec.metrics;
  base.slo = spec.slo;

  harness::SweepExecutor ex(spec.jobs);

  std::vector<std::function<chaos::ChaosVerdict()>> tasks;
  for (uint64_t s = seed_lo; s <= seed_hi; ++s) {
    chaos::ChaosConfig config = base;
    config.seed = s;
    tasks.push_back([config] { return chaos::RunChaos(config); });
  }
  const std::vector<chaos::ChaosVerdict> verdicts = ex.Map(tasks);

  bool all_ok = true;
  for (const chaos::ChaosVerdict& v : verdicts) {
    std::fputs(v.Summary().c_str(), stdout);
    if (base.timeline) {
      std::fputs(v.Timeline().c_str(), stdout);
    }
    // "metrics " / "slo " lines are strippable by prefix, like "timeline ".
    std::fputs(v.metrics_text.c_str(), stdout);
    std::fputs(v.slo_text.c_str(), stdout);
    std::fputs("\n", stdout);
    all_ok = all_ok && v.ok();
  }
  std::printf("%zu seed(s): %s\n", verdicts.size(), all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
