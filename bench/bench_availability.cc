// Availability-transient comparison: crash failover vs planned lease
// handoff, same seed, same fault instant.
//
// The paper's replication story is that a SmartNIC-hosted log applier keeps
// backups continuously up to date, so a PLANNED primary departure (drain,
// rebalance, rolling upgrade) needs no lease-expiry wait, no log scan, and
// no cluster-wide sweep -- the lease moves and service continues. A crash,
// by contrast, pays the full detection delay plus the epoch sweep. This
// bench makes that difference a number: it runs the chaos bank workload
// twice with identical seeds -- once with one crash, once with one planned
// handoff at the SAME (instant, victim) draw (FaultPlan::Generate draws
// handoff placements from the same Rng positions as crashes) -- and
// measures the commit-throughput dip around the fault from the run's
// timeline bins (depth, width, deficit-weighted degraded service time).
//
// The crash run uses a realistic lease-expiry detection delay (--detect-us,
// default 100us; the repo's chaos default of 8us is nearly instant and
// makes even crashes invisible at timeline resolution). The handoff run
// inherits the same spec but never waits on detection. Both runs enable the
// NIC log applier, the subsystem that makes instant promotion sound.
//
// Output: a table plus BENCH_avail.json (per-scenario dip depth/width and
// degraded_service_seconds) for EXPERIMENTS.md and regression tracking.
//
// Flags (--help lists them): --seed, --detect-us, --window-us, --replicas,
// and --jobs, accepted for uniformity with the sweep benches (runs are
// serial).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/chaos/chaos_run.h"

namespace {

using namespace xenic;
using chaos::AvailabilityReport;
using chaos::ChaosConfig;
using chaos::ChaosVerdict;

struct Scenario {
  const char* name;
  ChaosVerdict verdict;
  AvailabilityReport avail;
};

Scenario RunScenario(const char* name, const ChaosConfig& config) {
  Scenario s;
  s.name = name;
  s.verdict = chaos::RunChaos(config);
  s.avail = chaos::ComputeAvailability(s.verdict.timeline, s.verdict.timeline_faults,
                                       s.verdict.timeline_horizon);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  harness::RunSpec spec;
  uint64_t window_us = 20;
  harness::FlagSet flags(&spec, harness::kFlagSeed | harness::kFlagDetectUs |
                                    harness::kFlagReplicas | harness::kFlagJobs);
  flags.Add("--window-us", "US", "timeline bin width in microseconds (default 20)",
            harness::FlagSet::Uint(&window_us, 1));
  flags.Parse(argc, argv);
  const uint64_t seed = spec.seed.value_or(3);
  const uint64_t detect_us = spec.detect_us.value_or(100);

  ChaosConfig base;
  base.seed = seed;
  base.system.replication = spec.replicas;
  base.system.features.nic_log_apply = true;
  base.faults.crashes = 0;
  base.faults.eviction_storms = 0;
  base.faults.stall_windows = 0;
  base.faults.drop_prob = 0;
  base.faults.dup_prob = 0;
  base.faults.delay_prob = 0;
  base.faults.detection_delay = detect_us * sim::kNsPerUs;
  base.timeline = true;
  base.timeline_window = window_us * sim::kNsPerUs;

  ChaosConfig crash = base;
  crash.faults.crashes = 1;
  ChaosConfig handoff = base;
  handoff.faults.planned_handoffs = 1;

  std::vector<Scenario> scenarios;
  scenarios.push_back(RunScenario("crash", crash));
  scenarios.push_back(RunScenario("planned_handoff", handoff));

  TablePrinter tp({"scenario", "fault_at_us", "committed", "dip_depth_pct", "dip_width_us",
                   "degraded_service_s", "verdict"});
  std::vector<bench::JsonObject> rows;
  bool all_ok = true;
  for (const Scenario& s : scenarios) {
    all_ok = all_ok && s.verdict.ok();
    // One injected fault per run, but report the worst dip defensively.
    uint64_t at_us = 0;
    uint32_t depth = 0;
    uint64_t width = 0;
    for (const auto& a : s.avail.per_fault) {
      at_us = a.fault.at / sim::kNsPerUs;
      depth = std::max(depth, a.dip_depth_pct);
      width = std::max(width, a.dip_width_us);
    }
    const double degraded_s = static_cast<double>(s.avail.degraded_service_us) / 1e6;
    tp.AddRow({s.name, std::to_string(at_us), std::to_string(s.verdict.committed),
               std::to_string(depth), std::to_string(width), TablePrinter::Fmt(degraded_s, 6),
               s.verdict.ok() ? "PASS" : "FAIL"});
    rows.push_back(bench::JsonObject()
                       .Str("scenario", s.name)
                       .Int("fault_at_us", at_us)
                       .Int("committed", s.verdict.committed)
                       .Int("dip_depth_pct", depth)
                       .Int("dip_width_us", width)
                       .Num("degraded_service_seconds", degraded_s, 6));
  }

  std::printf("%s\n",
              tp.Render("Availability: crash vs planned handoff (same seed, same instant)")
                  .c_str());

  bench::WriteBenchFile("BENCH_avail.json",
                        bench::JsonObject()
                            .Str("bench", "availability")
                            .Str("workload", "chaos-bank")
                            .Int("seed", seed)
                            .Int("detect_us", detect_us)
                            .Int("window_us", window_us)
                            .Int("replicas", spec.replicas)
                            .List("scenarios", rows),
                        {bench::Metric("committed", "txns", "higher", 0.05),
                         bench::Metric("dip_depth_pct", "%", "lower", 0.05),
                         bench::Metric("dip_width_us", "us", "lower", 0.05),
                         bench::Metric("degraded_service_seconds", "s", "lower", 0.05)});
  return all_ok ? 0 : 1;
}
