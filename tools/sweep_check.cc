// Determinism checker: runs a small fixed-seed Smallbank sweep (Xenic and
// DrTM+H across three load points) through the SweepExecutor and prints the
// result table. tools/check_determinism.sh runs this binary with --jobs 1
// and --jobs 4 and diffs the output: any divergence means the thread pool
// leaked state between supposedly independent simulations, which would
// break every figure bench's reproducibility guarantee.
//
// --point-check mode runs ONE point per system and prints every
// simulation-derived scalar (commit counts, latency quantiles, event
// count). check_determinism.sh runs it with and without the observers and
// diffs: any divergence means an observer perturbed the simulation,
// breaking the observability layer's zero-interference contract. The
// observers attach through harness::Observers, as in xenicsim and the
// benches: each prints its sections after its system's line, --trace PATH
// records the first system (exercising the Chrome trace-event export end
// to end), and point_check.report.json holds every system's entry.
//
// --help lists the flags (harness::FlagSet). The observer flags need
// --point-check: without it they exit 2, like an unknown flag.

#include <string>
#include <vector>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  const uint32_t nodes = 3;
  harness::RunSpec spec;
  spec.nodes = nodes;  // fixed; Validate checks --replicas against it
  spec.workload = "smallbank";
  bool point_check = false;
  // The observers attach to --point-check's runs.
  harness::FlagSet flags(
      &spec,
      harness::kFlagReplicas | harness::kFlagQuorum | harness::kFlagWorkload |
          harness::kFlagJobs | harness::kFlagSeed | harness::kRetryFlags |
          harness::kXenicFeatureFlags | harness::kObserverFlags,
      "workloads: smallbank | ycsb (the determinism matrix)\n");
  flags.Add("--point-check", nullptr, "one point per system, printing every simulated scalar",
            harness::FlagSet::On(&point_check));
  flags.Parse(argc, argv);
  if (spec.workload != "smallbank" && spec.workload != "ycsb") {
    std::fprintf(stderr, "unknown --workload '%s' (smallbank|ycsb)\n", spec.workload.c_str());
    return 2;
  }
  if (!point_check && spec.Observed()) {
    std::fprintf(stderr, "observer flags need --point-check; the sweep prints only its table\n");
    return 2;
  }
  auto make_wl = [&] { return harness::MakeWorkload(spec.workload, nodes, 20000); };

  RunConfig rc;
  rc.seed = 7;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 400 * sim::kNsPerUs;
  spec.ApplyTo(&rc);

  // The point-check runs all five systems; the sweep Xenic and DrTM+H.
  std::vector<SystemConfig> cfgs = Figure8Systems(nodes, spec.replicas);
  for (SystemConfig& c : cfgs) {
    c.quorum = spec.quorum;
  }
  spec.ApplyTo(&cfgs);

  if (point_check) {
    // One point per system (all five), every requested observer attached
    // to each. Every printed scalar is simulation-derived, so the output
    // must be byte-identical with the observers on or off -- and across
    // any refactor of the message send paths (transport-layer invariance).
    harness::RunReport report{"point_check"};
    for (size_t ci = 0; ci < cfgs.size(); ++ci) {
      auto wl = make_wl();
      auto system = harness::BuildSystem(cfgs[ci], *wl);
      harness::LoadWorkload(*system, *wl);
      harness::Observers observers(spec, /*trace=*/ci == 0);
      RunConfig r = rc;
      r.contexts_per_node = 16;
      observers.AttachTo(&r);
      const RunResult res = harness::RunWorkload(*system, *wl, r);
      std::printf("point-check[%s]: committed=%llu aborted=%llu counted=%llu median_ns=%llu "
                  "p99_ns=%llu max_ns=%llu sim_events=%llu window_ns=%llu\n",
                  system->Name().c_str(), static_cast<unsigned long long>(res.committed),
                  static_cast<unsigned long long>(res.aborted),
                  static_cast<unsigned long long>(res.latency.count()),
                  static_cast<unsigned long long>(res.latency.Median()),
                  static_cast<unsigned long long>(res.latency.P99()),
                  static_cast<unsigned long long>(res.latency.max()),
                  static_cast<unsigned long long>(res.sim_events),
                  static_cast<unsigned long long>(res.measure_window));
      observers.Print(system->Name(), r.contexts_per_node, res, &report);
    }
    if (spec.Observed()) {
      report.Write("point_check");
    }
    return report.trace_failed ? 1 : 0;
  }

  const std::vector<uint32_t> loads = {4, 16, 48};
  cfgs.resize(2);
  SweepExecutor ex(spec.jobs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  // PrintCurves emits only simulation-derived values (no wall-clock), so
  // the output is byte-comparable across --jobs settings.
  PrintCurves("Determinism check: " + spec.workload + ", fixed seed", curves);
  return 0;
}
