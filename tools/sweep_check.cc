// Determinism checker: runs a small fixed-seed Smallbank sweep (Xenic and
// DrTM+H across three load points) through the SweepExecutor and prints the
// result table. tools/check_determinism.sh runs this binary with --jobs 1
// and --jobs 4 and diffs the output: any divergence means the thread pool
// leaked state between supposedly independent simulations, which would
// break every figure bench's reproducibility guarantee.
//
// --point-check mode runs ONE Xenic point and prints every
// simulation-derived scalar (commit counts, latency quantiles, event
// count). check_determinism.sh runs it with and without --trace and diffs:
// any divergence means tracing perturbed the simulation, breaking the
// observability layer's zero-interference contract. --trace PATH also
// exercises the Chrome trace-event export end to end.
//
// --help lists the flags (harness::FlagSet). The observer flags need
// --point-check, and --trace cannot be combined with --txn-attrib there:
// both exit 2, like an unknown flag.

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
  // The observers attach to --point-check's runs; --slo and --latency-hist
  // have nothing to read there.
  harness::FlagSet flags(
      &spec,
      harness::kFlagReplicas | harness::kFlagQuorum | harness::kFlagWorkload |
          harness::kFlagJobs | harness::kFlagSeed | harness::kRetryFlags |
          harness::kXenicFeatureFlags |
          (harness::kObserverFlags & ~(harness::kFlagSlo | harness::kFlagLatencyHist)),
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
  if (!spec.trace_path.empty() && spec.txn_attrib) {
    // Both need the engine's single trace slot on the Xenic run.
    std::fprintf(stderr, "--trace and --txn-attrib cannot be combined; run them separately\n");
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
    // One point per system (all five), observability attached per flags for
    // the first (Xenic). Every printed value is simulation-derived, so the
    // output must be byte-identical with tracing on or off -- and across
    // any refactor of the message send paths (transport-layer invariance).
    obs::TraceRecorder rec;
    for (size_t ci = 0; ci < cfgs.size(); ++ci) {
      auto wl = make_wl();
      auto system = harness::BuildSystem(cfgs[ci], *wl);
      harness::LoadWorkload(*system, *wl);
      RunConfig r = rc;
      r.contexts_per_node = 16;
      r.collect_resources = ci == 0 && spec.attrib;
      r.trace = (ci == 0 && !spec.trace_path.empty()) ? &rec : nullptr;
      // --txn-attrib: per-system critical-path collection. The point-check
      // line must stay byte-identical with this attached (enforced by
      // check_determinism.sh); the waterfall prints after it.
      obs::TxnTraceSink txn_sink;
      r.txn_trace = spec.txn_attrib ? &txn_sink : nullptr;
      // --metrics: windowed sampling on the first system (Xenic). The
      // point-check line must stay byte-identical with this attached
      // (enforced by the metrics section of check_determinism.sh); the
      // "metrics "-prefixed series print after it.
      obs::MetricRegistry reg;
      r.metrics = (ci == 0 && spec.metrics) ? &reg : nullptr;
      r.metrics_window = spec.metrics_window_us * sim::kNsPerUs;
      RunResult res = harness::RunWorkload(*system, *wl, r);
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
      if (r.metrics != nullptr) {
        std::printf("%s", reg.Lines("metrics ").c_str());
      }
      if (spec.msg_breakdown) {
        PrintMsgBreakdown(system->Name(), res);
      }
      if (spec.abort_breakdown) {
        PrintAbortBreakdown(system->Name() + " abort breakdown", res);
      }
      if (ci == 0 && spec.attrib) {
        const obs::BottleneckReport report = obs::Attribute(res.resources);
        std::printf("%s", obs::RenderAttribution(report, "point-check attribution").c_str());
      }
      if (r.txn_trace != nullptr) {
        const obs::TailAttribution attrib =
            obs::AggregateTailAttribution(std::move(res.txn_paths));
        std::printf("%s", obs::RenderTxnWaterfall(
                              attrib, system->Name() + " critical-path waterfall")
                              .c_str());
        std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n",
                    static_cast<unsigned long long>(txn_sink.zero_id_spans()),
                    static_cast<unsigned long long>(txn_sink.orphan_instants()),
                    static_cast<unsigned long long>(txn_sink.late_spans()));
      }
    }
    if (!spec.trace_path.empty()) {
      if (!rec.WriteJson(spec.trace_path)) {
        std::fprintf(stderr, "failed to write %s\n", spec.trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks)\n", spec.trace_path.c_str(),
                   rec.num_events(), rec.num_tracks());
    }
    return 0;
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
