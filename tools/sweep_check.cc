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

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/workload/smallbank.h"
#include "src/workload/ycsb.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  bool point_check = false;
  std::string workload_name = "smallbank";
  uint32_t replication = 3;
  uint32_t quorum = 0;  // 0 = historical wait-for-all commit
  // This tool's own flags are consumed here; the rest go to BenchOptions,
  // which rejects anything it does not know.
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--point-check") == 0) {
      point_check = true;
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      workload_name = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replication = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--replicas=", 11) == 0) {
      replication = static_cast<uint32_t>(std::strtoul(argv[i] + 11, nullptr, 10));
    } else if (std::strcmp(argv[i], "--quorum") == 0 && i + 1 < argc) {
      quorum = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--quorum=", 9) == 0) {
      quorum = static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else {
      rest.push_back(argv[i]);
    }
  }
  const int rest_argc = static_cast<int>(rest.size());
  SweepExecutor ex(SweepExecutor::ParseJobsFlag(rest_argc, rest.data()));
  const BenchOptions opts = BenchOptions::Parse(rest_argc, rest.data());
  if (workload_name != "smallbank" && workload_name != "ycsb") {
    std::fprintf(stderr, "unknown --workload '%s' (smallbank|ycsb)\n", workload_name.c_str());
    return 2;
  }

  const uint32_t nodes = 3;
  auto make_wl = [&]() -> std::unique_ptr<workload::Workload> {
    if (workload_name == "ycsb") {
      workload::Ycsb::Options wo;
      wo.num_nodes = nodes;
      wo.keys_per_node = 20000;
      wo.zipf_theta = 0.9;
      return std::make_unique<workload::Ycsb>(wo);
    }
    workload::Smallbank::Options wo;
    wo.num_nodes = nodes;
    wo.accounts_per_node = 20000;
    return std::make_unique<workload::Smallbank>(wo);
  };

  RunConfig rc;
  rc.seed = 7;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 400 * sim::kNsPerUs;

  std::vector<SystemConfig> cfgs;
  SystemConfig xenic_cfg;
  xenic_cfg.kind = SystemConfig::Kind::kXenic;
  xenic_cfg.num_nodes = nodes;
  xenic_cfg.replication = replication;
  xenic_cfg.quorum = quorum;
  cfgs.push_back(xenic_cfg);
  SystemConfig drtmh;
  drtmh.kind = SystemConfig::Kind::kBaseline;
  drtmh.mode = baseline::BaselineMode::kDrtmH;
  drtmh.num_nodes = nodes;
  drtmh.replication = replication;
  drtmh.quorum = quorum;
  cfgs.push_back(drtmh);

  if (point_check) {
    // One point per system (all five), observability attached per flags for
    // the first (Xenic). Every printed value is simulation-derived, so the
    // output must be byte-identical with tracing on or off -- and across
    // any refactor of the message send paths (transport-layer invariance).
    std::vector<SystemConfig> all = Figure8Systems(nodes);
    for (SystemConfig& c : all) {
      c.replication = replication;
      c.quorum = quorum;
    }
    ApplyContentionOptions(opts, &rc, &all);
    obs::TraceRecorder rec;
    for (size_t ci = 0; ci < all.size(); ++ci) {
      auto wl = make_wl();
      auto system = harness::BuildSystem(all[ci], *wl);
      harness::LoadWorkload(*system, *wl);
      RunConfig r = rc;
      r.contexts_per_node = 16;
      r.collect_resources = ci == 0 && opts.attrib;
      r.trace = (ci == 0 && !opts.trace_path.empty()) ? &rec : nullptr;
      // --txn-attrib: per-system critical-path collection. The point-check
      // line must stay byte-identical with this attached (enforced by
      // check_determinism.sh); the waterfall prints after it.
      obs::TxnTraceSink txn_sink;
      r.txn_trace = (opts.txn_attrib && r.trace == nullptr) ? &txn_sink : nullptr;
      // --metrics: windowed sampling on the first system (Xenic). The
      // point-check line must stay byte-identical with this attached
      // (enforced by the metrics section of check_determinism.sh); the
      // "metrics "-prefixed series print after it.
      obs::MetricRegistry reg;
      r.metrics = (ci == 0 && opts.metrics) ? &reg : nullptr;
      r.metrics_window = opts.metrics_window_us * sim::kNsPerUs;
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
      if (opts.msg_breakdown) {
        PrintMsgBreakdown(system->Name(), res);
      }
      if (opts.abort_breakdown) {
        PrintAbortBreakdown(system->Name() + " abort breakdown", res);
      }
      if (ci == 0 && opts.attrib) {
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
    if (!opts.trace_path.empty()) {
      if (!rec.WriteJson(opts.trace_path)) {
        std::fprintf(stderr, "failed to write %s\n", opts.trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks)\n", opts.trace_path.c_str(),
                   rec.num_events(), rec.num_tracks());
    }
    return 0;
  }

  const std::vector<uint32_t> loads = {4, 16, 48};
  ApplyContentionOptions(opts, &rc, &cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  // PrintCurves emits only simulation-derived values (no wall-clock), so
  // the output is byte-comparable across --jobs settings.
  PrintCurves("Determinism check: " + workload_name + ", fixed seed", curves);
  return 0;
}
