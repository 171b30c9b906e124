// xenic_sim: command-line driver for the simulated cluster.
//
//   xenicsim --system=xenic --workload=smallbank --nodes=6 --contexts=64
//            --measure-us=1000 [--replicas=3] [--seed=1] [--csv]
//            [--attrib] [--trace=out.trace.json]
//
// Systems:   xenic | drtmh | drtmh-nc | fasst | drtmr
// Workloads: smallbank | retwis | tpcc | tpcc-no | ycsb
//
// Prints a one-run summary (throughput per server, latency percentiles,
// abort rate, resource utilization); --csv emits a machine-readable line.
// --attrib adds the per-resource bottleneck-attribution table; --trace
// writes the run as Chrome trace-event JSON (about:tracing / Perfetto).
//
// Flags go through harness::FlagSet, as in every front-end: `--flag V` and
// `--flag=V` both work, and --help lists them. An unknown flag, a value that
// does not parse completely, a zero --contexts or --measure-us, a spec that
// harness::Validate rejects, an unknown --workload, and --trace together
// with --txn-attrib (each needs the engine's single trace slot) exit 2.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/common/output_file.h"
#include "src/common/table_printer.h"
#include "src/harness/run_spec.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"

int main(int argc, char** argv) {
  using namespace xenic;

  harness::RunSpec spec;
  spec.workload = "smallbank";
  uint32_t contexts = 32;
  uint64_t measure_us = 1000;
  uint64_t scale = 0;  // per-node keys/accounts/warehouses; 0 = default
  bool csv = false;
  harness::FlagSet flags(
      &spec,
      harness::kFlagSystem | harness::kFlagNodes | harness::kFlagReplicas |
          harness::kFlagQuorum | harness::kFlagHotKeyPath | harness::kFlagAdaptiveDma |
          harness::kFlagNicLogApply | harness::kFlagReplicaReads | harness::kFlagWorkload |
          harness::kFlagSeed | harness::kRetryFlags | harness::kFlagAttrib |
          harness::kFlagTxnAttrib | harness::kFlagAbortBreakdown | harness::kFlagMetrics |
          harness::kFlagMetricsWindowUs | harness::kFlagSlo | harness::kFlagTrace,
      "workloads: smallbank | retwis | tpcc | tpcc-no | ycsb (default smallbank)\n");
  flags.Add("--contexts", "C", "closed-loop contexts per node (default 32)",
            harness::FlagSet::Uint(&contexts, 1));
  flags.Add("--measure-us", "T", "measurement window in microseconds (default 1000)",
            harness::FlagSet::Uint(&measure_us, 1));
  flags.Add("--scale", "K", "per-node accounts, keys or warehouses (0 = the default)",
            harness::FlagSet::Uint(&scale));
  flags.Add("--csv", nullptr, "print one CSV line instead of the table",
            harness::FlagSet::On(&csv));
  flags.Parse(argc, argv);
  if (!spec.trace_path.empty() && spec.txn_attrib) {
    // Both need the engine's single trace slot.
    std::fprintf(stderr, "--trace and --txn-attrib cannot be combined; run them separately\n");
    return 2;
  }
  auto wl = harness::MakeWorkload(spec.workload, spec.nodes, scale);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (smallbank|retwis|tpcc|tpcc-no|ycsb)\n",
                 spec.workload.c_str());
    return 2;
  }
  // Objectives are evaluated over the metric windows.
  const bool metrics = spec.metrics || !spec.slo.empty();

  const harness::SystemConfig cfg = spec.System();
  auto system = harness::BuildSystem(cfg, *wl);
  std::fprintf(stderr, "loading %s...\n", wl->Name().c_str());
  harness::LoadWorkload(*system, *wl);

  harness::RunConfig rc;
  rc.contexts_per_node = contexts;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = measure_us * sim::kNsPerUs;
  spec.ApplyTo(&rc);
  obs::TraceRecorder rec;
  obs::TxnTraceSink txn_sink;
  obs::MetricRegistry reg;
  rc.metrics = metrics ? &reg : nullptr;
  rc.metrics_window = spec.metrics_window_us * sim::kNsPerUs;
  rc.collect_resources = spec.attrib;
  rc.trace = spec.trace_path.empty() ? nullptr : &rec;
  rc.txn_trace = spec.txn_attrib ? &txn_sink : nullptr;
  std::fprintf(stderr, "running %s on %s (%u nodes, %u contexts/node)...\n", wl->Name().c_str(),
               system->Name().c_str(), spec.nodes, contexts);
  harness::RunResult r = harness::RunWorkload(*system, *wl, rc);

  if (!spec.trace_path.empty()) {
    if (rec.WriteJson(spec.trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks)\n", spec.trace_path.c_str(),
                   rec.num_events(), rec.num_tracks());
    } else {
      std::fprintf(stderr, "failed to write %s\n", spec.trace_path.c_str());
      return 1;
    }
  }

  if (metrics) {
    // "metrics " / "slo " prefixes keep the default output strippable (the
    // check_determinism.sh idiom); the JSON and OpenMetrics twins go to
    // files next to the txn-attrib export.
    std::printf("%s", reg.Lines("metrics ").c_str());
    std::string slo_json;
    if (!spec.slo.empty()) {
      const obs::SloReport report = obs::EvaluateSlo(
          spec.slo, obs::SloInputsFromSeries(reg.series(), reg.FindCounter("txn_committed"),
                                        reg.FindCounter("txn_aborted"),
                                        reg.FindHistogram("txn_latency_ns")));
      std::printf("%s", report.Lines("slo ").c_str());
      slo_json = report.Json();
    }
    WriteOutputFile("xenicsim.metrics.json",
                    reg.Json("xenic_sim." + spec.system + "." + spec.workload, slo_json));
    WriteOutputFile("xenicsim.metrics.om", reg.OpenMetrics());
  }

  if (csv) {
    std::printf("system,workload,nodes,contexts,tput_per_server,median_us,p99_us,abort_rate,"
                "wire_util,host_util,nic_util\n");
    std::printf("%s,%s,%u,%u,%.0f,%.2f,%.2f,%.4f,%.3f,%.3f,%.3f\n", system->Name().c_str(),
                wl->Name().c_str(), spec.nodes, contexts, r.tput_per_server, r.MedianLatencyUs(),
                r.P99LatencyUs(), r.abort_rate, r.wire_utilization, r.host_utilization,
                r.nic_utilization);
    return 0;
  }

  TablePrinter tp({"Metric", "Value"});
  tp.AddRow({"System", system->Name()});
  tp.AddRow({"Workload", wl->Name()});
  tp.AddRow({"Throughput/server", TablePrinter::FmtOps(r.tput_per_server) + " txn/s"});
  tp.AddRow({"Median latency", TablePrinter::Fmt(r.MedianLatencyUs(), 1) + " us"});
  tp.AddRow({"P99 latency", TablePrinter::Fmt(r.P99LatencyUs(), 1) + " us"});
  tp.AddRow({"Abort rate", TablePrinter::Fmt(r.abort_rate * 100, 2) + " %"});
  tp.AddRow({"Wire utilization", TablePrinter::Fmt(r.wire_utilization * 100, 1) + " %"});
  tp.AddRow({"Host utilization", TablePrinter::Fmt(r.host_utilization * 100, 1) + " %"});
  tp.AddRow({"NIC utilization", TablePrinter::Fmt(r.nic_utilization * 100, 1) + " %"});
  std::printf("%s", tp.Render("xenic_sim").c_str());
  if (spec.abort_breakdown) {
    std::printf("\n");
    bench::PrintAbortBreakdown("abort breakdown", r);
  }
  if (spec.attrib) {
    const obs::BottleneckReport report = obs::Attribute(r.resources);
    std::printf("\n%s", obs::RenderAttribution(report, "bottleneck attribution").c_str());
  }
  if (spec.txn_attrib) {
    const obs::TailAttribution attrib = obs::AggregateTailAttribution(std::move(r.txn_paths));
    std::printf("\n%s", obs::RenderTxnWaterfall(attrib, "critical-path waterfall").c_str());
    std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n",
                static_cast<unsigned long long>(txn_sink.zero_id_spans()),
                static_cast<unsigned long long>(txn_sink.orphan_instants()),
                static_cast<unsigned long long>(txn_sink.late_spans()));
    WriteOutputFile("xenicsim.txnattrib.json", obs::TxnAttribJson(attrib));
  }
  return 0;
}
