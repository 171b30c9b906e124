// xenic_sim: command-line driver for the simulated cluster.
//
//   xenic_sim --system=xenic --workload=smallbank --nodes=6 --contexts=64
//             --measure-us=1000 [--replication=3] [--seed=1] [--csv]
//             [--attrib] [--trace=out.trace.json]
//
// Systems:   xenic | drtmh | drtmhnc | fasst | drtmr
// Workloads: smallbank | retwis | tpcc | tpcc-no
//
// Prints a one-run summary (throughput per server, latency percentiles,
// abort rate, resource utilization); --csv emits a machine-readable line.
// --attrib adds the per-resource bottleneck-attribution table; --trace
// writes the run as Chrome trace-event JSON (about:tracing / Perfetto).
// --trace and --txn-attrib each need the engine's single trace slot, so
// asking for both exits 2, as do an unknown flag and a numeric value that
// does not parse completely.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/flag_values.h"
#include "src/common/table_printer.h"
#include "src/harness/runner.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"
#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace {

using namespace xenic;

struct Args {
  std::string system = "xenic";
  std::string workload = "smallbank";
  uint32_t nodes = 6;
  uint32_t replication = 3;
  uint32_t quorum = 0;  // copies (incl. primary) to ack; 0 = all
  uint32_t contexts = 32;
  uint64_t measure_us = 1000;
  uint64_t seed = 1;
  uint64_t scale = 0;  // per-node keys/accounts/warehouses; 0 = default
  bool csv = false;
  bool attrib = false;
  bool txn_attrib = false;
  bool abort_breakdown = false;
  bool metrics = false;
  uint64_t metrics_window_us = 50;
  std::string slo;  // e.g. "p99<50us,goodput>0.95"; implies --metrics
  std::string trace_path;
  // Contention controls (defaults reproduce the historical behavior).
  std::string retry_policy = "uniform";
  uint64_t backoff_base_us = 0;  // 0 = keep RetryPolicyConfig default
  uint64_t retry_cap_us = 0;
  bool hot_key_path = false;
  bool adaptive_dma = false;
  bool nic_log_apply = false;
  bool replica_reads = false;
  bool help = false;
  bool bad_flag = false;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    // Numeric values parse completely or exit 2 (src/common/flag_values.h).
    const std::string flag(argv[i], std::strcspn(argv[i], "="));
    auto u64 = [&] { return FlagUint(flag.c_str(), v.c_str()); };
    auto u32 = [&] {
      return static_cast<uint32_t>(
          FlagUint(flag.c_str(), v.c_str(), std::numeric_limits<uint32_t>::max()));
    };
    if (ParseArg(argv[i], "--system", &v)) {
      a.system = v;
    } else if (ParseArg(argv[i], "--workload", &v)) {
      a.workload = v;
    } else if (ParseArg(argv[i], "--nodes", &v)) {
      a.nodes = u32();
    } else if (ParseArg(argv[i], "--replication", &v) || ParseArg(argv[i], "--replicas", &v)) {
      a.replication = u32();
    } else if (ParseArg(argv[i], "--quorum", &v)) {
      a.quorum = u32();
    } else if (ParseArg(argv[i], "--contexts", &v)) {
      a.contexts = u32();
    } else if (ParseArg(argv[i], "--measure-us", &v)) {
      a.measure_us = u64();
    } else if (ParseArg(argv[i], "--seed", &v)) {
      a.seed = u64();
    } else if (ParseArg(argv[i], "--scale", &v)) {
      a.scale = u64();
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      a.csv = true;
    } else if (std::strcmp(argv[i], "--attrib") == 0) {
      a.attrib = true;
    } else if (std::strcmp(argv[i], "--txn-attrib") == 0) {
      a.txn_attrib = true;
    } else if (std::strcmp(argv[i], "--abort-breakdown") == 0) {
      a.abort_breakdown = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      a.metrics = true;
    } else if (ParseArg(argv[i], "--metrics-window-us", &v)) {
      a.metrics_window_us = u64();
    } else if (ParseArg(argv[i], "--slo", &v)) {
      a.slo = v;
    } else if (ParseArg(argv[i], "--retry-policy", &v)) {
      a.retry_policy = v;
    } else if (ParseArg(argv[i], "--backoff-base", &v)) {
      a.backoff_base_us = u64();
    } else if (ParseArg(argv[i], "--retry-cap", &v)) {
      a.retry_cap_us = u64();
    } else if (std::strcmp(argv[i], "--hot-key-path") == 0) {
      a.hot_key_path = true;
    } else if (std::strcmp(argv[i], "--adaptive-dma") == 0) {
      a.adaptive_dma = true;
    } else if (std::strcmp(argv[i], "--nic-log-apply") == 0) {
      a.nic_log_apply = true;
    } else if (std::strcmp(argv[i], "--replica-reads") == 0) {
      a.nic_log_apply = true;  // replica reads require the NIC applier
      a.replica_reads = true;
    } else if (ParseArg(argv[i], "--trace", &v)) {
      a.trace_path = v;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      a.help = true;
    } else {
      a.help = true;
      a.bad_flag = true;
    }
  }
  return a;
}

std::unique_ptr<workload::Workload> MakeWorkload(const Args& a) {
  if (a.workload == "smallbank") {
    workload::Smallbank::Options wo;
    wo.num_nodes = a.nodes;
    wo.accounts_per_node = a.scale != 0 ? a.scale : 60000;
    return std::make_unique<workload::Smallbank>(wo);
  }
  if (a.workload == "retwis") {
    workload::Retwis::Options wo;
    wo.num_nodes = a.nodes;
    wo.keys_per_node = a.scale != 0 ? a.scale : 60000;
    return std::make_unique<workload::Retwis>(wo);
  }
  if (a.workload == "tpcc" || a.workload == "tpcc-no") {
    workload::Tpcc::Options wo;
    wo.num_nodes = a.nodes;
    wo.warehouses_per_node = a.scale != 0 ? static_cast<uint32_t>(a.scale) : 24;
    wo.customers_per_district = 40;
    wo.items = 1000;
    wo.new_order_only = a.workload == "tpcc-no";
    wo.uniform_remote_items = a.workload == "tpcc-no";
    return std::make_unique<workload::Tpcc>(wo);
  }
  return nullptr;
}

bool MakeSystemConfig(const Args& a, harness::SystemConfig* cfg) {
  cfg->num_nodes = a.nodes;
  cfg->replication = a.replication;
  cfg->quorum = a.quorum;
  if (a.system == "xenic") {
    cfg->kind = harness::SystemConfig::Kind::kXenic;
    return true;
  }
  cfg->kind = harness::SystemConfig::Kind::kBaseline;
  if (a.system == "drtmh") {
    cfg->mode = baseline::BaselineMode::kDrtmH;
  } else if (a.system == "drtmhnc") {
    cfg->mode = baseline::BaselineMode::kDrtmHNC;
  } else if (a.system == "fasst") {
    cfg->mode = baseline::BaselineMode::kFasst;
  } else if (a.system == "drtmr") {
    cfg->mode = baseline::BaselineMode::kDrtmR;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = Parse(argc, argv);
  if (!a.trace_path.empty() && a.txn_attrib) {
    // Both need the engine's single trace slot.
    std::fprintf(stderr, "--trace and --txn-attrib cannot be combined; run them separately\n");
    return 2;
  }
  harness::SystemConfig cfg;
  auto wl = MakeWorkload(a);
  txn::RetryPolicyKind retry_kind = txn::RetryPolicyKind::kUniform;
  if (!txn::ParseRetryPolicy(a.retry_policy, &retry_kind)) {
    std::fprintf(stderr, "unknown --retry-policy '%s' (uniform|expjitter|cwnd)\n",
                 a.retry_policy.c_str());
    return 2;
  }
  obs::SloSpec slo;
  if (!a.slo.empty()) {
    std::string err;
    if (!obs::ParseSloSpec(a.slo, &slo, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    a.metrics = true;  // objectives are evaluated over the metric windows
  }
  if (a.help || wl == nullptr || !MakeSystemConfig(a, &cfg)) {
    std::fprintf(stderr,
                 "usage: %s --system=xenic|drtmh|drtmhnc|fasst|drtmr\n"
                 "          --workload=smallbank|retwis|tpcc|tpcc-no\n"
                 "          [--nodes=N] [--replicas=R] [--quorum=Q] [--contexts=C]\n"
                 "          [--measure-us=T] [--seed=S] [--scale=K] [--csv]\n"
                 "          [--attrib] [--txn-attrib] [--abort-breakdown]\n"
                 "          [--metrics] [--metrics-window-us=W] [--slo=SPEC]\n"
                 "          [--trace=out.trace.json]\n"
                 "          [--retry-policy=uniform|expjitter|cwnd]\n"
                 "          [--backoff-base=US] [--retry-cap=US]\n"
                 "          [--hot-key-path] [--adaptive-dma]\n"
                 "          [--nic-log-apply] [--replica-reads]\n",
                 argv[0]);
    if (a.bad_flag) {
      return 2;
    }
    return a.help ? 0 : 1;
  }
  if (a.hot_key_path) {
    cfg.features.hot_key_fastpath = true;
  }
  if (a.adaptive_dma) {
    cfg.nic_features.adaptive_dma_batching = true;
  }
  if (a.nic_log_apply) {
    cfg.features.nic_log_apply = true;
  }
  if (a.replica_reads) {
    cfg.features.replica_reads = true;
  }

  auto system = harness::BuildSystem(cfg, *wl);
  std::fprintf(stderr, "loading %s...\n", wl->Name().c_str());
  harness::LoadWorkload(*system, *wl);

  harness::RunConfig rc;
  rc.contexts_per_node = a.contexts;
  rc.seed = a.seed;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = a.measure_us * sim::kNsPerUs;
  rc.retry.kind = retry_kind;
  if (a.backoff_base_us > 0) {
    rc.retry.backoff_base = a.backoff_base_us * sim::kNsPerUs;
  }
  if (a.retry_cap_us > 0) {
    rc.retry.backoff_cap = a.retry_cap_us * sim::kNsPerUs;
  }
  obs::TraceRecorder rec;
  obs::TxnTraceSink txn_sink;
  obs::MetricRegistry reg;
  rc.metrics = a.metrics ? &reg : nullptr;
  rc.metrics_window = a.metrics_window_us * sim::kNsPerUs;
  rc.collect_resources = a.attrib;
  rc.trace = a.trace_path.empty() ? nullptr : &rec;
  rc.txn_trace = a.txn_attrib ? &txn_sink : nullptr;
  std::fprintf(stderr, "running %s on %s (%u nodes, %u contexts/node)...\n", wl->Name().c_str(),
               system->Name().c_str(), a.nodes, a.contexts);
  harness::RunResult r = harness::RunWorkload(*system, *wl, rc);

  if (!a.trace_path.empty()) {
    if (rec.WriteJson(a.trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks)\n", a.trace_path.c_str(),
                   rec.num_events(), rec.num_tracks());
    } else {
      std::fprintf(stderr, "failed to write %s\n", a.trace_path.c_str());
      return 1;
    }
  }

  if (a.metrics) {
    // "metrics " / "slo " prefixes keep the default output strippable (the
    // check_determinism.sh idiom); the JSON and OpenMetrics twins go to
    // files next to the txn-attrib export.
    std::printf("%s", reg.Lines("metrics ").c_str());
    std::string slo_json;
    if (!slo.empty()) {
      const obs::SloReport report = obs::EvaluateSlo(
          slo, obs::SloInputsFromSeries(reg.series(), reg.FindCounter("txn_committed"),
                                        reg.FindCounter("txn_aborted"),
                                        reg.FindHistogram("txn_latency_ns")));
      std::printf("%s", report.Lines("slo ").c_str());
      slo_json = report.Json();
    }
    const std::string json =
        reg.Json(std::string("xenic_sim.") + a.system + "." + a.workload, slo_json);
    if (std::FILE* f = std::fopen("xenicsim.metrics.json", "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote xenicsim.metrics.json\n");
    }
    const std::string om = reg.OpenMetrics();
    if (std::FILE* f = std::fopen("xenicsim.metrics.om", "w"); f != nullptr) {
      std::fwrite(om.data(), 1, om.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote xenicsim.metrics.om\n");
    }
  }

  if (a.csv) {
    std::printf("system,workload,nodes,contexts,tput_per_server,median_us,p99_us,abort_rate,"
                "wire_util,host_util,nic_util\n");
    std::printf("%s,%s,%u,%u,%.0f,%.2f,%.2f,%.4f,%.3f,%.3f,%.3f\n", system->Name().c_str(),
                wl->Name().c_str(), a.nodes, a.contexts, r.tput_per_server, r.MedianLatencyUs(),
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
  if (a.abort_breakdown) {
    const txn::TxnStats& s = r.txn_stats;
    const double denom = s.aborted > 0 ? static_cast<double>(s.aborted) : 1.0;
    const uint64_t attributed = s.abort_lock_execute + s.abort_lock_local + s.abort_lock_ship +
                                s.abort_validate + s.abort_gap + s.abort_other;
    TablePrinter ab({"Reason", "Aborts", "Share%"});
    auto row = [&](const char* name, uint64_t n) {
      if (n > 0) {
        ab.AddRow({name, TablePrinter::Fmt(n),
                   TablePrinter::Fmt(static_cast<double>(n) / denom * 100, 1)});
      }
    };
    row("lock-conflict (execute)", s.abort_lock_execute);
    row("lock-conflict (local)", s.abort_lock_local);
    row("lock-conflict (shipped)", s.abort_lock_ship);
    row("validation-failure", s.abort_validate);
    row("read-write-gap", s.abort_gap);
    row("other", s.abort_other);
    row("unattributed", s.aborted - attributed);
    ab.AddRow({"total retryable", TablePrinter::Fmt(s.aborted), TablePrinter::Fmt(100.0, 1)});
    std::printf("\n%s", ab.Render("abort breakdown").c_str());
    std::printf("app-aborts: %llu; hot-path txns: %llu (parked %llu times)\n",
                static_cast<unsigned long long>(s.app_aborted),
                static_cast<unsigned long long>(s.hot_path),
                static_cast<unsigned long long>(s.hot_waits));
  }
  if (a.attrib) {
    const obs::BottleneckReport report = obs::Attribute(r.resources);
    std::printf("\n%s", obs::RenderAttribution(report, "bottleneck attribution").c_str());
  }
  if (a.txn_attrib) {
    const obs::TailAttribution attrib = obs::AggregateTailAttribution(std::move(r.txn_paths));
    std::printf("\n%s", obs::RenderTxnWaterfall(attrib, "critical-path waterfall").c_str());
    std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n",
                static_cast<unsigned long long>(txn_sink.zero_id_spans()),
                static_cast<unsigned long long>(txn_sink.orphan_instants()),
                static_cast<unsigned long long>(txn_sink.late_spans()));
    const std::string json = obs::TxnAttribJson(attrib);
    const std::string path = "xenicsim.txnattrib.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  return 0;
}
