// Shared helpers for the paper-reproduction benches: load sweeps producing
// throughput/latency curves per system, and paper-style table output.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/harness/runner.h"
#include "src/txn/cc_policy.h"
#include "src/harness/sweep.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"

namespace xenic::bench {

using harness::RunConfig;
using harness::RunResult;
using harness::SweepExecutor;
using harness::SystemConfig;

using WorkloadFactory = std::function<std::unique_ptr<workload::Workload>()>;

struct CurvePoint {
  uint32_t contexts = 0;
  RunResult result;
};

struct Curve {
  std::string system;
  std::vector<CurvePoint> points;

  double PeakTput() const {
    double best = 0;
    for (const auto& p : points) {
      best = std::max(best, p.result.tput_per_server);
    }
    return best;
  }
  // NaN when no point committed anything (rendered "--" by TablePrinter;
  // never leaks a numeric sentinel into tables or ratios).
  double MinMedianLatencyUs() const {
    double best = std::numeric_limits<double>::quiet_NaN();
    for (const auto& p : points) {
      if (p.result.latency.count() > 0 &&
          (std::isnan(best) || p.result.MedianLatencyUs() < best)) {
        best = p.result.MedianLatencyUs();
      }
    }
    return best;
  }

  // Index of the highest-throughput point (the "peak" the bottleneck
  // attribution reports against); -1 when the curve is empty.
  int PeakIndex() const {
    int best = -1;
    for (size_t i = 0; i < points.size(); ++i) {
      if (best < 0 || points[i].result.tput_per_server >
                          points[static_cast<size_t>(best)].result.tput_per_server) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }
};

// Run every (system, load) point of a multi-system sweep as an independent
// job through a SweepExecutor. Each point builds its own workload and
// system (fully self-contained, seeded-deterministic simulation), so the
// resulting tables are bit-identical for any --jobs value; only wall-clock
// time changes. Progress lines are printed after the sweep, in
// deterministic (system, load) order.
inline std::vector<Curve> RunSweeps(const std::vector<SystemConfig>& cfgs,
                                    const WorkloadFactory& make_workload,
                                    const std::vector<uint32_t>& loads, const RunConfig& rc,
                                    SweepExecutor& ex) {
  struct Slot {
    std::string system;
    CurvePoint point;
  };
  std::vector<Slot> slots(cfgs.size() * loads.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(slots.size());
  for (size_t ci = 0; ci < cfgs.size(); ++ci) {
    for (size_t li = 0; li < loads.size(); ++li) {
      tasks.push_back([&cfgs, &make_workload, &loads, &rc, &slots, ci, li] {
        auto wl = make_workload();
        auto system = harness::BuildSystem(cfgs[ci], *wl);
        harness::LoadWorkload(*system, *wl);
        RunConfig r = rc;
        r.contexts_per_node = loads[li];
        Slot& s = slots[ci * loads.size() + li];
        s.system = system->Name();
        s.point.contexts = loads[li];
        s.point.result = harness::RunWorkload(*system, *wl, r);
      });
    }
  }
  ex.RunAll(tasks);

  std::vector<Curve> curves(cfgs.size());
  for (size_t ci = 0; ci < cfgs.size(); ++ci) {
    curves[ci].system = slots[ci * loads.size()].system;
    for (size_t li = 0; li < loads.size(); ++li) {
      Slot& s = slots[ci * loads.size() + li];
      std::fprintf(stderr, "  [%s] contexts=%u tput=%s/srv median=%.1fus abort=%.1f%% (%s ev/s)\n",
                   s.system.c_str(), s.point.contexts,
                   TablePrinter::FmtOps(s.point.result.tput_per_server).c_str(),
                   s.point.result.MedianLatencyUs(), s.point.result.abort_rate * 100,
                   TablePrinter::FmtOps(s.point.result.sim_events_per_sec).c_str());
      curves[ci].points.push_back(std::move(s.point));
    }
  }
  return curves;
}

// Run one system across the load sweep. A fresh workload instance is built
// for the system (workloads hold per-node local state). NOTE: unlike
// RunSweeps, the system instance is shared across the sweep's load points
// (database state carries over), so this path cannot be parallelized.
inline Curve RunSweep(const SystemConfig& cfg,
                      const std::function<std::unique_ptr<workload::Workload>()>& make_workload,
                      const std::vector<uint32_t>& loads, RunConfig rc) {
  auto wl = make_workload();
  auto system = harness::BuildSystem(cfg, *wl);
  harness::LoadWorkload(*system, *wl);
  Curve curve;
  curve.system = system->Name();
  for (uint32_t contexts : loads) {
    rc.contexts_per_node = contexts;
    CurvePoint p;
    p.contexts = contexts;
    p.result = harness::RunWorkload(*system, *wl, rc);
    curve.points.push_back(std::move(p));
    std::fprintf(stderr, "  [%s] contexts=%u tput=%s/srv median=%.1fus abort=%.1f%%\n",
                 curve.system.c_str(), contexts,
                 TablePrinter::FmtOps(curve.points.back().result.tput_per_server).c_str(),
                 curve.points.back().result.MedianLatencyUs(),
                 curve.points.back().result.abort_rate * 100);
  }
  return curve;
}

// Print the full curves plus the paper-style comparison summary (peak
// throughput factor and median latency reduction vs the best alternative).
// Set XENIC_BENCH_CSV=1 to also emit plot-ready CSV.
inline void PrintCurves(const std::string& title, const std::vector<Curve>& curves) {
  TablePrinter tp({"System", "Contexts", "Tput/server", "Median(us)", "P99(us)", "P999(us)",
                   "Abort%", "Wire%", "Host%", "NIC%"});
  for (const auto& c : curves) {
    for (const auto& p : c.points) {
      tp.AddRow({c.system, TablePrinter::Fmt(static_cast<uint64_t>(p.contexts)),
                 TablePrinter::FmtOps(p.result.tput_per_server),
                 TablePrinter::Fmt(p.result.MedianLatencyUs(), 1),
                 TablePrinter::Fmt(p.result.P99LatencyUs(), 1),
                 // NaN (nothing committed) renders as "--".
                 TablePrinter::Fmt(p.result.P999LatencyUs(), 1),
                 TablePrinter::Fmt(p.result.abort_rate * 100, 1),
                 TablePrinter::Fmt(p.result.wire_utilization * 100, 0),
                 TablePrinter::Fmt(p.result.host_utilization * 100, 0),
                 TablePrinter::Fmt(p.result.nic_utilization * 100, 0)});
    }
  }
  std::printf("%s\n", tp.Render(title).c_str());

  if (const char* csv = std::getenv("XENIC_BENCH_CSV"); csv != nullptr && csv[0] == '1') {
    std::printf("# CSV: %s\nsystem,contexts,tput_per_server,median_us,p99_us,p999_us,abort_rate\n",
                title.c_str());
    for (const auto& c : curves) {
      for (const auto& p : c.points) {
        std::printf("%s,%u,%.0f,%.2f,%.2f,%.2f,%.4f\n", c.system.c_str(), p.contexts,
                    p.result.tput_per_server, p.result.MedianLatencyUs(),
                    p.result.P99LatencyUs(), p.result.P999LatencyUs(), p.result.abort_rate);
      }
    }
    std::printf("\n");
  }

  // Comparison summary (Xenic assumed first). Latency comparisons skip
  // curves with no committed transactions (MinMedianLatencyUs is NaN for
  // those) instead of comparing against a sentinel.
  if (curves.size() > 1 && curves[0].system == "Xenic") {
    double best_alt_tput = 0;
    std::string best_alt;
    double best_alt_lat = std::numeric_limits<double>::quiet_NaN();
    std::string best_lat_alt;
    for (size_t i = 1; i < curves.size(); ++i) {
      if (curves[i].PeakTput() > best_alt_tput) {
        best_alt_tput = curves[i].PeakTput();
        best_alt = curves[i].system;
      }
      const double lat = curves[i].MinMedianLatencyUs();
      if (!std::isnan(lat) && (std::isnan(best_alt_lat) || lat < best_alt_lat)) {
        best_alt_lat = lat;
        best_lat_alt = curves[i].system;
      }
    }
    const double xenic_lat = curves[0].MinMedianLatencyUs();
    if (best_alt_tput > 0) {
      std::printf("Peak throughput: Xenic %s/srv = %.2fx best alternative (%s, %s/srv)\n",
                  TablePrinter::FmtOps(curves[0].PeakTput()).c_str(),
                  curves[0].PeakTput() / best_alt_tput, best_alt.c_str(),
                  TablePrinter::FmtOps(best_alt_tput).c_str());
      if (!std::isnan(xenic_lat) && !std::isnan(best_alt_lat)) {
        std::printf("Low-load median latency: Xenic %.1fus = %.0f%% below best alternative "
                    "(%s, %.1fus)\n",
                    xenic_lat, (1.0 - xenic_lat / best_alt_lat) * 100, best_lat_alt.c_str(),
                    best_alt_lat);
      }
      // The paper's reference comparison is against DrTM+H.
      for (const auto& c : curves) {
        const double c_lat = c.MinMedianLatencyUs();
        if (c.system == "DrTM+H" && c.PeakTput() > 0 && !std::isnan(xenic_lat) &&
            !std::isnan(c_lat)) {
          std::printf("vs DrTM+H: %.2fx peak throughput, %.0f%% lower median latency\n\n",
                      curves[0].PeakTput() / c.PeakTput(), (1.0 - xenic_lat / c_lat) * 100);
        }
      }
    }
  }
}

// Observability flags shared by the benches:
//   --attrib        rerun each system's peak-throughput point with resource
//                   monitoring, print the bottleneck-attribution table, and
//                   write <slug>.attrib.json
//   --trace PATH    rerun the first system's peak point with a trace sink
//                   and write Chrome trace-event JSON to PATH
// Reruns reuse the sweep's exact RunConfig, so (by the determinism
// contract) they reproduce the printed point exactly.
//
// Contention-control flags (ISSUE 6): retry policy selection and the
// hot-key / adaptive-DMA feature toggles. All default to the historical
// behavior; benches opt in by calling ApplyContentionOptions.
struct BenchOptions {
  bool attrib = false;
  bool msg_breakdown = false;  // per-MsgType traffic table after the sweep
  // --txn-attrib: rerun each system's peak point with a TxnTraceSink,
  // print the p50-vs-tail critical-path waterfall, write
  // <slug>.txnattrib.json.
  bool txn_attrib = false;
  // --latency-hist: dump the latency histogram buckets of every sweep
  // point ("latency-hist [...]" lines; midpoint_ns:count pairs).
  bool latency_hist = false;
  // --abort-breakdown: abort-reason table at each system's peak point.
  bool abort_breakdown = false;
  // --metrics: rerun each system's peak point with a MetricRegistry,
  // print the windowed series ("metrics [system] " lines) and write
  // <slug>.metrics.json + <slug>.metrics.om (OpenMetrics, first system).
  bool metrics = false;
  uint64_t metrics_window_us = 50;  // --metrics-window-us W
  // --slo SPEC ("p99<50us,goodput>0.95"): evaluate objectives over each
  // system's peak-point metric windows; implies the metrics rerun.
  std::string slo;
  std::string trace_path;

  // --retry-policy uniform|expjitter|cwnd (validated; unknown -> exit 2).
  txn::RetryPolicyKind retry_policy = txn::RetryPolicyKind::kUniform;
  uint64_t backoff_base_us = 0;  // --backoff-base US; 0 = keep default (4)
  uint64_t retry_cap_us = 0;     // --retry-cap US; 0 = keep default (256)
  bool hot_key_path = false;     // --hot-key-path (Xenic systems only)
  bool adaptive_dma = false;     // --adaptive-dma (Xenic systems only)
  uint64_t seed = 0;             // --seed N; 0 = keep the bench's default
  // --cc occ|nowait|waitdie|woundwait (Xenic systems only; default occ).
  txn::CcPolicyKind cc = txn::CcPolicyKind::kOcc;

  static void PrintHelp(const char* prog) {
    std::printf(
        "usage: %s [flags]\n"
        "  --jobs N            parallel sweep workers (0 = hardware threads)\n"
        "  --attrib            bottleneck attribution at each system's peak\n"
        "  --msg-breakdown     per-message-type traffic table at peaks\n"
        "  --txn-attrib        p50-vs-tail critical-path waterfall at peaks\n"
        "  --latency-hist      latency histogram buckets for every point\n"
        "  --abort-breakdown   abort-reason table at each system's peak\n"
        "  --metrics           windowed metric series at each system's peak\n"
        "                      (writes <slug>.metrics.json / .om)\n"
        "  --metrics-window-us W  sampling window in microseconds (default 50)\n"
        "  --slo SPEC          objectives over the metric windows, e.g.\n"
        "                      \"p99<50us,goodput>0.95\" (implies --metrics rerun)\n"
        "  --trace PATH        Chrome trace of the first system's peak point\n"
        "  --seed N            override the run seed (default: bench-specific)\n"
        "  --retry-policy P    abort backoff policy: uniform | expjitter | cwnd\n"
        "                      (default uniform: the historical fixed backoff)\n"
        "  --backoff-base US   backoff base in microseconds (default 4)\n"
        "  --retry-cap US      backoff window cap in microseconds (default 256)\n"
        "  --hot-key-path      serialize sketch-flagged hot keys on the NIC\n"
        "  --adaptive-dma      occupancy-aware DMA vector sizing\n"
        "  --cc P              concurrency control (Xenic systems only):\n"
        "                      occ | nowait | waitdie | woundwait (default occ)\n",
        prog);
  }

  // Parse a mandatory positive integer value for `flag`, exiting 2 on junk.
  static uint64_t ParseCount(const char* flag, const char* value) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || v == 0) {
      std::fprintf(stderr, "%s requires a positive integer, got '%s'\n", flag, value);
      std::exit(2);
    }
    return v;
  }

  // Every flag in PrintHelp is accepted, value flags as `--flag V` or
  // `--flag=V`; anything else exits 2, so a typo never runs the defaults.
  // A value flag that ends argv gets the value "" (argv is never read past).
  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      const char* value = "";
      auto with_value = [&](const char* flag) {
        const size_t n = std::strlen(flag);
        if (std::strncmp(a, flag, n) != 0 || (a[n] != '\0' && a[n] != '=')) {
          return false;
        }
        if (a[n] == '=') {
          value = a + n + 1;
        } else if (i + 1 < argc) {
          value = argv[++i];
        }
        return true;
      };
      if (std::strcmp(a, "--attrib") == 0) {
        o.attrib = true;
      } else if (std::strcmp(a, "--msg-breakdown") == 0) {
        o.msg_breakdown = true;
      } else if (std::strcmp(a, "--txn-attrib") == 0) {
        o.txn_attrib = true;
      } else if (std::strcmp(a, "--latency-hist") == 0) {
        o.latency_hist = true;
      } else if (std::strcmp(a, "--abort-breakdown") == 0) {
        o.abort_breakdown = true;
      } else if (std::strcmp(a, "--metrics") == 0) {
        o.metrics = true;
      } else if (std::strcmp(a, "--hot-key-path") == 0) {
        o.hot_key_path = true;
      } else if (std::strcmp(a, "--adaptive-dma") == 0) {
        o.adaptive_dma = true;
      } else if (with_value("--jobs")) {
        // Read by SweepExecutor::ParseJobsFlag.
      } else if (with_value("--metrics-window-us")) {
        o.metrics_window_us = ParseCount("--metrics-window-us", value);
      } else if (with_value("--slo")) {
        o.slo = value;
      } else if (with_value("--retry-policy")) {
        if (!txn::ParseRetryPolicy(value, &o.retry_policy)) {
          std::fprintf(stderr, "unknown --retry-policy '%s' (uniform|expjitter|cwnd)\n", value);
          std::exit(2);
        }
      } else if (with_value("--cc")) {
        if (!txn::ParseCcPolicy(value, &o.cc)) {
          std::fprintf(stderr, "unknown --cc '%s' (occ|nowait|waitdie|woundwait)\n", value);
          std::exit(2);
        }
      } else if (with_value("--backoff-base")) {
        o.backoff_base_us = ParseCount("--backoff-base", value);
      } else if (with_value("--retry-cap")) {
        o.retry_cap_us = ParseCount("--retry-cap", value);
      } else if (with_value("--seed")) {
        o.seed = ParseCount("--seed", value);
      } else if (with_value("--trace")) {
        o.trace_path = value;
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        PrintHelp(argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown flag '%s' (see --help)\n", argv[0], a);
        std::exit(2);
      }
    }
    return o;
  }
};

// Apply the contention-control flags to a run: the retry policy shapes the
// harness's abort backoff, the feature toggles flip the Xenic systems'
// hot-key fast path and adaptive DMA batching. Defaults leave everything
// byte-identical to the historical behavior.
inline void ApplyContentionOptions(const BenchOptions& o, RunConfig* rc,
                                   SystemConfig* cfg = nullptr) {
  if (rc != nullptr) {
    rc->retry.kind = o.retry_policy;
    if (o.backoff_base_us > 0) {
      rc->retry.backoff_base = o.backoff_base_us * sim::kNsPerUs;
    }
    if (o.retry_cap_us > 0) {
      rc->retry.backoff_cap = o.retry_cap_us * sim::kNsPerUs;
    }
    if (o.seed > 0) {
      rc->seed = o.seed;
    }
  }
  if (cfg != nullptr && cfg->kind == SystemConfig::Kind::kXenic) {
    if (o.hot_key_path) {
      cfg->features.hot_key_fastpath = true;
    }
    if (o.adaptive_dma) {
      cfg->nic_features.adaptive_dma_batching = true;
    }
    cfg->features.cc = o.cc;  // default kOcc: the historical pipeline
  }
}

inline void ApplyContentionOptions(const BenchOptions& o, RunConfig* rc,
                                   std::vector<SystemConfig>* cfgs) {
  ApplyContentionOptions(o, rc);
  for (auto& c : *cfgs) {
    ApplyContentionOptions(o, nullptr, &c);
  }
}

// Abort-reason table (--abort-breakdown) from the protocol-level counters.
// "unattributed" covers nodes that do not classify aborts (the baselines).
inline void PrintAbortBreakdown(const std::string& title, const RunResult& r) {
  const txn::TxnStats& s = r.txn_stats;
  if (s.aborted == 0 && s.app_aborted == 0) {
    std::printf("%s: no aborts in measurement window\n\n", title.c_str());
    return;
  }
  const double denom = s.aborted > 0 ? static_cast<double>(s.aborted) : 1.0;
  const uint64_t attributed = s.abort_lock_execute + s.abort_lock_local + s.abort_lock_ship +
                              s.abort_validate + s.abort_gap + s.abort_wounded +
                              s.abort_epoch_fence + s.abort_other;
  TablePrinter tp({"Reason", "Aborts", "Share%"});
  auto row = [&](const char* name, uint64_t n) {
    if (n == 0) {
      return;
    }
    tp.AddRow({name, TablePrinter::Fmt(n),
               TablePrinter::Fmt(static_cast<double>(n) / denom * 100, 1)});
  };
  row("lock-conflict (execute)", s.abort_lock_execute);
  row("lock-conflict (local)", s.abort_lock_local);
  row("lock-conflict (shipped)", s.abort_lock_ship);
  row("validation-failure", s.abort_validate);
  row("read-write-gap", s.abort_gap);
  row("wounded (WOUND_WAIT)", s.abort_wounded);
  row("epoch-fence (2PL recovery)", s.abort_epoch_fence);
  row("other", s.abort_other);
  row("unattributed", s.aborted - attributed);
  tp.AddRow({"total retryable", TablePrinter::Fmt(s.aborted), TablePrinter::Fmt(100.0, 1)});
  std::printf("%s", tp.Render(title).c_str());
  std::printf("app-aborts (non-retryable): %llu; hot-path txns: %llu (parked %llu times); "
              "remote lock parks: %llu\n",
              static_cast<unsigned long long>(s.app_aborted),
              static_cast<unsigned long long>(s.hot_path),
              static_cast<unsigned long long>(s.hot_waits),
              static_cast<unsigned long long>(s.hot_remote_parks));
  if (s.cc_waits > 0 || s.cc_wounds > 0) {
    std::printf("cc: lock waits %llu; wounds sent %llu\n",
                static_cast<unsigned long long>(s.cc_waits),
                static_cast<unsigned long long>(s.cc_wounds));
  }
  std::printf("\n");
}

// Per-message-type traffic table (--msg-breakdown): one row per MsgType the
// system actually sent during the measurement window, from the transport
// layer's counters. Per-txn columns normalize by committed transactions.
inline void PrintMsgBreakdown(const std::string& system, const RunResult& r) {
  const net::MsgCounters& bt = r.txn_stats.by_type;
  if (bt.TotalMsgs() == 0) {
    std::printf("%s: no messages in measurement window\n\n", system.c_str());
    return;
  }
  const double txns =
      r.committed > 0 ? static_cast<double>(r.committed) : 1.0;
  TablePrinter tp({"Type", "Msgs", "Bytes", "Msgs/txn", "Bytes/txn"});
  for (uint32_t t = 0; t < net::kNumMsgTypes; ++t) {
    const auto type = static_cast<net::MsgType>(t);
    if (bt.MsgCount(type) == 0) {
      continue;
    }
    tp.AddRow({net::MsgTypeName(type), TablePrinter::Fmt(bt.MsgCount(type)),
               TablePrinter::Fmt(bt.ByteCount(type)),
               TablePrinter::Fmt(static_cast<double>(bt.MsgCount(type)) / txns, 2),
               TablePrinter::Fmt(static_cast<double>(bt.ByteCount(type)) / txns, 1)});
  }
  tp.AddRow({"total", TablePrinter::Fmt(bt.TotalMsgs()), TablePrinter::Fmt(bt.TotalBytes()),
             TablePrinter::Fmt(static_cast<double>(bt.TotalMsgs()) / txns, 2),
             TablePrinter::Fmt(static_cast<double>(bt.TotalBytes()) / txns, 1)});
  std::printf("%s\n", tp.Render(system + " message breakdown").c_str());
}

// Rerun one (system, load) point with observability attached.
inline RunResult RerunPoint(const SystemConfig& cfg, const WorkloadFactory& make_workload,
                            const RunConfig& rc, uint32_t contexts, bool collect_resources,
                            sim::TraceSink* trace, obs::TxnTraceSink* txn_trace = nullptr) {
  auto wl = make_workload();
  auto system = harness::BuildSystem(cfg, *wl);
  harness::LoadWorkload(*system, *wl);
  RunConfig r = rc;
  r.contexts_per_node = contexts;
  r.collect_resources = collect_resources;
  r.trace = trace;
  r.txn_trace = txn_trace;
  return harness::RunWorkload(*system, *wl, r);
}

// Post-sweep observability pass; no-op without --attrib/--trace.
inline void FinishBench(const BenchOptions& opts, const std::string& slug,
                        const std::vector<SystemConfig>& cfgs,
                        const WorkloadFactory& make_workload, const RunConfig& rc,
                        const std::vector<Curve>& curves) {
  if (opts.msg_breakdown) {
    for (const auto& c : curves) {
      const int peak = c.PeakIndex();
      if (peak < 0) {
        continue;
      }
      const CurvePoint& p = c.points[static_cast<size_t>(peak)];
      PrintMsgBreakdown(c.system + " @ contexts=" + std::to_string(p.contexts), p.result);
    }
  }
  if (opts.abort_breakdown) {
    for (const auto& c : curves) {
      const int peak = c.PeakIndex();
      if (peak < 0) {
        continue;
      }
      const CurvePoint& p = c.points[static_cast<size_t>(peak)];
      PrintAbortBreakdown(c.system + " abort breakdown @ contexts=" + std::to_string(p.contexts),
                          p.result);
    }
  }
  if (opts.attrib) {
    std::string json = "{\"bench\":\"" + slug + "\",\"systems\":[";
    bool first = true;
    for (size_t i = 0; i < cfgs.size() && i < curves.size(); ++i) {
      const int peak = curves[i].PeakIndex();
      if (peak < 0) {
        continue;
      }
      const uint32_t contexts = curves[i].points[static_cast<size_t>(peak)].contexts;
      RunResult r = RerunPoint(cfgs[i], make_workload, rc, contexts,
                               /*collect_resources=*/true, /*trace=*/nullptr);
      const obs::BottleneckReport report = obs::Attribute(r.resources);
      std::printf("%s", obs::RenderAttribution(
                            report, curves[i].system + " bottleneck attribution @ contexts=" +
                                        std::to_string(contexts))
                            .c_str());
      std::printf("\n");
      if (!first) {
        json += ',';
      }
      first = false;
      json += "{\"system\":\"" + curves[i].system + "\",\"contexts\":" +
              std::to_string(contexts) + ",\"attribution\":" + obs::AttributionJson(report) +
              "}";
    }
    json += "]}";
    const std::string path = slug + ".attrib.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  if (opts.latency_hist) {
    for (const auto& c : curves) {
      for (const auto& p : c.points) {
        std::printf("latency-hist [%s] contexts=%u n=%llu:", c.system.c_str(), p.contexts,
                    static_cast<unsigned long long>(p.result.latency.count()));
        p.result.latency.VisitBuckets([](uint64_t midpoint, uint64_t count) {
          std::printf(" %llu:%llu", static_cast<unsigned long long>(midpoint),
                      static_cast<unsigned long long>(count));
        });
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  if (opts.metrics || !opts.slo.empty()) {
    // Windowed-metrics pass: rerun each system's peak point with a
    // MetricRegistry attached (observer-only, so it reproduces the printed
    // point exactly) and export the series. SLO objectives, when given,
    // are evaluated per system over the same windows.
    obs::SloSpec slo;
    if (!opts.slo.empty()) {
      std::string err;
      if (!obs::ParseSloSpec(opts.slo, &slo, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
      }
    }
    std::string json = "{\"bench\":\"" + slug + "\",\"systems\":[";
    std::string om;  // OpenMetrics exposition (first system's registry)
    bool first = true;
    for (size_t i = 0; i < cfgs.size() && i < curves.size(); ++i) {
      const int peak = curves[i].PeakIndex();
      if (peak < 0) {
        continue;
      }
      const uint32_t contexts = curves[i].points[static_cast<size_t>(peak)].contexts;
      obs::MetricRegistry reg;
      RunConfig r = rc;
      r.metrics = &reg;
      r.metrics_window = opts.metrics_window_us * sim::kNsPerUs;
      RerunPoint(cfgs[i], make_workload, r, contexts,
                 /*collect_resources=*/false, /*trace=*/nullptr);
      if (opts.metrics) {
        std::printf("%s", reg.Lines("metrics [" + curves[i].system + "] ").c_str());
      }
      std::string slo_json;
      if (!slo.empty()) {
        const obs::SloReport report = obs::EvaluateSlo(
            slo, obs::SloInputsFromSeries(reg.series(), reg.FindCounter("txn_committed"),
                                          reg.FindCounter("txn_aborted"),
                                          reg.FindHistogram("txn_latency_ns")));
        std::printf("%s", report.Lines("slo [" + curves[i].system + "] ").c_str());
        slo_json = report.Json();
      }
      if (!first) {
        json += ',';
      }
      first = false;
      json += "{\"system\":\"" + curves[i].system + "\",\"contexts\":" +
              std::to_string(contexts) + ",\"metrics\":" + reg.Json(slug, slo_json) + "}";
      if (om.empty()) {
        om = reg.OpenMetrics("xenic", {{"system", curves[i].system}});
      }
    }
    json += "]}";
    const std::string path = slug + ".metrics.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    const std::string om_path = slug + ".metrics.om";
    if (std::FILE* f = std::fopen(om_path.c_str(), "w"); f != nullptr) {
      std::fwrite(om.data(), 1, om.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", om_path.c_str());
    }
  }
  if (opts.txn_attrib) {
    std::string json = "{\"bench\":\"" + slug + "\",\"systems\":[";
    bool first = true;
    for (size_t i = 0; i < cfgs.size() && i < curves.size(); ++i) {
      const int peak = curves[i].PeakIndex();
      if (peak < 0) {
        continue;
      }
      const uint32_t contexts = curves[i].points[static_cast<size_t>(peak)].contexts;
      obs::TxnTraceSink sink;
      RunResult r = RerunPoint(cfgs[i], make_workload, rc, contexts,
                               /*collect_resources=*/false, /*trace=*/nullptr, &sink);
      const obs::TailAttribution attrib = obs::AggregateTailAttribution(std::move(r.txn_paths));
      std::printf("%s", obs::RenderTxnWaterfall(
                            attrib, curves[i].system + " critical-path waterfall @ contexts=" +
                                        std::to_string(contexts))
                            .c_str());
      std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n\n",
                  static_cast<unsigned long long>(sink.zero_id_spans()),
                  static_cast<unsigned long long>(sink.orphan_instants()),
                  static_cast<unsigned long long>(sink.late_spans()));
      if (!first) {
        json += ',';
      }
      first = false;
      json += "{\"system\":\"" + curves[i].system + "\",\"contexts\":" +
              std::to_string(contexts) + ",\"txn_attrib\":" + obs::TxnAttribJson(attrib) + "}";
    }
    json += "]}";
    const std::string path = slug + ".txnattrib.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  if (!opts.trace_path.empty() && !curves.empty()) {
    const int peak = curves[0].PeakIndex();
    if (peak >= 0) {
      const uint32_t contexts = curves[0].points[static_cast<size_t>(peak)].contexts;
      obs::TraceRecorder rec;
      RerunPoint(cfgs[0], make_workload, rc, contexts, /*collect_resources=*/false, &rec);
      if (rec.WriteJson(opts.trace_path)) {
        std::fprintf(stderr, "wrote %s (%zu events, %zu tracks; %s @ contexts=%u)\n",
                     opts.trace_path.c_str(), rec.num_events(), rec.num_tracks(),
                     curves[0].system.c_str(), contexts);
      } else {
        std::fprintf(stderr, "failed to write %s\n", opts.trace_path.c_str());
      }
    }
  }
}

// Standard 6-node 3-replica system configs for the Figure 8 benches.
inline std::vector<SystemConfig> Figure8Systems(uint32_t nodes = 6, uint32_t replication = 3) {
  std::vector<SystemConfig> systems;
  SystemConfig xenic;
  xenic.kind = SystemConfig::Kind::kXenic;
  xenic.num_nodes = nodes;
  xenic.replication = replication;
  systems.push_back(xenic);
  for (auto mode : {baseline::BaselineMode::kDrtmH, baseline::BaselineMode::kDrtmHNC,
                    baseline::BaselineMode::kFasst, baseline::BaselineMode::kDrtmR}) {
    SystemConfig b;
    b.kind = SystemConfig::Kind::kBaseline;
    b.mode = mode;
    b.num_nodes = nodes;
    b.replication = replication;
    systems.push_back(b);
  }
  return systems;
}

}  // namespace xenic::bench

#endif  // BENCH_BENCH_COMMON_H_
