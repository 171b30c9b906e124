// Shared helpers for the paper-reproduction benches: load sweeps producing
// throughput/latency curves per system, and paper-style table output.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/output_file.h"
#include "src/common/table_printer.h"
#include "src/harness/observers.h"
#include "src/harness/run_spec.h"
#include "src/harness/runner.h"
#include "src/harness/sweep.h"
#include "src/obs/critical_path.h"
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

// Print the full curves plus the paper-style comparison summary (peak
// throughput factor and median latency reduction vs the best alternative).
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

// The sweep benches' flags: sweep workers, the run seed and retry policy,
// the Xenic feature toggles (RunSpec::ApplyTo), and the observers that
// FinishBench applies after the sweep.
inline constexpr uint64_t kBenchFlags = harness::kFlagJobs | harness::kFlagSeed |
                                        harness::kRetryFlags | harness::kXenicFeatureFlags |
                                        harness::kObserverFlags;

// A bench's command line: the shared flags in `shared`, and no others.
inline harness::RunSpec ParseBenchFlags(int argc, char** argv, uint64_t shared = kBenchFlags) {
  harness::RunSpec spec;
  const bool observers = (shared & harness::kObserverFlags) != 0;
  harness::FlagSet(&spec, shared, observers ? "observers rerun each system's peak point once\n" : "")
      .Parse(argc, argv);
  return spec;
}

// Rerun one (system, load) point; `rc` carries the observers to attach.
inline RunResult RerunPoint(const SystemConfig& cfg, const WorkloadFactory& make_workload,
                            RunConfig rc, uint32_t contexts) {
  auto wl = make_workload();
  auto system = harness::BuildSystem(cfg, *wl);
  harness::LoadWorkload(*system, *wl);
  rc.contexts_per_node = contexts;
  return harness::RunWorkload(*system, *wl, rc);
}

// Post-sweep observer pass (harness::Observers): each system's peak point is
// rerun at most once, with every requested observer attached, through a
// SweepExecutor of --jobs workers. The reruns reuse the sweep's exact
// RunConfig, so (by the determinism contract) they reproduce the printed
// point. The systems' sections print in system order -- the latency
// histogram lists every point of the curve -- and <slug>.report.json holds
// their entries. No-op without observer flags.
inline void FinishBench(const harness::RunSpec& opts, const std::string& slug,
                        const std::vector<SystemConfig>& cfgs,
                        const WorkloadFactory& make_workload, const RunConfig& rc,
                        const std::vector<Curve>& curves) {
  if (!opts.Observed()) {
    return;
  }
  const size_t n = std::min(cfgs.size(), curves.size());
  std::vector<std::unique_ptr<harness::Observers>> observers;
  std::vector<RunResult> reruns(n);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < n; ++i) {
    observers.push_back(std::make_unique<harness::Observers>(opts, /*trace=*/i == 0));
    const int peak = curves[i].PeakIndex();
    if (peak >= 0 && observers[i]->NeedsRun()) {
      tasks.push_back([&, i, peak] {
        RunConfig r = rc;
        observers[i]->AttachTo(&r);
        reruns[i] = RerunPoint(cfgs[i], make_workload, r,
                               curves[i].points[static_cast<size_t>(peak)].contexts);
      });
    }
  }
  SweepExecutor(opts.jobs).RunAll(tasks);

  harness::RunReport report{slug};
  for (size_t i = 0; i < n; ++i) {
    const int peak = curves[i].PeakIndex();
    if (peak < 0) {
      continue;
    }
    const CurvePoint& p = curves[i].points[static_cast<size_t>(peak)];
    std::vector<harness::Observers::LatencyPoint> points;
    for (const CurvePoint& q : curves[i].points) {
      points.push_back({q.contexts, &q.result.latency});
    }
    observers[i]->Print(curves[i].system, p.contexts,
                        observers[i]->NeedsRun() ? reruns[i] : p.result, &report, points);
  }
  report.Write(slug);
}

// A BENCH_*.json document: a JSON object written member by member, in
// order. A number keeps the decimals its bench chose, so the file holds the
// values the bench printed. Strings are written unescaped: each is a bench's
// own identifier (a policy, scenario or bucket name).
class JsonObject {
 public:
  JsonObject& Str(const char* key, const std::string& v) { return Raw(key, '"' + v + '"'); }
  JsonObject& Int(const char* key, uint64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Num(const char* key, double v, int decimals) {
    return Raw(key, TablePrinter::Fmt(v, decimals));
  }
  // A list of objects, one per line.
  JsonObject& List(const char* key, const std::vector<JsonObject>& items) {
    std::string list;
    for (const JsonObject& item : items) {
      list += (list.empty() ? "[\n" : ",\n") + item.Text();
    }
    return Raw(key, list.empty() ? "[]" : list + "\n]");
  }
  std::string Text() const { return "{" + members_ + "}"; }

 private:
  JsonObject& Raw(const char* key, const std::string& v) {
    members_ += (members_.empty() ? "\"" : ",\"") + std::string(key) + "\":" + v;
    return *this;
  }
  std::string members_;
};

// One entry of a BENCH_*.json file's "metrics" list, in the entry shape of
// BENCHMARK.json's end_to_end list. tools/bench_gate.py gates every numeric
// leaf whose key is `name`: a "higher" or "lower" leaf fails when it moves
// the wrong way by more than `bound` times its checked-in value, an "exact"
// leaf on any change.
inline JsonObject Metric(const char* name, const char* unit, const char* better,
                         double bound = 0) {
  return JsonObject()
      .Str("name", name)
      .Str("unit", unit)
      .Str("better", better)
      .Num("bound", bound, 2);
}

// Writes a bench's BENCH_*.json: `doc`'s members, then the "metrics" list
// that says which of them the gate checks and which way is better.
inline void WriteBenchFile(const std::string& path, JsonObject doc,
                           const std::vector<JsonObject>& metrics) {
  WriteOutputFile(path, doc.List("metrics", metrics).Text() + "\n");
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
