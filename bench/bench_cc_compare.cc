// OCC vs the 2PL trio on YCSB across skew (DESIGN.md §13): the concurrency
// control comparison the pluggable CcPolicy layer exists for. Every policy
// runs the same Xenic cluster, the same YCSB instance, and the same seeded
// load sweep at three zipfian thetas:
//
//   theta 0.00   uniform -- conflicts are rare, the policies should tie
//   theta 0.90   skewed -- the chaos-matrix setting
//   theta 0.99   YCSB-default hot -- a handful of keys carry the load
//
// For each (policy, theta) cell: sweep the load points, take the peak, then
// rerun the peak traced to attribute the p50->tail latency gap to a cost
// bucket. The printed tables give peak throughput, abort rate, the
// dominant abort reason (which differs structurally per policy: OCC aborts
// at VALIDATE, NO_WAIT at EXECUTE locks, WOUND_WAIT by wounds), and the
// fastest-growing tail bucket. BENCH_cc.json carries the same numbers for
// EXPERIMENTS.md and regression tracking. --attrib / --txn-attrib /
// --abort-breakdown attach the standard observability tables.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/txn/cc_policy.h"
#include "src/workload/ycsb.h"

namespace {

using namespace xenic;
using namespace xenic::bench;

constexpr txn::CcPolicyKind kPolicies[] = {
    txn::CcPolicyKind::kOcc,
    txn::CcPolicyKind::kNoWait,
    txn::CcPolicyKind::kWaitDie,
    txn::CcPolicyKind::kWoundWait,
};
constexpr double kThetas[] = {0.0, 0.9, 0.99};
constexpr size_t kNumPolicies = sizeof(kPolicies) / sizeof(kPolicies[0]);
constexpr size_t kNumThetas = sizeof(kThetas) / sizeof(kThetas[0]);

// Dominant abort reason of a run, by the protocol-level counters.
std::pair<const char*, uint64_t> TopAbortReason(const txn::TxnStats& s) {
  std::pair<const char*, uint64_t> top = {"none", 0};
  auto consider = [&](const char* name, uint64_t n) {
    if (n > top.second) {
      top = {name, n};
    }
  };
  consider("lock-execute", s.abort_lock_execute);
  consider("lock-local", s.abort_lock_local);
  consider("lock-ship", s.abort_lock_ship);
  consider("validate", s.abort_validate);
  consider("gap", s.abort_gap);
  consider("wounded", s.abort_wounded);
  consider("epoch-fence", s.abort_epoch_fence);
  consider("other", s.abort_other);
  return top;
}

// Bucket whose tail-vs-p50 gap is largest (AggregateTailAttribution ranks
// them already; ranked[0] is the fastest-growing).
const char* TopTailBucket(const obs::TailAttribution& a) {
  return obs::BucketName(static_cast<obs::CostBucket>(a.ranked[0]));
}

}  // namespace

int main(int argc, char** argv) {
  // Each cell sets its own --cc and features; only the run flags apply.
  const harness::RunSpec spec = ParseBenchFlags(
      argc, argv, harness::kFlagJobs | harness::kFlagSeed | harness::kRetryFlags |
                      harness::kObserverFlags);
  SweepExecutor ex(spec.jobs);

  const uint32_t nodes = 6;
  auto make_wl = [&](double theta) {
    return [theta, nodes]() -> std::unique_ptr<workload::Workload> {
      workload::Ycsb::Options wo;
      wo.num_nodes = nodes;
      wo.keys_per_node = 2000;  // small enough that theta .99 concentrates
      wo.zipf_theta = theta;
      wo.read_ratio = 0.5;
      wo.ops_per_txn = 4;
      return std::make_unique<workload::Ycsb>(wo);
    };
  };

  RunConfig base_rc;
  base_rc.seed = 11;
  base_rc.warmup = 150 * sim::kNsPerUs;
  base_rc.measure = 1000 * sim::kNsPerUs;
  spec.ApplyTo(&base_rc);  // --seed and the retry flags

  auto cell_system = [&](txn::CcPolicyKind cc) {
    SystemConfig cfg;
    cfg.kind = SystemConfig::Kind::kXenic;
    cfg.num_nodes = nodes;
    cfg.replication = 3;
    cfg.features.cc = cc;
    return cfg;
  };

  const std::vector<uint32_t> loads = {8, 16, 32};

  // One curve per (policy, theta) cell, every point an independent job.
  std::vector<std::vector<Curve>> curves(kNumPolicies,
                                         std::vector<Curve>(kNumThetas));
  {
    std::vector<std::function<void()>> tasks;
    for (size_t pi = 0; pi < kNumPolicies; ++pi) {
      for (size_t ti = 0; ti < kNumThetas; ++ti) {
        Curve& c = curves[pi][ti];
        c.system = std::string(txn::CcPolicyName(kPolicies[pi])) + "@" +
                   TablePrinter::Fmt(kThetas[ti], 2);
        c.points.resize(loads.size());
        for (size_t li = 0; li < loads.size(); ++li) {
          tasks.push_back([&, pi, ti, li] {
            auto wl = make_wl(kThetas[ti])();
            auto system = harness::BuildSystem(cell_system(kPolicies[pi]), *wl);
            harness::LoadWorkload(*system, *wl);
            RunConfig rc = base_rc;
            rc.contexts_per_node = loads[li];
            curves[pi][ti].points[li].contexts = loads[li];
            curves[pi][ti].points[li].result = harness::RunWorkload(*system, *wl, rc);
          });
        }
      }
    }
    ex.RunAll(tasks);
  }

  // Traced rerun of every cell's peak for tail attribution.
  std::vector<std::vector<obs::TailAttribution>> attribs(
      kNumPolicies, std::vector<obs::TailAttribution>(kNumThetas));
  std::vector<std::vector<uint32_t>> peak_ctx(kNumPolicies,
                                              std::vector<uint32_t>(kNumThetas, 0));
  {
    std::vector<std::function<void()>> tasks;
    for (size_t pi = 0; pi < kNumPolicies; ++pi) {
      for (size_t ti = 0; ti < kNumThetas; ++ti) {
        const int peak = curves[pi][ti].PeakIndex();
        if (peak < 0) {
          continue;
        }
        peak_ctx[pi][ti] = curves[pi][ti].points[static_cast<size_t>(peak)].contexts;
        tasks.push_back([&, pi, ti] {
          obs::TxnTraceSink sink;
          RunConfig rc = base_rc;
          rc.txn_trace = &sink;
          RunResult r = RerunPoint(cell_system(kPolicies[pi]), make_wl(kThetas[ti]), rc,
                                   peak_ctx[pi][ti]);
          attribs[pi][ti] = obs::AggregateTailAttribution(std::move(r.txn_paths));
        });
      }
    }
    ex.RunAll(tasks);
  }

  TablePrinter tp({"Policy", "Theta", "Contexts", "Peak tput/srv", "Abort%",
                   "Top abort", "Waits", "Wounds", "Tail bucket"});
  std::vector<JsonObject> cells;
  for (size_t pi = 0; pi < kNumPolicies; ++pi) {
    for (size_t ti = 0; ti < kNumThetas; ++ti) {
      const int peak = curves[pi][ti].PeakIndex();
      if (peak < 0) {
        continue;
      }
      const RunResult& r = curves[pi][ti].points[static_cast<size_t>(peak)].result;
      const auto [reason, reason_n] = TopAbortReason(r.txn_stats);
      tp.AddRow({txn::CcPolicyName(kPolicies[pi]), TablePrinter::Fmt(kThetas[ti], 2),
                 TablePrinter::Fmt(static_cast<uint64_t>(peak_ctx[pi][ti])),
                 TablePrinter::FmtOps(curves[pi][ti].PeakTput()),
                 TablePrinter::Fmt(r.abort_rate * 100, 1), reason,
                 TablePrinter::Fmt(r.txn_stats.cc_waits),
                 TablePrinter::Fmt(r.txn_stats.cc_wounds),
                 TopTailBucket(attribs[pi][ti])});
      cells.push_back(JsonObject()
                          .Str("policy", txn::CcPolicyName(kPolicies[pi]))
                          .Num("theta", kThetas[ti], 2)
                          .Int("contexts", peak_ctx[pi][ti])
                          .Num("peak_tput_per_server", curves[pi][ti].PeakTput(), 0)
                          .Num("abort_rate", r.abort_rate, 4)
                          .Str("top_abort_reason", reason)
                          .Int("top_abort_count", reason_n)
                          .Int("cc_waits", r.txn_stats.cc_waits)
                          .Int("cc_wounds", r.txn_stats.cc_wounds)
                          .Int("abort_wounded", r.txn_stats.abort_wounded)
                          .Int("abort_validate", r.txn_stats.abort_validate)
                          .Int("abort_lock_execute", r.txn_stats.abort_lock_execute)
                          .Str("top_tail_bucket", TopTailBucket(attribs[pi][ti])));
    }
  }
  std::printf("%s", tp.Render("CC compare: YCSB, policy x zipf theta @ peak").c_str());

  WriteBenchFile("BENCH_cc.json",
                 JsonObject()
                     .Str("bench", "cc_compare")
                     .Str("workload", "ycsb")
                     .Num("read_ratio", 0.5, 1)
                     .Int("ops_per_txn", 4)
                     .List("cells", cells),
                 {Metric("peak_tput_per_server", "txn/s", "higher", 0.05),
                  Metric("abort_rate", "fraction", "lower", 0.05)});

  // Standard observability passes (per-policy at theta 0.99, where the
  // policies differ most): abort breakdown, bottleneck attribution,
  // critical-path waterfalls per --abort-breakdown/--attrib/--txn-attrib.
  std::vector<SystemConfig> cfgs;
  std::vector<Curve> hot_curves;
  for (size_t pi = 0; pi < kNumPolicies; ++pi) {
    cfgs.push_back(cell_system(kPolicies[pi]));
    hot_curves.push_back(curves[pi][kNumThetas - 1]);
  }
  FinishBench(spec, "cc_compare", cfgs, make_wl(kThetas[kNumThetas - 1]), base_rc,
              hot_curves);
  return 0;
}
