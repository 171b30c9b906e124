// The Xenic benchmark: one workload per invocation, single process and
// thread, every metric printed by name with its unit, outputs checked.
//
//   perfbench --workload retwis --seed 1 --seconds 10 --trace 0
//
// A run has up to three passes, each on a freshly built and loaded cluster:
//
//   timed    rounds of: BuildSystem + LoadWorkload (timed), the low-load
//            point (1 context/node), then the loaded point (timed) on the
//            same cluster. Rounds repeat on fresh clusters until --seconds
//            have passed (at least kMinRounds). Setup time and host time per
//            transaction are medians over rounds, and every round must
//            reproduce round 0's modeled values. No decorator or observer
//            is attached.
//   check    the same sequence through the TimedWorkload/TimedSystem
//            decorators. Its modeled values must equal the timed pass's; it
//            counts dropped and refused transactions and, on RMW workloads,
//            records the history for the serializability checker. With
//            --trace 1 its loaded point also collects resource snapshots and
//            per-transaction critical paths: this is the traced run.
//   micro    (--trace 1 only) google-benchmark loops over each layer.
//
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit status 1 when an output
// check fails, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "decorators.h"
#include "microbench.h"
#include "report.h"
#include "src/chaos/history.h"
#include "src/harness/runner.h"
#include "src/obs/critical_path.h"
#include "src/obs/txn_trace.h"
#include "workloads.h"

namespace {

using namespace xenic;
using namespace perfbench;

constexpr int kMinRounds = 3;         // timed rounds per run, at least
constexpr double kMicroMinTime = 0.05;  // seconds per microbench loop
constexpr uint64_t kMinP99Samples = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "%s\nusage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                       "workloads:", msg);
  for (const auto& s : Workloads()) {
    std::fprintf(stderr, " %s", s.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + flag).c_str());
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      continue;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  if (a.seconds <= 0) {
    Usage("--seconds must be positive");
  }
  return a;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double PerTxn(double v, uint64_t committed) {
  return committed == 0 ? 0.0 : v / static_cast<double>(committed);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Output checks: each failure is printed and makes the run incorrect.
struct Checks {
  bool ok = true;
  void Expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  // Properties every run result must have.
  void Result(const harness::RunResult& r, const std::string& point) {
    Expect(r.txn_stats.by_type.TotalMsgs() == r.txn_stats.messages,
           point + ": per-type message counts sum to the message total");
    Expect(r.committed > 0, point + ": committed > 0");
  }
};

// The modeled values a pass produces; two passes of one seed must agree.
// Latency is summarized by its mean, not its median: the Retwis mix is
// multi-modal around its median (read-only vs read-write, 1-10 keys), so
// the median jumps by up to a quarter from seed to seed while the mean
// moves ~2%. The median is still printed for comparison with Figure 8.
struct Modeled {
  double tput = 0;
  double mean_us = 0;
  double p99_us = 0;
  double lowload_mean_us = 0;
  uint64_t committed = 0;
  uint64_t sim_events = 0;

  static Modeled Of(const harness::RunResult& low, const harness::RunResult& loaded) {
    Modeled m;
    m.tput = loaded.tput_per_server;
    m.mean_us = loaded.latency.Mean() / 1e3;
    m.p99_us = InterpolatedQuantileUs(loaded.latency, 0.99);
    m.lowload_mean_us = low.latency.Mean() / 1e3;
    m.committed = loaded.committed;
    m.sim_events = loaded.sim_events;
    return m;
  }
  bool operator==(const Modeled&) const = default;
};

struct Setup {
  std::unique_ptr<workload::Workload> wl;
  std::unique_ptr<harness::SystemAdapter> sys;
  uint64_t build_ns = 0;
  uint64_t load_ns = 0;
};

Setup BuildAndLoad(const WorkloadSpec& spec) {
  Setup s;
  s.wl = spec.make();
  const uint64_t t0 = NowNs();
  s.sys = harness::BuildSystem(spec.system, *s.wl);
  const uint64_t t1 = NowNs();
  harness::LoadWorkload(*s.sys, *s.wl);
  s.build_ns = t1 - t0;
  s.load_ns = NowNs() - t1;
  return s;
}

void Release(Setup& s) {
  s.sys.reset();  // the system references the workload's partitioner
  s.wl.reset();
}

struct TimedPass {
  std::vector<double> setup_s, build_s, load_s;
  harness::RunResult low;
  harness::RunResult loaded;  // round 0's loaded point
  uint64_t loaded_allocs = 0;
  double peak_rss_mb = 0;  // after round 0
  std::vector<double> host_us_per_txn, loaded_wall_s, events_per_s;  // per round
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Rounds of build + load, low-load point, loaded point, each on a fresh
// cluster so every round does identical work; rounds repeat until `seconds`
// have passed. Round 0 supplies the deterministic counts and peak RSS.
TimedPass RunTimed(const WorkloadSpec& spec, uint64_t seed, double seconds, Checks& checks) {
  TimedPass t;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  Modeled first;
  for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
    Setup s = BuildAndLoad(spec);
    t.build_s.push_back(Seconds(s.build_ns));
    t.load_s.push_back(Seconds(s.load_ns));
    t.setup_s.push_back(Seconds(s.build_ns + s.load_ns));
    harness::RunResult low = harness::RunWorkload(*s.sys, *s.wl, RunConfigFor(spec, 1, seed));
    const uint64_t allocs0 = AllocCount();
    const uint64_t t0 = NowNs();
    harness::RunResult loaded =
        harness::RunWorkload(*s.sys, *s.wl, RunConfigFor(spec, spec.contexts, seed));
    const double wall = Seconds(NowNs() - t0);
    const uint64_t allocs = AllocCount() - allocs0;

    const std::string tag = "timed round " + std::to_string(round);
    checks.Result(low, tag + " low-load point");
    checks.Result(loaded, tag + " loaded point");
    const bool stalled = loaded.committed == 0;
    t.loaded_wall_s.push_back(wall);
    t.host_us_per_txn.push_back(PerTxn(wall * 1e6, loaded.committed));
    t.events_per_s.push_back(static_cast<double>(loaded.sim_events) / wall);
    if (round == 0) {
      first = Modeled::Of(low, loaded);
      t.low = std::move(low);
      t.loaded = std::move(loaded);
      t.loaded_allocs = allocs;
      t.peak_rss_mb = PeakRssMb();
    } else {
      checks.Expect(Modeled::Of(low, loaded) == first, tag + " reproduces round 0");
    }
    Release(s);
    if (stalled) {
      break;  // already reported; nothing to time
    }
  }
  return t;
}

struct CheckPass {
  Probe probe;
  Probe before_loaded;  // probe counters when the loaded point started
  harness::RunResult low;
  harness::RunResult loaded;
  double loaded_wall_s = 0;
  obs::TxnTraceSink sink;

  // Logical transactions the loaded point started, and those of them that
  // failed: dropped at the retry cap or refused by Submit.
  uint64_t Attempted() const { return probe.next_txn.calls - before_loaded.next_txn.calls; }
  uint64_t Failed() const {
    return probe.dropped - before_loaded.dropped + probe.refused - before_loaded.refused;
  }
};

void RunCheck(const WorkloadSpec& spec, uint64_t seed, bool traced, CheckPass& c,
              chaos::HistoryRecorder* history) {
  auto wl = spec.make();
  TimedWorkload twl(*wl, c.probe);
  TimedSystem sys(harness::BuildSystem(spec.system, twl), c.probe, history);
  harness::LoadWorkload(sys, twl);
  c.low = harness::RunWorkload(sys, twl, RunConfigFor(spec, 1, seed));
  harness::RunConfig rc = RunConfigFor(spec, spec.contexts, seed);
  if (traced) {
    rc.collect_resources = true;
    rc.txn_trace = &c.sink;
  }
  c.before_loaded = c.probe;
  const uint64_t t0 = NowNs();
  c.loaded = harness::RunWorkload(sys, twl, rc);
  c.loaded_wall_s = Seconds(NowNs() - t0);
}

void AddEndToEnd(Report& e2e, const TimedPass& t, const Modeled& m) {
  const uint64_t committed = t.loaded.committed;
  e2e.Add("tput_per_server", m.tput, "txn/s");
  e2e.Add("mean_us", m.mean_us, "us");
  e2e.Add("p99_us", m.p99_us, "us");
  e2e.Add("lowload_mean_us", m.lowload_mean_us, "us");
  e2e.Add("setup_s", Median(t.setup_s), "s");
  e2e.Add("peak_rss_mb", t.peak_rss_mb, "MB");
  e2e.Add("events_per_txn", PerTxn(static_cast<double>(t.loaded.sim_events), committed), "count");
  e2e.Add("allocs_per_txn", PerTxn(static_cast<double>(t.loaded_allocs), committed), "count");
}

// Per-layer metrics from the traced pass, the timed pass and the
// microbench loops.
void AddPerLayer(Report& pl, const WorkloadSpec& spec, const TimedPass& t, const CheckPass& c,
                 const std::map<std::string, MicroResult>& micro) {
  const harness::RunResult& r = c.loaded;
  const txn::TxnStats& s = r.txn_stats;
  const uint64_t committed = r.committed;
  const auto res = MergeResources(r.resources);
  auto at = [&micro](const std::string& name) {
    auto it = micro.find(name);
    return it == micro.end() ? MicroResult{} : it->second;
  };
  auto micro_metric = [&](const std::string& name) { pl.Add(name, at(name).ns, "ns"); };
  auto res_metrics = [&](const std::string& name) {
    auto it = res.find(name);
    const ResourceStat rs = it == res.end() ? ResourceStat{} : it->second;
    pl.Add("res." + name + ".util", rs.util, "fraction");
    pl.Add("res." + name + ".wait_ns", rs.wait_ns, "ns");
  };
  // Probe deltas over the loaded point only.
  auto delta = [&c](CallTimer Probe::*field) {
    CallTimer d;
    d.calls = (c.probe.*field).calls - (c.before_loaded.*field).calls;
    d.ns = (c.probe.*field).ns - (c.before_loaded.*field).ns;
    return d;
  };
  const CallTimer next_txn = delta(&Probe::next_txn);
  const CallTimer hook = delta(&Probe::worker_hook);
  const CallTimer submit = delta(&Probe::submit);
  const uint64_t keys = c.probe.keys - c.before_loaded.keys;
  uint64_t grants = 0;
  uint64_t sends = 0;
  for (const auto& [name, rs] : res) {
    (rs.is_link ? sends : grants) += rs.completed;
  }

  // harness
  pl.Add("harness.build_s", Median(t.build_s), "s");
  pl.Add("harness.load_s", Median(t.load_s), "s");
  // store
  pl.Add("store.load_ns_per_record", c.probe.load.NsPerCall(), "ns");
  for (const char* m : {"store.robinhood_insert_ns", "store.robinhood_lookup_ns",
                        "store.nic_index_lookup_cached_ns", "store.nic_index_lookup_uncached_ns"}) {
    micro_metric(m);
  }
  // sim
  pl.Add("sim.events_per_s", Median(t.events_per_s), "1/s");
  for (const char* m : {"sim.ns_per_event", "sim.callback_inline_ns", "sim.callback_spilled_ns",
                        "sim.resource_grant_ns", "sim.channel_send_ns"}) {
    micro_metric(m);
  }
  pl.Add("sim.resource_grants_per_txn", PerTxn(static_cast<double>(grants), committed), "count");
  pl.Add("sim.channel_sends_per_txn", PerTxn(static_cast<double>(sends), committed), "count");
  // net
  pl.Add("net.msgs_per_txn", PerTxn(static_cast<double>(s.messages), committed), "count");
  pl.Add("net.wire_bytes_per_txn", PerTxn(static_cast<double>(s.by_type.TotalBytes()), committed),
         "bytes");
  micro_metric("net.transport_send_ns");
  res_metrics("wire_tx");
  // nicmodel
  pl.Add("nicmodel.dma_ops_per_txn", PerTxn(static_cast<double>(r.dma_ops), committed), "count");
  pl.Add("nicmodel.dma_bytes_per_txn", PerTxn(static_cast<double>(r.dma_bytes), committed),
         "bytes");
  for (const char* name : {"nic_cores", "dma_queues", "dma_submit", "pcie_up", "pcie_down"}) {
    res_metrics(name);
  }
  // btree / workload
  micro_metric("btree.put_ns");
  micro_metric("btree.get_ns");
  pl.Add("workload.worker_hook_ns", hook.NsPerCall(), "ns");
  pl.Add("workload.next_txn_ns", next_txn.NsPerCall(), "ns");
  // txn
  pl.Add("txn.submit_ns", submit.NsPerCall(), "ns");
  pl.Add("txn.abort_rate", r.abort_rate, "fraction");
  const uint64_t attempts = s.committed + s.aborted + s.app_aborted;
  pl.Add("txn.commit_ratio", Share(s.committed, attempts), "fraction");
  const uint64_t classified = s.abort_lock_execute + s.abort_lock_local + s.abort_lock_ship +
                              s.abort_validate + s.abort_gap;
  // "other" folds in wounds, epoch fences, and aborts a system does not
  // classify (the baselines), so the six shares sum to 1 when anything aborted.
  const uint64_t other = s.aborted >= classified ? s.aborted - classified : 0;
  pl.Add("txn.abort_share.lock_execute", Share(s.abort_lock_execute, s.aborted), "fraction");
  pl.Add("txn.abort_share.lock_local", Share(s.abort_lock_local, s.aborted), "fraction");
  pl.Add("txn.abort_share.lock_ship", Share(s.abort_lock_ship, s.aborted), "fraction");
  pl.Add("txn.abort_share.validate", Share(s.abort_validate, s.aborted), "fraction");
  pl.Add("txn.abort_share.gap", Share(s.abort_gap, s.aborted), "fraction");
  pl.Add("txn.abort_share.other", Share(other, s.aborted), "fraction");
  pl.Add("txn.remote_rounds_per_txn", PerTxn(static_cast<double>(s.remote_rounds), committed),
         "count");
  pl.Add("txn.local_fastpath_share", Share(s.local_fastpath, attempts), "fraction");
  res_metrics("host_cores");
  pl.Add("txn.failed_share", Share(c.Failed(), c.Attempted()), "fraction");
  // repl: every Xenic LOG record is answered by one ACK (reply_to LOG); a
  // baseline LOG verb carries its own response.
  const uint64_t logs = s.by_type.MsgCount(net::MsgType::kLog);
  const bool xenic = spec.system.kind == harness::SystemConfig::Kind::kXenic;
  pl.Add("repl.log_msgs_per_txn", PerTxn(static_cast<double>(xenic ? 2 * logs : logs), committed),
         "count");
  // baseline
  res_metrics("rdma_pipeline");
  // common
  micro_metric("common.histogram_record_ns");
  // critical path
  const obs::TailAttribution cp = obs::AggregateTailAttribution(r.txn_paths);
  for (int b = 0; b < obs::kNumBuckets; ++b) {
    const std::string bucket = obs::BucketName(static_cast<obs::CostBucket>(b));
    pl.Add("cp.p50." + bucket + "_us", cp.p50_mean[b] / 1e3, "us");
  }
  for (int b = 0; b < obs::kNumBuckets; ++b) {
    const std::string bucket = obs::BucketName(static_cast<obs::CostBucket>(b));
    pl.Add("cp.tail." + bucket + "_us", cp.tail_mean[b] / 1e3, "us");
  }

  // Host decomposition. Every engine event of the loaded point is charged
  // once: inside a resource grant or channel send (whose loops time the
  // grant/send together with the events it schedules) or else at the bare
  // event cost. The net term is what a message send costs beyond the grants,
  // sends and events it causes, which those terms already charge.
  const double ns_event = at("sim.ns_per_event").ns;
  const MicroResult grant = at("sim.resource_grant_ns");
  const MicroResult send = at("sim.channel_send_ns");
  const MicroResult tr = at("net.transport_send_ns");
  const double tr_other_events = std::max(
      0.0, tr.events_per_op - tr.grants_per_op * grant.events_per_op -
               tr.sends_per_op * send.events_per_op);
  const double net_ns = std::max(0.0, tr.ns - tr.grants_per_op * grant.ns -
                                          tr.sends_per_op * send.ns - tr_other_events * ns_event);
  const double bare_events =
      std::max(0.0, static_cast<double>(r.sim_events) -
                        static_cast<double>(grants) * grant.events_per_op -
                        static_cast<double>(sends) * send.events_per_op);
  const double lookup_ns =
      at(xenic ? "store.nic_index_lookup_cached_ns" : "store.robinhood_lookup_ns").ns;
  const double host_us_per_txn = Median(t.host_us_per_txn);
  pl.Add("host_us_per_txn", host_us_per_txn, "us");
  const Decomposition d = Decompose(
      host_us_per_txn * 1e3,
      {
          {"sim", PerTxn(bare_events, committed) * ns_event},
          {"resource", PerTxn(static_cast<double>(grants), committed) * grant.ns},
          {"channel", PerTxn(static_cast<double>(sends), committed) * send.ns},
          {"net", PerTxn(static_cast<double>(s.messages), committed) * net_ns},
          {"store", PerTxn(static_cast<double>(keys), committed) * lookup_ns},
          {"workload", PerTxn(static_cast<double>(next_txn.ns + hook.ns), committed)},
          {"common", PerTxn(static_cast<double>(r.latency.count()), committed) *
                         at("common.histogram_record_ns").ns},
      });
  for (const auto& term : d.terms) {
    pl.Add("host.est." + term.layer + "_ns_per_txn", term.ns_per_txn, "ns");
  }
  pl.Add("host.unattributed_ns_per_txn", d.residue_ns, "ns");
  pl.Add("trace_overhead", c.loaded_wall_s / Median(t.loaded_wall_s), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const uint64_t seed = args.seed_given ? args.seed : spec->default_seed;
  std::printf("workload %s: %s, %u contexts/node, seed %llu (default %llu, held-out %llu)\n",
              spec->name.c_str(),
              spec->system.kind == harness::SystemConfig::Kind::kXenic ? "Xenic" : "DrTM+H",
              spec->contexts, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(spec->default_seed),
              static_cast<unsigned long long>(spec->heldout_seed));
  std::fflush(stdout);

  Checks checks;
  const TimedPass timed = RunTimed(*spec, seed, args.seconds, checks);
  const Modeled modeled = Modeled::Of(timed.low, timed.loaded);

  chaos::HistoryRecorder history;
  auto check = std::make_unique<CheckPass>();
  RunCheck(*spec, seed, args.trace, *check, spec->check_history ? &history : nullptr);
  checks.Result(check->low, "check low-load point");
  checks.Result(check->loaded, "check loaded point");
  checks.Expect(Modeled::Of(check->low, check->loaded) == modeled,
                "decorated rerun reproduces the timed pass's modeled values");
  checks.Expect(timed.loaded.latency.count() >= kMinP99Samples,
                "p99 rests on at least 1000 commits (got " +
                    std::to_string(timed.loaded.latency.count()) + ")");
  if (spec->check_history) {
    const chaos::CheckResult h = history.Check();
    std::printf("serializability: %zu committed txns, %zu edges, %zu version gaps: %s\n", h.txns,
                h.edges, h.version_gaps, h.ok() ? "PASS" : "FAIL");
    checks.Expect(h.ok() && h.txns > 0, "committed history is serializable");
  }
  const uint64_t attempted = check->Attempted();
  const uint64_t failed = check->Failed();

  Report e2e;
  AddEndToEnd(e2e, timed, modeled);
  std::printf("committed %llu (latency sample count), low-load committed %llu, abort rate %.4f, "
              "attempted %llu, failed %llu (share %.6f), timed rounds %zu\n",
              static_cast<unsigned long long>(timed.loaded.latency.count()),
              static_cast<unsigned long long>(timed.low.latency.count()), timed.loaded.abort_rate,
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              Share(failed, attempted), timed.host_us_per_txn.size());
  std::printf("median %.2f us (runner %.1f us), low-load median %.2f us\n",
              InterpolatedQuantileUs(timed.loaded.latency, 0.5), timed.loaded.MedianLatencyUs(),
              InterpolatedQuantileUs(timed.low.latency, 0.5));
  std::printf("host us/txn per round:");
  for (double v : timed.host_us_per_txn) {
    std::printf(" %.1f", v);
  }
  std::printf("\nsetup s per round:");
  for (double v : timed.setup_s) {
    std::printf(" %.3f", v);
  }
  std::printf("\n");
  std::printf("%s", e2e.Lines("e2e  ").c_str());

  Report out = e2e;
  if (args.trace) {
    const auto micro = RunMicrobenches(seed, kMicroMinTime);
    Report pl;
    AddPerLayer(pl, *spec, timed, *check, micro);
    std::printf("%s", pl.Lines("layer ").c_str());
    out = pl;
  }
  std::printf("%s\n", out.Json(checks.ok, attempted, failed).c_str());
  return checks.ok ? 0 : 1;
}
