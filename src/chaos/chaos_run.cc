#include "src/chaos/chaos_run.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>

#include "src/workload/workload.h"
#include "src/workload/ycsb.h"

namespace xenic::chaos {

namespace {

using store::GetI64;
using store::PutI64;
using store::Value;
using txn::ExecRound;
using txn::TxnOutcome;
using txn::TxnRequest;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out(16, 0);
  PutI64(out, 0, v);
  return out;
}

// Closed-loop bank-transfer workload: every transaction reads 2-3 accounts
// and rebalances their total across them (conserving money and creating
// real read-write dependencies between overlapping transactions).
class BankWorkload : public workload::Workload {
 public:
  BankWorkload(uint32_t keys, int64_t initial_balance, uint32_t num_nodes)
      : keys_(keys), initial_balance_(initial_balance), part_(num_nodes) {}

  std::string Name() const override { return "chaos-bank"; }

  std::vector<workload::TableDef> Tables() const override {
    workload::TableDef t;
    t.id = kBank;
    t.name = "bank";
    t.capacity_log2 = 10;
    t.value_size = 16;
    t.max_displacement = 8;
    return {t};
  }

  const txn::Partitioner& partitioner() const override { return part_; }

  void Load(const workload::LoadFn& load) override {
    for (store::Key k = 1; k <= keys_; ++k) {
      load(kBank, k, Balance(initial_balance_));
    }
  }

  TxnRequest NextTxn(store::NodeId coordinator, Rng& rng) override {
    (void)coordinator;
    const size_t n_keys = 2 + rng.NextBounded(2);
    std::vector<store::Key> keys;
    while (keys.size() < n_keys) {
      const store::Key k = 1 + rng.NextBounded(keys_);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    TxnRequest req;
    for (auto k : keys) {
      req.reads.push_back({kBank, k});
      req.writes.push_back({kBank, k});
    }
    req.execute = [](ExecRound& er) {
      int64_t sum = 0;
      for (const auto& r : *er.reads) {
        sum += GetI64(r.value, 0);
      }
      const auto n = static_cast<int64_t>(er.reads->size());
      for (size_t i = 0; i < er.reads->size(); ++i) {
        (*er.writes)[i].value = Balance(sum / n + (i == 0 ? sum % n : 0));
      }
    };
    return req;
  }

 private:
  uint32_t keys_;
  int64_t initial_balance_;
  txn::HashPartitioner part_;
};

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kEvictionStorm:
      return "storm";
    case FaultKind::kPlannedHandoff:
      return "handoff";
    case FaultKind::kStallStart:
    default:
      return "stall";
  }
}

}  // namespace

ChaosVerdict RunChaos(const ChaosConfig& config) {
  ChaosVerdict verdict;
  verdict.seed = config.seed;
  verdict.epoch = config.epoch;

  std::unique_ptr<workload::Workload> wl;
  if (config.workload == ChaosWorkload::kYcsb) {
    workload::Ycsb::Options yo;
    yo.num_nodes = config.system.num_nodes;
    yo.keys_per_node =
        std::max<uint64_t>(1, config.keys / std::max<uint32_t>(1, config.system.num_nodes));
    yo.zipf_theta = config.ycsb_theta;
    yo.ops_per_txn = 3;
    yo.value_size = 16;
    wl = std::make_unique<workload::Ycsb>(yo);
  } else {
    wl = std::make_unique<BankWorkload>(config.keys, config.initial_balance,
                                        config.system.num_nodes);
  }
  workload::Workload& workload = *wl;
  auto system = harness::BuildSystem(config.system, workload);
  verdict.system_name = system->Name();
  harness::LoadWorkload(*system, workload);
  system->StartWorkers();

  sim::Engine& engine = system->engine();
  FaultInjector injector(*system, config.faults, config.seed, config.epoch);
  injector.Arm(config.horizon);

  // Closed-loop submitters. The Rng stream is decorrelated from the fault
  // plan's; callback order inside the engine is deterministic, so one
  // shared stream keeps the whole run a function of (seed, epoch).
  Rng rng(ScrambleKey(config.seed ^ ScrambleKey(config.epoch + 0x243f6a88u)) | 1u);
  HistoryRecorder recorder;

  // Timeline bins (pure bookkeeping on the completion callbacks already in
  // place; never schedules anything, so the verdict is unaffected). The
  // tiling contract this block used to spell out inline -- ceil(run_end /
  // window) bins tiling exactly [0, run_end], partial final bin when the
  // window does not divide the run, post-run completions dropped, t ==
  // run_end folded into the last bin -- now lives in obs::WindowSeries,
  // shared with the metrics registry and the harness.
  std::vector<ChaosVerdict::TimelineBin> bins;
  const sim::Tick run_end = config.horizon + config.drain;
  const bool metrics_armed =
      (config.metrics || !config.slo.empty()) && config.timeline_window > 0;
  obs::WindowSeries series;  // empty unless the bins are armed
  if ((config.timeline || metrics_armed) && config.timeline_window > 0) {
    series = obs::WindowSeries(config.timeline_window, run_end);
    bins.resize(series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      bins[i].start = series.StartOf(i);
      bins[i].width = series.WidthOf(i);
    }
  }

  // Windowed metrics (--metrics / --slo). Observer-only by construction:
  // the counters ride the completion callback above the bins already use,
  // and window closes sample at boundaries the engine was going to reach
  // anyway (see the sliced run loop below).
  obs::MetricRegistry reg;
  obs::WindowCounter* m_committed = nullptr;
  obs::WindowCounter* m_aborted = nullptr;
  obs::WindowHistogram* m_latency = nullptr;
  auto stats_snap = std::make_shared<txn::TxnStats>();
  if (metrics_armed) {
    m_committed = reg.AddCounter("chaos_committed");
    m_aborted = reg.AddCounter("chaos_aborted");
    m_latency = reg.AddHistogram("chaos_latency_ns");
    // One TxnStats snapshot per window close, shared by every derived
    // metric (TotalStats walks all nodes; pay that once per window, not
    // once per metric).
    auto* sys = system.get();
    reg.AddSampleHook([stats_snap, sys] { *stats_snap = sys->TotalStats(); });
    reg.AddCumulative("txn_messages", {}, [stats_snap] { return stats_snap->messages; });
    reg.AddCumulative("txn_remote_rounds", {},
                      [stats_snap] { return stats_snap->remote_rounds; });
    reg.AddCumulative("abort_lock_execute", {},
                      [stats_snap] { return stats_snap->abort_lock_execute; });
    reg.AddCumulative("abort_validate", {},
                      [stats_snap] { return stats_snap->abort_validate; });
    reg.AddCumulative("abort_wounded", {},
                      [stats_snap] { return stats_snap->abort_wounded; });
    reg.AddCumulative("nic_log_applied", {},
                      [stats_snap] { return stats_snap->nic_log_applied; });
    // The --msg-breakdown conservation law as a live metric: the per-type
    // message counts must sum to the transport total at every boundary.
    reg.AddGauge("net_conservation_violations", {}, [stats_snap] {
      const uint64_t per_type = stats_snap->by_type.TotalMsgs();
      const uint64_t total = stats_snap->messages;
      return per_type >= total ? per_type - total : total - per_type;
    });
    reg.BeginWindows(series, /*origin=*/0);
  }

  auto record_completion = [&](sim::Tick submitted, bool committed) {
    const sim::Tick now = engine.now();
    if (metrics_armed) {
      // Same domain as the bins: the registry drops post-run_end samples.
      (committed ? m_committed : m_aborted)->Add(now);
      if (committed) {
        // SLO latency is committed-transaction latency (the timeline's
        // lat_sum below deliberately keeps covering all completions).
        m_latency->Record(now, now - submitted);
      }
    }
    if (bins.empty()) {
      return;
    }
    size_t bi = 0;
    if (!series.IndexOf(now, &bi)) {
      // Post-run completion: the money-audit phase keeps the engine moving
      // after the drain, and wedged chains can complete there. Those land
      // outside the timeline's domain; clamping them into the final bin
      // (the old behavior) inflated its counts and latency tail.
      return;
    }
    ChaosVerdict::TimelineBin& b = bins[bi];
    (committed ? b.committed : b.aborted)++;
    const uint64_t lat = now - submitted;
    b.lat_sum_ns += lat;
    if (lat > b.lat_max_ns) {
      b.lat_max_ns = lat;
    }
  };

  uint32_t active = 0;
  std::function<void(store::NodeId, uint32_t)> run_one = [&](store::NodeId n,
                                                             uint32_t tries) {
    if (engine.now() >= config.horizon) {
      active--;
      return;
    }
    TxnRequest req = workload.NextTxn(n, rng);
    auto obs = recorder.Instrument(req);
    const sim::Tick submitted = engine.now();
    // A submit to a crashed coordinator is silently dropped: the chain
    // wedges, which is exactly what a client talking to a dead node sees.
    system->Submit(n, std::move(req), [&, n, obs, submitted, tries](txn::TxnResult res) {
      const bool committed = res.outcome == TxnOutcome::kCommitted;
      if (committed) {
        recorder.Commit(obs);
        verdict.committed++;
      } else {
        verdict.aborted++;
      }
      record_completion(submitted, committed);
      // Armed retry backoff (contention-scaled); with it off the submitter
      // loops back-to-back exactly as it always has (no extra Rng draws).
      if (!committed && config.retry_aborts &&
          res.outcome == TxnOutcome::kAborted) {
        const sim::Tick backoff =
            txn::RetryBackoff(config.retry, tries, res.contention, rng);
        engine.ScheduleAfter(backoff, [&, n, tries] { run_one(n, tries + 1); });
        return;
      }
      run_one(n, 0);
    });
  };
  for (store::NodeId n = 0; n < config.system.num_nodes; ++n) {
    for (uint32_t c = 0; c < config.contexts_per_node; ++c) {
      active++;
      run_one(n, 0);
    }
  }

  if (metrics_armed) {
    // Slice the run at window boundaries. RunUntil never schedules, so this
    // executes the identical event sequence as the single RunUntil/RunFor
    // pair below, and the series tiles [0, horizon + drain] exactly, so the
    // clock lands on run_end either way: the verdict -- events_executed
    // included -- is byte-identical with metrics on or off.
    for (size_t w = 0; w < series.size(); ++w) {
      engine.RunUntil(series.StartOf(w) + series.WidthOf(w));
      reg.CloseWindow(w);
    }
  } else {
    engine.RunUntil(config.horizon);
    engine.RunFor(config.drain);
  }
  verdict.unfinished = active;

  // Chains wedge only when their coordinator died mid-flight; anything
  // beyond that is a transaction the epoch sweep failed to resolve.
  const uint32_t max_wedged =
      config.contexts_per_node * static_cast<uint32_t>(injector.stats().crashes);
  if (verdict.unfinished > max_wedged) {
    std::ostringstream os;
    os << "wedged transactions: " << verdict.unfinished << " chains unfinished but only "
       << max_wedged << " can be stuck on crashed coordinators";
    verdict.failures.push_back(os.str());
  }

  // Money audit through the system itself: one read-all transaction (from
  // the lowest-id live node) sees every committed write via the same
  // pending-aware read path normal transactions use, on Xenic and the
  // baselines alike. It doubles as a liveness probe of the recovered map.
  // Only the bank workload carries the invariant; kYcsb skips the audit
  // (and its Summary line) entirely.
  verdict.money_audited = config.workload == ChaosWorkload::kBank;
  if (verdict.money_audited) {
    store::NodeId reader = 0;
    while (reader < config.system.num_nodes && injector.NodeCrashed(reader)) {
      reader++;
    }
    bool read_done = false;
    int64_t total = 0;
    std::function<void()> submit_read = [&] {
      TxnRequest req;
      for (store::Key k = 1; k <= config.keys; ++k) {
        req.reads.push_back({kBank, k});
      }
      req.execute = [&total](ExecRound& er) {
        int64_t sum = 0;
        for (const auto& r : *er.reads) {
          sum += GetI64(r.value, 0);
        }
        total = sum;
      };
      system->Submit(reader, std::move(req), [&](TxnOutcome o) {
        if (o == TxnOutcome::kCommitted) {
          read_done = true;
        } else {
          submit_read();
        }
      });
    };
    submit_read();
    for (int i = 0; i < 400 && !read_done; ++i) {
      engine.RunFor(5 * sim::kNsPerUs);
    }
    verdict.expected_total = static_cast<int64_t>(config.keys) * config.initial_balance;
    verdict.actual_total = read_done ? total : -1;
    if (!read_done) {
      verdict.failures.push_back("final audit read did not commit (system wedged)");
    } else if (verdict.actual_total != verdict.expected_total) {
      std::ostringstream os;
      os << "money not conserved: expected " << verdict.expected_total << " got "
         << verdict.actual_total;
      verdict.failures.push_back(os.str());
    }
  }

  // Let post-commit release/apply messages of the audit read settle before
  // inspecting NIC and log state.
  engine.RunFor(20 * sim::kNsPerUs);

  if (txn::XenicCluster* cluster = system->xenic_cluster()) {
    for (store::NodeId n = 0; n < cluster->size(); ++n) {
      if (cluster->node(n).crashed()) {
        continue;
      }
      auto& ds = cluster->datastore(n);
      size_t locks = 0;
      uint64_t pins = 0;
      for (store::TableId t = 0; t < ds.num_tables(); ++t) {
        locks += ds.index(t).LockedKeys().size();
        pins += ds.index(t).pinned_objects();
      }
      if (locks > 0) {
        std::ostringstream os;
        os << "leaked locks: node " << n << " holds " << locks << " at quiesce";
        verdict.failures.push_back(os.str());
      }
      if (pins > 0) {
        std::ostringstream os;
        os << "leaked pins: node " << n << " has " << pins << " pinned objects at quiesce";
        verdict.failures.push_back(os.str());
      }
      if (ds.log().unreclaimed() > 0) {
        std::ostringstream os;
        os << "commit log not drained: node " << n << " has " << ds.log().unreclaimed()
           << " unreclaimed records";
        verdict.failures.push_back(os.str());
      }
      const txn::XenicNode::ParkedSlots slots = cluster->node(n).parked_slots();
      if (slots.requests + slots.appends + slots.fan_ins + slots.reports > 0) {
        std::ostringstream os;
        os << "leaked request slots: node " << n << " holds " << slots.requests
           << " requests, " << slots.appends << " appends, " << slots.fan_ins
           << " DMA fan-ins, " << slots.reports << " outcome reports at quiesce";
        verdict.failures.push_back(os.str());
      }
    }
  }

  verdict.check = recorder.Check();
  verdict.faults = injector.stats();
  verdict.typed_drop_armed = injector.typed_drop_armed();
  verdict.handoffs_armed = config.faults.planned_handoffs > 0;
  verdict.faults.typed_drops = injector.typed_drops();
  system->ForEachWireChannel([&](sim::Channel& ch) {
    verdict.frames_dropped += ch.frames_dropped();
    verdict.frames_duplicated += ch.frames_duplicated();
    verdict.frames_delayed += ch.frames_delayed();
  });
  verdict.events_executed = engine.events_executed();

#ifndef NDEBUG
  // Per-type message conservation (the --msg-breakdown law), promoted from
  // a test-only check to an always-on debug assertion. transport.cc bumps
  // the total and the per-type counter in the same call, so divergence
  // means a lost or double-counted send.
  const txn::TxnStats end_stats = system->TotalStats();
  assert(end_stats.by_type.TotalMsgs() == end_stats.messages);
#endif

  if (metrics_armed) {
    for (const FaultEvent& f : injector.plan().events) {
      reg.MarkFault(f.at, FaultKindName(f.kind), f.node);
    }
    // Degraded-service live series: the availability accounting re-expressed
    // per window (summed across faults), exported next to the raw series.
    const AvailabilityReport avail =
        ComputeAvailability(bins, injector.plan().events, config.horizon);
    reg.SetSeries("repl_degraded_us", {}, avail.degraded_us_per_window);
    if (config.metrics) {
      verdict.metrics_text = reg.Lines("metrics ");
    }
    if (!config.slo.empty()) {
      const auto inputs =
          obs::SloInputsFromSeries(series, m_committed, m_aborted, m_latency);
      verdict.slo_text = obs::EvaluateSlo(config.slo, inputs).Lines("slo ");
    }
  }

  if (config.timeline) {
    verdict.timeline = std::move(bins);
    verdict.timeline_faults = injector.plan().events;
    verdict.timeline_horizon = config.horizon;
  }
  return verdict;
}

std::string ChaosVerdict::Summary() const {
  std::ostringstream os;
  os << "chaos system=" << system_name << " seed=" << seed << " epoch=" << epoch << "\n";
  os << "txns: committed=" << committed << " aborted=" << aborted
     << " unfinished=" << unfinished << "\n";
  os << "faults: crashes=" << faults.crashes << " skipped=" << faults.crashes_skipped
     << " storms=" << faults.storms << " evictions=" << faults.storm_evictions
     << " stalls=" << faults.stalls << "\n";
  os << "recovery: sweep_committed=" << faults.sweep_committed
     << " sweep_aborted=" << faults.sweep_aborted
     << " rolled_forward=" << faults.rolled_forward << " discarded=" << faults.discarded
     << " locks_released=" << faults.locks_released << "\n";
  os << "wire: dropped=" << frames_dropped << " duplicated=" << frames_duplicated
     << " delayed=" << frames_delayed << "\n";
  if (typed_drop_armed) {
    os << "typed_drop: drops=" << faults.typed_drops << "\n";
  }
  if (handoffs_armed) {
    os << "handoffs: performed=" << faults.handoffs << " skipped=" << faults.handoffs_skipped
       << " stragglers_aborted=" << faults.handoff_stragglers << "\n";
  }
  os << "checker: txns=" << check.txns << " edges=" << check.edges
     << " version_gaps=" << check.version_gaps << " violations=" << check.violations.size()
     << "\n";
  if (money_audited) {
    os << "money: expected=" << expected_total << " actual=" << actual_total << "\n";
  }
  for (const auto& v : check.violations) {
    os << "  ! " << v << "\n";
  }
  for (const auto& f : failures) {
    os << "  ! " << f << "\n";
  }
  os << "events_executed=" << events_executed << "\n";
  os << "verdict=" << (ok() ? "PASS" : "FAIL") << "\n";
  return os.str();
}

std::string ChaosVerdict::Timeline() const {
  std::ostringstream os;
  for (const auto& f : timeline_faults) {
    os << "timeline fault at_us=" << f.at / sim::kNsPerUs << " kind=" << FaultKindName(f.kind)
       << " node=" << f.node;
    if (f.duration > 0) {
      os << " duration_us=" << f.duration / sim::kNsPerUs;
    }
    os << "\n";
  }
  for (const auto& b : timeline) {
    const uint64_t n = b.committed + b.aborted;
    os << "timeline win_us=" << b.start / sim::kNsPerUs << " committed=" << b.committed
       << " aborted=" << b.aborted;
    if (n > 0) {
      // Integer ns keep the line free of float-formatting concerns.
      os << " mean_lat_ns=" << b.lat_sum_ns / n << " max_lat_ns=" << b.lat_max_ns;
    }
    os << "\n";
  }
  if (!timeline.empty() && !timeline_faults.empty()) {
    const AvailabilityReport avail =
        ComputeAvailability(timeline, timeline_faults, timeline_horizon);
    for (const auto& a : avail.per_fault) {
      os << "timeline avail fault_at_us=" << a.fault.at / sim::kNsPerUs
         << " kind=" << FaultKindName(a.fault.kind) << " node=" << a.fault.node
         << " dip_depth_pct=" << a.dip_depth_pct << " dip_width_us=" << a.dip_width_us
         << " degraded_us=" << a.degraded_us << "\n";
    }
    char secs[32];
    std::snprintf(secs, sizeof(secs), "%llu.%06llu",
                  static_cast<unsigned long long>(avail.degraded_service_us / 1000000),
                  static_cast<unsigned long long>(avail.degraded_service_us % 1000000));
    os << "timeline avail degraded_service_seconds=" << secs << "\n";
  }
  return os.str();
}

AvailabilityReport ComputeAvailability(const std::vector<ChaosVerdict::TimelineBin>& all_bins,
                                       const std::vector<FaultEvent>& faults,
                                       sim::Tick horizon) {
  AvailabilityReport report;
  // Only bins fully inside the submission window carry signal: the drain
  // tail decays to zero because submission stopped, not because of a fault.
  // The bins are a WindowSeries tiling (uniform width, partial tail), so
  // reconstructing the series and keeping CountWithin(horizon) leading
  // windows is the same prefix filter this loop used to spell out.
  const obs::WindowSeries tiling(
      all_bins.empty() ? 0 : all_bins.front().width,
      all_bins.empty() ? 0 : all_bins.back().start + all_bins.back().width);
  const size_t n_in_horizon = std::min(all_bins.size(), tiling.CountWithin(horizon));
  const std::vector<ChaosVerdict::TimelineBin> bins(all_bins.begin(),
                                                    all_bins.begin() + n_in_horizon);
  report.degraded_us_per_window.assign(bins.size(), 0);
  if (bins.empty() || faults.empty()) {
    return report;
  }
  // Baseline commit throughput: mean committed-per-bin over the healthy
  // prefix (bins entirely before the first fault). Kept as the exact ratio
  // num/den; if the first fault lands in bin 0 there is no healthy prefix
  // and the whole run serves as the (pessimistic) baseline.
  sim::Tick first_fault = faults.front().at;
  for (const auto& f : faults) {
    first_fault = std::min(first_fault, f.at);
  }
  uint64_t num = 0;
  uint64_t den = 0;
  for (const auto& b : bins) {
    if (b.start + b.width <= first_fault) {
      num += b.committed;
      den++;
    }
  }
  if (den == 0 || num == 0) {
    num = 0;
    den = 0;
    for (const auto& b : bins) {
      num += b.committed;
      den++;
    }
  }
  report.baseline_num = num;
  report.baseline_den = den;
  if (num == 0) {
    return report;  // nothing ever committed; "availability" is undefined
  }

  std::vector<uint64_t> weighted_ns_per_window(bins.size(), 0);
  for (const auto& f : faults) {
    AvailStat stat;
    stat.fault = f;
    // The dip window opens at the bin containing the fault (or the first
    // later bin that degrades -- a fault at a bin boundary dips in the next
    // one) and closes at the first bin whose commit count recovers to
    // >= 90% of baseline (committed >= 0.9 * num/den, cross-multiplied so
    // the comparison stays integer). Each degraded bin accrues
    // deficit-weighted service time: a bin at half the baseline throughput
    // contributes half its width.
    uint64_t deficit_weighted_ns = 0;  // sum of width_ns * deficit, / num later
    for (size_t i = 0; i < bins.size(); ++i) {
      const ChaosVerdict::TimelineBin& b = bins[i];
      if (b.start + b.width <= f.at) {
        continue;  // entirely before the fault
      }
      const bool recovered = b.committed * den * 10 >= num * 9;
      if (recovered) {
        if (b.start > f.at) {
          break;  // first healthy bin after the fault ends the dip
        }
        continue;  // fault bin itself healthy; the dip may start next bin
      }
      const uint64_t deficit = num - b.committed * den;  // >0: not recovered
      const uint32_t pct = static_cast<uint32_t>(deficit * 100 / num);
      stat.dip_depth_pct = std::max(stat.dip_depth_pct, pct);
      deficit_weighted_ns += b.width * deficit;
      weighted_ns_per_window[i] += b.width * deficit;
      stat.dip_width_us += b.width / sim::kNsPerUs;
    }
    stat.degraded_us = deficit_weighted_ns / num / sim::kNsPerUs;
    report.degraded_service_us += stat.degraded_us;
    report.per_fault.push_back(stat);
  }
  for (size_t i = 0; i < bins.size(); ++i) {
    report.degraded_us_per_window[i] = weighted_ns_per_window[i] / num / sim::kNsPerUs;
  }
  return report;
}

}  // namespace xenic::chaos
