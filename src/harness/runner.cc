#include "src/harness/runner.h"

#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace xenic::harness {

namespace {

// Feeds every span and instant to both of a run's sinks, the Chrome trace
// and the per-transaction critical-path collector, so the two observers
// share the engine's single trace slot. Each sink keeps its own track ids.
class TeeSink : public sim::TraceSink {
 public:
  TeeSink(sim::TraceSink* a, sim::TraceSink* b) : a_(a), b_(b) {}

  uint32_t RegisterTrack(const std::string& process, const std::string& track) override {
    tracks_.push_back({a_->RegisterTrack(process, track), b_->RegisterTrack(process, track)});
    return static_cast<uint32_t>(tracks_.size() - 1);
  }
  void Span(uint32_t track, const char* name, sim::Tick start, sim::Tick end,
            uint64_t id) override {
    a_->Span(tracks_[track].first, name, start, end, id);
    b_->Span(tracks_[track].second, name, start, end, id);
  }
  void Instant(uint32_t track, const char* name, sim::Tick at, uint64_t id) override {
    a_->Instant(tracks_[track].first, name, at, id);
    b_->Instant(tracks_[track].second, name, at, id);
  }

 private:
  sim::TraceSink* a_;
  sim::TraceSink* b_;
  std::vector<std::pair<uint32_t, uint32_t>> tracks_;
};

struct Shared {
  SystemAdapter* system = nullptr;
  workload::Workload* workload = nullptr;
  const RunConfig* config = nullptr;
  Rng rng;
  bool measuring = false;
  bool stopped = false;
  uint64_t counted_commits = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  Histogram latency;
  // RunConfig::txn_trace, attached alone or through the tee.
  obs::TxnTraceSink* txn_sink = nullptr;
  std::vector<obs::BucketBreakdown> txn_paths;
  // Windowed metric feeds (non-null only with RunConfig::metrics). Push
  // sites mirror the scalar counters above exactly, so the series always
  // integrates back to the RunResult totals.
  obs::WindowCounter* m_committed = nullptr;
  obs::WindowCounter* m_aborted = nullptr;
  obs::WindowHistogram* m_latency = nullptr;
};

// One closed-loop application context.
void RunContext(std::shared_ptr<Shared> sh, store::NodeId node) {
  if (sh->stopped) {
    return;
  }
  auto req = sh->workload->NextTxn(node, sh->rng);
  const uint8_t tag = req.tag;
  const sim::Tick start = sh->system->engine().now();

  // Retry closure that recurses by passing a copy of itself along; a
  // shared_ptr<function> capturing itself would be a reference cycle that
  // leaks once per transaction.
  auto attempt = [sh, node, tag, start](auto&& self, txn::TxnRequest r,
                                        uint32_t tries) -> void {
    txn::TxnRequest copy = r;
    // The system assigns the attempt's txn id only when Submit returns,
    // but the commit callback must be constructed first -- so the id
    // travels through a box filled in below. The callback can never fire
    // before Submit returns (all completion paths go through engine
    // events), so the box is always populated by the time it is read.
    auto id_box = std::make_shared<uint64_t>(0);
    const sim::Tick attempt_start = sh->system->engine().now();
    const uint64_t id = sh->system->Submit(
        node, std::move(copy),
        [sh, node, tag, start, attempt_start, id_box, self, r = std::move(r),
         tries](txn::TxnResult res) mutable {
          if (sh->stopped) {
            return;
          }
          sim::Engine& eng = sh->system->engine();
          if (res.outcome == txn::TxnOutcome::kAborted &&
              tries < sh->config->retry.max_retries) {
            if (tries == 0 && sh->measuring) {
              sh->aborts++;
              if (sh->m_aborted != nullptr) {
                sh->m_aborted->Add(eng.now());
              }
            }
            if (sh->txn_sink != nullptr && *id_box != 0) {
              // Aborted attempt: its spans are not replayed into the
              // retry's tree; the lost time shows up as the redo bucket.
              sh->txn_sink->Discard(*id_box);
            }
            // Backoff per the configured policy, scaled by the contention
            // hint the coordinator returned with the abort.
            const sim::Tick backoff =
                txn::RetryBackoff(sh->config->retry, tries, res.contention, sh->rng);
            // Detached: this completion runs under the aborted attempt's
            // trace context (the system sets it for the commit/abort
            // path), and that id was just Discard()ed above -- a plain
            // ScheduleAfter would re-attach the dead id to the wakeup and
            // surface as late/orphan spans in TxnTraceSink.
            eng.ScheduleDetachedAfter(
                backoff, [sh, self = std::move(self), r = std::move(r),
                          tries]() mutable {
                  if (!sh->stopped) {
                    self(self, std::move(r), tries + 1);
                  }
                });
            return;
          }
          bool counted = false;
          if (res.outcome == txn::TxnOutcome::kCommitted && sh->measuring) {
            sh->commits++;
            if (sh->m_committed != nullptr) {
              sh->m_committed->Add(eng.now());
            }
            if (sh->workload->CountsForThroughput(tag)) {
              counted = true;
              sh->counted_commits++;
              sh->latency.Record(eng.now() - start);
              if (sh->m_latency != nullptr) {
                sh->m_latency->Record(eng.now(), eng.now() - start);
              }
            }
          }
          if (sh->txn_sink != nullptr && *id_box != 0) {
            if (counted) {
              obs::TxnTree tree;
              sh->txn_sink->Extract(*id_box, &tree);
              sh->txn_paths.push_back(obs::ExtractCriticalPath(
                  tree, attempt_start, eng.now(), attempt_start - start));
            } else {
              sh->txn_sink->Discard(*id_box);
            }
          }
          RunContext(sh, node);
        });
    *id_box = id;
  };
  attempt(attempt, std::move(req), 0);
}

}  // namespace

RunResult RunWorkload(SystemAdapter& system, workload::Workload& workload,
                      const RunConfig& config) {
  auto sh = std::make_shared<Shared>();
  sh->system = &system;
  sh->workload = &workload;
  sh->config = &config;
  sh->rng.Seed(config.seed);

  const uint64_t events_before = system.engine().events_executed();
  const auto wall_start = std::chrono::steady_clock::now();

  // Observability attachments. Both are pure bookkeeping: the monitor only
  // hangs histograms off resources, the trace sink only records spans.
  // Simulation results are byte-identical with or without them
  // (tools/check_determinism.sh enforces this).
  obs::ResourceMonitor monitor;
  if (config.collect_resources) {
    system.ForEachResource([&monitor](const obs::ResourceRef& ref) { monitor.Track(ref); });
  }
  std::optional<TeeSink> tee;
  sim::TraceSink* sink = config.trace != nullptr ? config.trace : config.txn_trace;
  if (config.trace != nullptr && config.txn_trace != nullptr) {
    sink = &tee.emplace(config.trace, config.txn_trace);
  }
  if (sink != nullptr) {
    system.engine().set_trace(sink);
  }
  sh->txn_sink = config.txn_trace;

  // Windowed metric sources. Registration order is the export order, so it
  // is fixed here once: push counters, the TxnStats breakdown, the
  // conservation gauge, DMA, then per-resource sources in ForEachResource
  // order (deterministic per adapter).
  obs::MetricRegistry* reg = config.metrics;
  if (reg != nullptr) {
    sh->m_committed = reg->AddCounter("txn_committed");
    sh->m_aborted = reg->AddCounter("txn_aborted");
    sh->m_latency = reg->AddHistogram("txn_latency_ns");
    // One TxnStats snapshot per window close, shared by all derived sources
    // (TotalStats walks every node; pay it once per window, not per metric).
    auto snap = std::make_shared<txn::TxnStats>();
    SystemAdapter* sys = &system;
    reg->AddSampleHook([snap, sys] { *snap = sys->TotalStats(); });
    reg->AddCumulative("txn_messages", {}, [snap] { return snap->messages; });
    reg->AddCumulative("txn_remote_rounds", {}, [snap] { return snap->remote_rounds; });
    reg->AddCumulative("txn_local_fastpath", {}, [snap] { return snap->local_fastpath; });
    reg->AddCumulative("txn_app_aborted", {}, [snap] { return snap->app_aborted; });
    reg->AddCumulative("abort_lock_execute", {},
                       [snap] { return snap->abort_lock_execute; });
    reg->AddCumulative("abort_lock_local", {}, [snap] { return snap->abort_lock_local; });
    reg->AddCumulative("abort_lock_ship", {}, [snap] { return snap->abort_lock_ship; });
    reg->AddCumulative("abort_validate", {}, [snap] { return snap->abort_validate; });
    reg->AddCumulative("abort_gap", {}, [snap] { return snap->abort_gap; });
    reg->AddCumulative("abort_wounded", {}, [snap] { return snap->abort_wounded; });
    reg->AddCumulative("abort_epoch_fence", {},
                       [snap] { return snap->abort_epoch_fence; });
    reg->AddCumulative("abort_other", {}, [snap] { return snap->abort_other; });
    reg->AddCumulative("cc_waits", {}, [snap] { return snap->cc_waits; });
    reg->AddCumulative("hot_path", {}, [snap] { return snap->hot_path; });
    reg->AddCumulative("nic_log_applied", {}, [snap] { return snap->nic_log_applied; });
    reg->AddCumulative("replica_reads", {}, [snap] { return snap->replica_reads; });
    // The --msg-breakdown conservation law as a live metric: per-type
    // message counts must sum to the transport total at every boundary
    // (sampling happens between events, where the law always holds).
    reg->AddGauge("net_conservation_violations", {}, [snap] {
      const uint64_t per_type = snap->by_type.TotalMsgs();
      const uint64_t total = snap->messages;
      return per_type >= total ? per_type - total : total - per_type;
    });
    reg->AddCumulative("dma_ops", {}, [sys] { return sys->DmaOps(); });
    reg->AddCumulative("dma_bytes", {}, [sys] { return sys->DmaBytes(); });
    system.ForEachResource([reg](const obs::ResourceRef& ref) {
      const obs::MetricLabels labels = {{"res", ref.name},
                                        {"node", std::to_string(ref.node)}};
      if (ref.pool != nullptr) {
        sim::Resource* pool = ref.pool;
        reg->AddGauge("resource_queue_depth", labels,
                      [pool] { return static_cast<uint64_t>(pool->queue_depth()); });
        reg->AddCumulative("resource_busy_ns", labels,
                           [pool] { return static_cast<uint64_t>(pool->busy_time()); });
        reg->AddCumulative("resource_completed", labels,
                           [pool] { return pool->completed(); });
      } else if (ref.link != nullptr) {
        sim::Channel* link = ref.link;
        reg->AddCumulative("link_busy_ns", labels,
                           [link] { return static_cast<uint64_t>(link->busy_time()); });
        reg->AddCumulative("link_bytes_sent", labels,
                           [link] { return link->bytes_sent(); });
      }
    });
  }

  system.StartWorkers();
  for (uint32_t n = 0; n < system.num_nodes(); ++n) {
    for (uint32_t c = 0; c < config.contexts_per_node; ++c) {
      RunContext(sh, n);
    }
  }

  // Warmup.
  system.engine().RunFor(config.warmup);
  // Measure.
  sh->measuring = true;
  system.ResetStats();
  monitor.ResetWindow();
  const sim::Tick t0 = system.engine().now();
  if (reg != nullptr && config.metrics_window > 0) {
    // Slice the measurement window at metric boundaries. RunUntil never
    // schedules and the series tiles [0, measure] exactly, so this executes
    // the identical event sequence as the single RunFor below and lands the
    // clock on the same tick -- every result scalar is byte-identical.
    reg->BeginWindows(obs::WindowSeries(config.metrics_window, config.measure), t0);
    for (size_t w = 0; w < reg->series().size(); ++w) {
      system.engine().RunUntil(t0 + reg->series().StartOf(w) + reg->series().WidthOf(w));
      reg->CloseWindow(w);
    }
  } else {
    system.engine().RunFor(config.measure);
  }
  const sim::Tick window = system.engine().now() - t0;
  sh->measuring = false;

  RunResult result;
  result.sim_events = system.engine().events_executed() - events_before;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  result.sim_events_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.sim_events) / result.wall_seconds : 0;
  result.txn_stats = system.TotalStats();
  // Per-type message conservation (the --msg-breakdown law), promoted from
  // a test-only check to an always-on debug assertion: transport bumps the
  // total and the per-type counter together, so divergence means a lost or
  // double-counted send.
  assert(result.txn_stats.by_type.TotalMsgs() == result.txn_stats.messages);
  result.committed = sh->commits;
  result.aborted = sh->aborts;
  result.abort_rate = sh->commits + sh->aborts == 0
                          ? 0.0
                          : static_cast<double>(sh->aborts) /
                                static_cast<double>(sh->commits + sh->aborts);
  result.tput_per_server = static_cast<double>(sh->counted_commits) /
                           (static_cast<double>(window) / 1e9) / system.num_nodes();
  result.latency = sh->latency;
  result.wire_utilization = system.WireUtilization(window);
  result.dma_ops = system.DmaOps();
  result.dma_bytes = system.DmaBytes();
  result.host_utilization = system.HostUtilization(window);
  result.nic_utilization = system.NicUtilization(window);
  result.measure_window = window;
  if (config.collect_resources) {
    result.resources = monitor.Snapshot(window);
  }

  // Tear down: let in-flight work drain without restarting contexts.
  sh->stopped = true;
  system.StopWorkers();
  system.engine().RunFor(200 * sim::kNsPerUs);
  if (sink != nullptr) {
    system.engine().set_trace(nullptr);
  }
  result.txn_paths = std::move(sh->txn_paths);
  return result;
}

}  // namespace xenic::harness
