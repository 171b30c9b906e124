#include "src/harness/observers.h"

#include <cstdio>

#include "src/common/output_file.h"
#include "src/common/table_printer.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/slo.h"

namespace xenic::harness {
namespace {

// Abort-reason table (--abort-breakdown) from the protocol-level counters.
// Every coordinator tallies each abort under its reason
// (txn::TxnStats::Count), so "unattributed" shows only counters that
// disagree.
void PrintAbortBreakdown(const std::string& title, const RunResult& r) {
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
void PrintMsgBreakdown(const std::string& title, const RunResult& r) {
  const net::MsgCounters& bt = r.txn_stats.by_type;
  if (bt.TotalMsgs() == 0) {
    std::printf("%s: no messages in measurement window\n\n", title.c_str());
    return;
  }
  const double txns = r.committed > 0 ? static_cast<double>(r.committed) : 1.0;
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
  std::printf("%s\n", tp.Render(title).c_str());
}

}  // namespace

void RunReport::Write(const std::string& slug) const {
  std::string json = "{\"schema\":1,\"bench\":\"" + bench + "\",\"systems\":[";
  for (size_t i = 0; i < systems.size(); ++i) {
    json += (i > 0 ? "," : "") + systems[i];
  }
  WriteOutputFile(slug + ".report.json", json + "]}");
  if (!om.empty()) {
    WriteOutputFile(slug + ".metrics.om", om);
  }
}

Observers::Observers(const RunSpec& spec, bool trace)
    : spec_(spec), trace_(trace && !spec.trace_path.empty()) {}

bool Observers::NeedsRun() const {
  return spec_.attrib || spec_.txn_attrib || metrics() || trace_;
}

void Observers::AttachTo(RunConfig* rc) {
  rc->collect_resources = spec_.attrib;
  rc->trace = trace_ ? &trace_rec_ : nullptr;
  rc->txn_trace = spec_.txn_attrib ? &txn_sink_ : nullptr;
  rc->metrics = metrics() ? &registry_ : nullptr;
  rc->metrics_window = spec_.metrics_window_us * sim::kNsPerUs;
}

void Observers::Print(const std::string& label, uint32_t contexts, const RunResult& r,
                      RunReport* report, const std::vector<LatencyPoint>& points) {
  const std::string at = " @ contexts=" + std::to_string(contexts);
  if (trace_) {
    if (trace_rec_.WriteJson(spec_.trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks; %s%s)\n", spec_.trace_path.c_str(),
                   trace_rec_.num_events(), trace_rec_.num_tracks(), label.c_str(), at.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", spec_.trace_path.c_str());
      report->trace_failed = true;
    }
  }
  std::string entry = "{\"system\":\"" + label + "\",\"contexts\":" + std::to_string(contexts);
  if (spec_.abort_breakdown) {
    PrintAbortBreakdown(label + " abort breakdown" + at, r);
  }
  if (spec_.msg_breakdown) {
    PrintMsgBreakdown(label + " message breakdown" + at, r);
  }
  if (spec_.latency_hist) {
    const std::vector<LatencyPoint> own = {{contexts, &r.latency}};
    for (const LatencyPoint& p : points.empty() ? own : points) {
      std::printf("latency-hist [%s] contexts=%u n=%llu:", label.c_str(), p.contexts,
                  static_cast<unsigned long long>(p.latency->count()));
      p.latency->VisitBuckets([](uint64_t midpoint, uint64_t count) {
        std::printf(" %llu:%llu", static_cast<unsigned long long>(midpoint),
                    static_cast<unsigned long long>(count));
      });
      std::printf("\n");
    }
    std::printf("\n");
  }
  if (spec_.attrib) {
    const obs::BottleneckReport attribution = obs::Attribute(r.resources);
    std::printf("%s\n",
                obs::RenderAttribution(attribution, label + " bottleneck attribution" + at).c_str());
    entry += ",\"attribution\":" + obs::AttributionJson(attribution);
  }
  if (spec_.txn_attrib) {
    const obs::TailAttribution tail = obs::AggregateTailAttribution(r.txn_paths);
    std::printf("%s", obs::RenderTxnWaterfall(tail, label + " critical-path waterfall" + at).c_str());
    std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n\n",
                static_cast<unsigned long long>(txn_sink_.zero_id_spans()),
                static_cast<unsigned long long>(txn_sink_.orphan_instants()),
                static_cast<unsigned long long>(txn_sink_.late_spans()));
    entry += ",\"txn_attrib\":" + obs::TxnAttribJson(tail);
  }
  if (metrics()) {
    std::printf("%s", registry_.Lines("metrics [" + label + "] ").c_str());
    std::string slo_json;
    if (!spec_.slo.empty()) {
      const obs::SloReport slo = obs::EvaluateSlo(
          spec_.slo,
          obs::SloInputsFromSeries(registry_.series(), registry_.FindCounter("txn_committed"),
                                   registry_.FindCounter("txn_aborted"),
                                   registry_.FindHistogram("txn_latency_ns")));
      std::printf("%s", slo.Lines("slo [" + label + "] ").c_str());
      slo_json = slo.Json();
    }
    entry += ",\"metrics\":" + registry_.Json(report->bench, slo_json);
    if (report->om.empty()) {
      report->om = registry_.OpenMetrics("xenic", {{"system", label}});
    }
  }
  report->systems.push_back(entry + "}");
}

}  // namespace xenic::harness
