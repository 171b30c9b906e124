// One run's observers: what a RunSpec's observer flags ask for, attached to
// one run, printed after it in one fixed order, and returned as that run's
// entry in the front-end's <slug>.report.json (DESIGN.md §17).
//
// Every front-end that takes observers (xenicsim, xenic_sweep_check
// --point-check, and the benches through bench::FinishBench) runs them the
// same way: one Observers per observed system, every requested observer on
// every system, and the --trace file for the first system only.

#ifndef SRC_HARNESS_OBSERVERS_H_
#define SRC_HARNESS_OBSERVERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/harness/run_spec.h"
#include "src/harness/runner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"

namespace xenic::harness {

// One front-end's report: {"schema":1,"bench":...,"systems":[...]}, one
// entry per observed system in print order.
struct RunReport {
  explicit RunReport(std::string name) : bench(std::move(name)) {}

  std::string bench;
  std::vector<std::string> systems;
  std::string om;  // the first metrics-observed system, as OpenMetrics text
  bool trace_failed = false;

  // Writes <slug>.report.json, and <slug>.metrics.om when metrics ran.
  void Write(const std::string& slug) const;
};

class Observers {
 public:
  // A point of the latency-histogram section.
  struct LatencyPoint {
    uint32_t contexts;
    const Histogram* latency;
  };

  // `trace`: this run records spec.trace_path. `spec` outlives this object.
  Observers(const RunSpec& spec, bool trace);

  // Whether an observer needs a run of its own: the resource attribution,
  // the critical-path waterfall, metrics (--slo evaluates them), or the
  // trace. The breakdowns and the latency histogram read any run's result.
  bool NeedsRun() const;

  // Points `rc`'s observer fields at this run's sinks.
  void AttachTo(RunConfig* rc);

  // After the run: writes the trace, prints each requested section for
  // `label`'s run `r` at `contexts` -- the abort and message breakdowns,
  // the latency histogram (of `points`, or of `r` alone when empty), the
  // bottleneck attribution, the critical-path waterfall with its audit
  // line, then the "metrics [<label>] " lines (--slo, evaluated over the
  // same windows, prints them too) and the "slo [<label>] " lines -- and
  // adds the run's entry to `report`: {"system","contexts"} plus an
  // "attribution", "txn_attrib" or "metrics" member for each that ran.
  void Print(const std::string& label, uint32_t contexts, const RunResult& r, RunReport* report,
             const std::vector<LatencyPoint>& points = {});

 private:
  bool metrics() const { return spec_.metrics || !spec_.slo.empty(); }

  const RunSpec& spec_;
  bool trace_;
  obs::TraceRecorder trace_rec_;
  obs::TxnTraceSink txn_sink_;
  obs::MetricRegistry registry_;
};

}  // namespace xenic::harness

#endif  // SRC_HARNESS_OBSERVERS_H_
