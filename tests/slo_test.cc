// SLO parsing and error-budget accounting semantics. These tests pin the
// contract documented in src/obs/slo.h: strict window-level thresholds
// (exactly-at-threshold violates), vacuously compliant zero-traffic
// windows, and integer burn-rate / budget-exhaustion arithmetic.

#include "src/obs/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/histogram.h"

namespace xenic::obs {
namespace {

constexpr sim::Tick kUs = sim::kNsPerUs;

SloSpec MustParse(const std::string& text) {
  SloSpec spec;
  std::string err;
  EXPECT_TRUE(ParseSloSpec(text, &spec, &err)) << err;
  return spec;
}

// A goodput-only window: `committed` commits and `aborted` aborts.
SloWindowInput GoodputWindow(sim::Tick start, uint64_t committed, uint64_t aborted) {
  SloWindowInput w;
  w.start = start;
  w.width = 50 * kUs;
  w.committed = committed;
  w.aborted = aborted;
  return w;
}

// --- Parsing -------------------------------------------------------------

TEST(SloParseTest, ValidSpec) {
  const SloSpec spec = MustParse("p99<50us,goodput>0.95");
  ASSERT_EQ(spec.objectives.size(), 2u);
  const SloObjective& lat = spec.objectives[0];
  EXPECT_EQ(lat.kind, SloKind::kLatencyQuantile);
  EXPECT_DOUBLE_EQ(lat.quantile, 0.99);
  EXPECT_EQ(lat.threshold_ns, 50000u);
  EXPECT_EQ(lat.budget_ppm, 10000u);  // 1% of events may exceed the bound
  const SloObjective& gp = spec.objectives[1];
  EXPECT_EQ(gp.kind, SloKind::kGoodput);
  EXPECT_EQ(gp.min_goodput_ppm, 950000u);
  EXPECT_EQ(gp.budget_ppm, 50000u);
}

TEST(SloParseTest, QuantileDigitsScaleExactly) {
  EXPECT_EQ(MustParse("p999<1ms").objectives[0].threshold_ns, 1000000u);
  EXPECT_EQ(MustParse("p999<1ms").objectives[0].budget_ppm, 1000u);
  EXPECT_EQ(MustParse("p50<200ns").objectives[0].budget_ppm, 500000u);
}

TEST(SloParseTest, RejectsMalformedClauses) {
  SloSpec spec;
  std::string err;
  EXPECT_FALSE(ParseSloSpec("", &spec, &err));
  EXPECT_FALSE(ParseSloSpec(",,,", &spec, &err));
  EXPECT_FALSE(ParseSloSpec("p99<50parsecs", &spec, &err));
  EXPECT_NE(err.find("unit"), std::string::npos) << err;
  EXPECT_FALSE(ParseSloSpec("p0<1us", &spec, &err));     // quantile 0
  EXPECT_FALSE(ParseSloSpec("latency<5us", &spec, &err));
  EXPECT_FALSE(ParseSloSpec("goodput>1", &spec, &err));  // must be < 1
  EXPECT_FALSE(ParseSloSpec("goodput>1.5", &spec, &err));
  EXPECT_FALSE(ParseSloSpec("goodput>0", &spec, &err));
  // One bad clause poisons the whole spec (fail closed, not drop-clause).
  EXPECT_FALSE(ParseSloSpec("p99<50us,bogus", &spec, &err));
}

// --- Zero traffic --------------------------------------------------------

TEST(SloEvalTest, ZeroTrafficWindowsAreVacuouslyCompliant) {
  const SloSpec spec = MustParse("goodput>0.95");
  std::vector<SloWindowInput> windows = {
      GoodputWindow(0, 0, 0),
      GoodputWindow(50 * kUs, 0, 0),
  };
  const SloReport report = EvaluateSlo(spec, windows);
  ASSERT_EQ(report.objectives.size(), 1u);
  const SloObjectiveResult& r = report.objectives[0];
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(r.windows_with_traffic, 0u);
  EXPECT_EQ(r.windows_violating, 0u);
  EXPECT_EQ(r.first_violation_us, -1);
  EXPECT_EQ(r.budget_exhausted_us, -1);
  EXPECT_EQ(r.max_window_burn_x1000, 0u);
  EXPECT_EQ(r.run_burn_x1000, 0u);
}

TEST(SloEvalTest, LatencyObjectiveIgnoresWindowsWithNoHistogram) {
  const SloSpec spec = MustParse("p99<50us");
  // Committed traffic but a null latency histogram (e.g. a window whose
  // completions were all aborts): no quantile to test, no burn.
  std::vector<SloWindowInput> windows = {GoodputWindow(0, 10, 0)};
  const SloReport report = EvaluateSlo(spec, windows);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.objectives[0].windows_with_traffic, 0u);
  EXPECT_EQ(report.objectives[0].total_events, 0u);
}

// --- Strict thresholds ---------------------------------------------------

TEST(SloEvalTest, GoodputExactlyAtThresholdViolates) {
  const SloSpec spec = MustParse("goodput>0.95");
  // 95 / 100 committed: goodput == 0.95 exactly, which violates "> 0.95".
  std::vector<SloWindowInput> at = {GoodputWindow(0, 95, 5)};
  EXPECT_FALSE(EvaluateSlo(spec, at).ok());
  // One more commit: 96 / 101 > 0.95, compliant.
  std::vector<SloWindowInput> above = {GoodputWindow(0, 96, 5)};
  EXPECT_TRUE(EvaluateSlo(spec, above).ok());
}

TEST(SloEvalTest, LatencyExactlyAtThresholdViolates) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(40000);  // 40us
  }
  // Bucketed histogram: read back the p99 the evaluator will see and pin
  // the threshold to it exactly.
  const uint64_t p99 = h.ValueAtQuantile(0.99);
  ASSERT_GT(p99, 0u);
  SloWindowInput w;
  w.width = 50 * kUs;
  w.latency = &h;
  const SloSpec at = MustParse("p99<" + std::to_string(p99) + "ns");
  EXPECT_FALSE(EvaluateSlo(at, {w}).ok());  // p99 >= threshold: violated
  const SloSpec above = MustParse("p99<" + std::to_string(p99 + 1) + "ns");
  EXPECT_TRUE(EvaluateSlo(above, {w}).ok());
}

TEST(SloEvalTest, FirstViolationReportsWindowStart) {
  const SloSpec spec = MustParse("goodput>0.9");
  std::vector<SloWindowInput> windows = {
      GoodputWindow(0, 100, 0),          // compliant
      GoodputWindow(50 * kUs, 0, 0),     // no traffic
      GoodputWindow(100 * kUs, 50, 50),  // violating
      GoodputWindow(150 * kUs, 10, 90),  // violating again
  };
  const SloReport report = EvaluateSlo(spec, windows);
  const SloObjectiveResult& r = report.objectives[0];
  EXPECT_EQ(r.windows_violating, 2u);
  EXPECT_EQ(r.first_violation_us, 100);
}

// --- Burn rates and budget exhaustion ------------------------------------

TEST(SloEvalTest, BurnRateArithmetic) {
  // goodput>0.9: budget_ppm = 100000 (10% of events may be bad).
  const SloSpec spec = MustParse("goodput>0.9");
  std::vector<SloWindowInput> windows = {
      GoodputWindow(0, 80, 20),         // 20% bad: burning 2x budget
      GoodputWindow(50 * kUs, 100, 0),  // clean
  };
  const SloReport report = EvaluateSlo(spec, windows);
  const SloObjectiveResult& r = report.objectives[0];
  EXPECT_EQ(r.total_events, 200u);
  EXPECT_EQ(r.bad_events, 20u);
  // Window burn x1000: 20/100 over a 0.1 budget = 2.0x -> 2000.
  EXPECT_EQ(r.max_window_burn_x1000, 2000u);
  // Run burn: 20/200 over 0.1 = 1.0x -> 1000; exactly the full budget.
  EXPECT_EQ(r.run_burn_x1000, 1000u);
  EXPECT_EQ(r.budget_consumed_ppm, 1000000u);
}

TEST(SloEvalTest, BudgetExhaustionMidRun) {
  // goodput>0.9 over 300 events total: run budget = 30 bad events.
  const SloSpec spec = MustParse("goodput>0.9");
  std::vector<SloWindowInput> windows = {
      GoodputWindow(0, 80, 20),           // cum bad 20: within budget
      GoodputWindow(50 * kUs, 89, 11),    // cum bad 31 > 30: exhausted here
      GoodputWindow(100 * kUs, 100, 0),
  };
  const SloReport report = EvaluateSlo(spec, windows);
  const SloObjectiveResult& r = report.objectives[0];
  EXPECT_EQ(r.budget_exhausted_us, 50);
  EXPECT_GT(r.budget_consumed_ppm, 1000000u);
}

TEST(SloEvalTest, ExactlyAtBudgetIsNotExhausted) {
  // 200 events, budget 20: exactly 20 bad events consume the whole budget
  // without crossing it.
  const SloSpec spec = MustParse("goodput>0.9");
  std::vector<SloWindowInput> windows = {
      GoodputWindow(0, 80, 20),
      GoodputWindow(50 * kUs, 100, 0),
  };
  const SloReport report = EvaluateSlo(spec, windows);
  const SloObjectiveResult& r = report.objectives[0];
  EXPECT_EQ(r.budget_exhausted_us, -1);
  EXPECT_EQ(r.budget_consumed_ppm, 1000000u);
}

// --- Series plumbing and report rendering --------------------------------

TEST(SloEvalTest, InputsFromSeriesMapWindows) {
  MetricRegistry reg;
  WindowCounter* committed = reg.AddCounter("c");
  WindowCounter* aborted = reg.AddCounter("a");
  WindowHistogram* lat = reg.AddHistogram("l");
  reg.BeginWindows(WindowSeries(50 * kUs, 130 * kUs), 0);
  committed->Add(10 * kUs);
  committed->Add(60 * kUs);
  aborted->Add(60 * kUs);
  lat->Record(10 * kUs, 1234);
  const auto inputs = SloInputsFromSeries(reg.series(), committed, aborted, lat);
  ASSERT_EQ(inputs.size(), 3u);
  EXPECT_EQ(inputs[0].committed, 1u);
  EXPECT_EQ(inputs[1].committed, 1u);
  EXPECT_EQ(inputs[1].aborted, 1u);
  EXPECT_NE(inputs[0].latency, nullptr);
  EXPECT_EQ(inputs[1].latency, nullptr);
  EXPECT_EQ(inputs[2].width, 30 * kUs);  // partial final window
}

TEST(SloReportTest, LinesAreIntegerOnlyAndPrefixed) {
  const SloSpec spec = MustParse("goodput>0.9");
  std::vector<SloWindowInput> windows = {GoodputWindow(0, 50, 50)};
  const SloReport report = EvaluateSlo(spec, windows);
  const std::string text = report.Lines("slo ");
  EXPECT_NE(text.find("slo objective=goodput>0.9 violated=1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("slo verdict=VIOLATED"), std::string::npos) << text;
  // Every line carries the strippable prefix.
  size_t pos = 0;
  while (pos < text.size()) {
    EXPECT_EQ(text.compare(pos, 4, "slo "), 0) << text.substr(pos, 40);
    pos = text.find('\n', pos);
    ASSERT_NE(pos, std::string::npos);
    ++pos;
  }
}

}  // namespace
}  // namespace xenic::obs
