// Metric-reporting helpers shared by the figure benches: the
// no-commits-latency sentinel fix, peak-point selection, and the
// observability flag parsing.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table_printer.h"

namespace xenic::bench {
namespace {

Curve MakeCurve(std::initializer_list<std::pair<double, uint64_t>> pts) {
  // Each pair: (tput_per_server, median_latency_ns or 0 for "no commits").
  Curve c;
  c.system = "test";
  uint32_t contexts = 1;
  for (const auto& [tput, lat_ns] : pts) {
    CurvePoint p;
    p.contexts = contexts++;
    p.result.tput_per_server = tput;
    if (lat_ns > 0) {
      p.result.latency.Record(lat_ns);
    }
    c.points.push_back(std::move(p));
  }
  return c;
}

TEST(CurveTest, MinMedianLatencyUsIsNanWhenNoCommits) {
  // The bug this pins: an all-abort curve used to report its 1e18-style
  // init sentinel as a "latency", poisoning comparison summaries.
  const Curve empty;
  EXPECT_TRUE(std::isnan(empty.MinMedianLatencyUs()));

  const Curve no_commits = MakeCurve({{0.0, 0}, {0.0, 0}});
  EXPECT_TRUE(std::isnan(no_commits.MinMedianLatencyUs()));
}

TEST(CurveTest, MinMedianLatencyUsSkipsEmptyPoints) {
  // Points without latency samples are skipped, not treated as 0.
  const Curve c = MakeCurve({{10.0, 0}, {20.0, 5000}, {30.0, 3000}});
  EXPECT_NEAR(c.MinMedianLatencyUs(), 3.0, 0.2);
}

TEST(CurveTest, PeakIndexPicksHighestThroughput) {
  const Curve empty;
  EXPECT_EQ(empty.PeakIndex(), -1);

  const Curve c = MakeCurve({{10.0, 1000}, {50.0, 2000}, {30.0, 3000}});
  EXPECT_EQ(c.PeakIndex(), 1);
  EXPECT_DOUBLE_EQ(c.PeakTput(), 50.0);
}

TEST(TablePrinterNanTest, NanRendersAsNoData) {
  // TablePrinter treats NaN as "no data" so the latency sentinel fix
  // renders "--" instead of a garbage number.
  EXPECT_EQ(TablePrinter::Fmt(std::numeric_limits<double>::quiet_NaN(), 1), "--");
  EXPECT_EQ(TablePrinter::Fmt(std::numeric_limits<double>::quiet_NaN(), 0), "--");
  EXPECT_EQ(TablePrinter::Fmt(1.25, 1), "1.2");
}

TEST(BenchOptionsTest, ParseFlags) {
  {
    const char* argv[] = {"bench"};
    const BenchOptions o = BenchOptions::Parse(1, const_cast<char**>(argv));
    EXPECT_FALSE(o.attrib);
    EXPECT_TRUE(o.trace_path.empty());
  }
  {
    const char* argv[] = {"bench", "--attrib", "--trace", "out.json"};
    const BenchOptions o = BenchOptions::Parse(4, const_cast<char**>(argv));
    EXPECT_TRUE(o.attrib);
    EXPECT_EQ(o.trace_path, "out.json");
  }
  {
    const char* argv[] = {"bench", "--trace=x.trace.json"};
    const BenchOptions o = BenchOptions::Parse(2, const_cast<char**>(argv));
    EXPECT_FALSE(o.attrib);
    EXPECT_EQ(o.trace_path, "x.trace.json");
  }
  {
    // --trace with no value is ignored rather than reading past argv.
    const char* argv[] = {"bench", "--trace"};
    const BenchOptions o = BenchOptions::Parse(2, const_cast<char**>(argv));
    EXPECT_TRUE(o.trace_path.empty());
  }
}

TEST(BenchOptionsTest, RejectsUnknownFlags) {
  {
    // A removed flag is an error, not a silent no-op.
    const char* argv[] = {"bench", "--engine-jobs", "2"};
    EXPECT_EXIT(BenchOptions::Parse(3, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "unknown flag '--engine-jobs'");
  }
  {
    // A typo must not run the defaults.
    const char* argv[] = {"bench", "--retry-polcy", "cwnd"};
    EXPECT_EXIT(BenchOptions::Parse(3, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "unknown flag '--retry-polcy'");
  }
}

TEST(BenchOptionsTest, AcceptsEveryFlagInHelp) {
  // Help lines name a flag in column 2, then an optional upper-case value
  // placeholder ("--seed N").
  testing::internal::CaptureStdout();
  BenchOptions::PrintHelp("bench");
  std::istringstream help(testing::internal::GetCapturedStdout());
  std::vector<std::pair<std::string, bool>> flags;  // (flag, takes a value)
  for (std::string line; std::getline(help, line);) {
    if (line.rfind("  --", 0) != 0) {
      continue;
    }
    std::istringstream words(line);
    std::string flag;
    std::string next;
    words >> flag >> next;
    const bool takes_value =
        !next.empty() && std::all_of(next.begin(), next.end(),
                                     [](unsigned char c) { return std::isupper(c) != 0; });
    flags.emplace_back(flag, takes_value);
  }
  ASSERT_GE(flags.size(), 15u);

  const std::map<std::string, std::string> values = {{"--retry-policy", "cwnd"},
                                                     {"--cc", "nowait"},
                                                     {"--slo", "p99<50us"},
                                                     {"--trace", "t.json"}};
  auto value_of = [&](const std::string& flag) {
    auto it = values.find(flag);
    return it != values.end() ? it->second : std::string("3");
  };
  // Both spellings of every value flag: `--flag V` and `--flag=V`.
  for (bool joined : {false, true}) {
    std::vector<std::string> args = {"bench"};
    for (const auto& [flag, takes_value] : flags) {
      if (!takes_value) {
        args.push_back(flag);
      } else if (joined) {
        args.push_back(flag + "=" + value_of(flag));
      } else {
        args.push_back(flag);
        args.push_back(value_of(flag));
      }
    }
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    const BenchOptions o = BenchOptions::Parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(o.attrib);
    EXPECT_TRUE(o.adaptive_dma);
    EXPECT_EQ(o.seed, 3u);
    EXPECT_EQ(o.retry_policy, txn::RetryPolicyKind::kContentionWindow);
    EXPECT_EQ(o.cc, txn::CcPolicyKind::kNoWait);
    EXPECT_EQ(o.trace_path, "t.json");
  }
}

}  // namespace
}  // namespace xenic::bench
