// The one flag parser (harness::FlagSet), the shared run spec it fills
// (harness::RunSpec), the cross-feature validator, and the workload
// factory; plus the benches' flag table (bench::kBenchFlags).

#include "src/harness/run_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace xenic::harness {
namespace {

constexpr uint64_t kAllShared = (kFlagTrace << 1) - 1;

// Parses `args` (argv[0] is added) through a FlagSet over `spec`.
void ParseInto(RunSpec* spec, uint64_t shared, std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  FlagSet(spec, shared).Parse(static_cast<int>(argv.size()), argv.data());
}

RunSpec Parsed(uint64_t shared, std::vector<std::string> args) {
  RunSpec spec;
  ParseInto(&spec, shared, std::move(args));
  return spec;
}

// The (flag, takes a value) pairs of a --help table: a flag in column 2,
// then an optional upper-case value placeholder ("--seed N").
std::vector<std::pair<std::string, bool>> HelpFlags(const FlagSet& flags) {
  testing::internal::CaptureStdout();
  flags.PrintHelp("tool");
  std::istringstream help(testing::internal::GetCapturedStdout());
  std::vector<std::pair<std::string, bool>> out;
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
    out.emplace_back(flag, takes_value);
  }
  return out;
}

// Keeps the ambient XENIC_JOBS out of the tests that pin --jobs defaults.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* old = std::getenv("XENIC_JOBS"); old != nullptr) {
      old_ = old;
      had_ = true;
    }
    if (value != nullptr) {
      setenv("XENIC_JOBS", value, 1);
    } else {
      unsetenv("XENIC_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (had_) {
      setenv("XENIC_JOBS", old_.c_str(), 1);
    } else {
      unsetenv("XENIC_JOBS");
    }
  }

 private:
  std::string old_;
  bool had_ = false;
};

TEST(RunSpecTest, EverySharedFlagTakesBothSpellings) {
  struct Case {
    const char* flag;
    const char* value;  // nullptr: a switch
    std::function<bool(const RunSpec&)> applied;
  };
  const std::vector<Case> cases = {
      {"--system", "drtmh-nc", [](const RunSpec& s) { return s.system == "drtmh-nc"; }},
      {"--nodes", "4", [](const RunSpec& s) { return s.nodes == 4; }},
      {"--replicas", "2", [](const RunSpec& s) { return s.replicas == 2; }},
      {"--quorum", "2", [](const RunSpec& s) { return s.quorum == 2; }},
      {"--cc", "woundwait", [](const RunSpec& s) { return s.cc == txn::CcPolicyKind::kWoundWait; }},
      {"--hot-key-path", nullptr, [](const RunSpec& s) { return s.hot_key_path; }},
      {"--adaptive-dma", nullptr, [](const RunSpec& s) { return s.adaptive_dma; }},
      {"--nic-log-apply", nullptr, [](const RunSpec& s) { return s.nic_log_apply; }},
      {"--replica-reads", nullptr,
       [](const RunSpec& s) { return s.replica_reads && s.nic_log_apply; }},
      {"--workload", "ycsb", [](const RunSpec& s) { return s.workload == "ycsb"; }},
      {"--seed", "0", [](const RunSpec& s) { return s.seed == 0u; }},
      {"--retry-policy", "expjitter",
       [](const RunSpec& s) { return s.retry_policy == txn::RetryPolicyKind::kExpJitter; }},
      {"--backoff-base", "2", [](const RunSpec& s) { return s.backoff_base_us == 2u; }},
      {"--retry-cap", "6", [](const RunSpec& s) { return s.retry_cap_us == 6u; }},
      {"--detect-us", "0", [](const RunSpec& s) { return s.detect_us == 0u; }},
      {"--jobs", "5", [](const RunSpec& s) { return s.jobs == 5; }},
      {"--attrib", nullptr, [](const RunSpec& s) { return s.attrib; }},
      {"--txn-attrib", nullptr, [](const RunSpec& s) { return s.txn_attrib; }},
      {"--abort-breakdown", nullptr, [](const RunSpec& s) { return s.abort_breakdown; }},
      {"--msg-breakdown", nullptr, [](const RunSpec& s) { return s.msg_breakdown; }},
      {"--latency-hist", nullptr, [](const RunSpec& s) { return s.latency_hist; }},
      {"--metrics", nullptr, [](const RunSpec& s) { return s.metrics; }},
      {"--metrics-window-us", "25", [](const RunSpec& s) { return s.metrics_window_us == 25; }},
      {"--slo", "p99<50us,goodput>0.9",
       [](const RunSpec& s) { return s.slo.objectives.size() == 2; }},
      {"--trace", "t.json", [](const RunSpec& s) { return s.trace_path == "t.json"; }},
  };
  // The cases cover the whole shared table.
  RunSpec unused;
  const auto help = HelpFlags(FlagSet(&unused, kAllShared));
  ASSERT_EQ(help.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.flag);
    EXPECT_EQ(help[i].first, c.flag);
    EXPECT_EQ(help[i].second, c.value != nullptr);
    EXPECT_FALSE(c.applied(RunSpec{}));
    if (c.value == nullptr) {
      EXPECT_TRUE(c.applied(Parsed(kAllShared, {c.flag})));
      continue;
    }
    EXPECT_TRUE(c.applied(Parsed(kAllShared, {c.flag, c.value})));
    EXPECT_TRUE(c.applied(Parsed(kAllShared, {std::string(c.flag) + "=" + c.value})));
  }
}

TEST(RunSpecTest, ParserExitsTwoNamingTheFlag) {
  // An unknown flag, including a shared one the tool does not honour.
  EXPECT_EXIT(Parsed(kFlagSeed, {"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag '--bogus'");
  EXPECT_EXIT(Parsed(kFlagSeed, {"--cc", "occ"}), ::testing::ExitedWithCode(2),
              "unknown flag '--cc'");
  EXPECT_EXIT(Parsed(kFlagSeed, {"positional"}), ::testing::ExitedWithCode(2),
              "unknown flag 'positional'");
  // A switch given a value.
  EXPECT_EXIT(Parsed(kFlagAttrib, {"--attrib=1"}), ::testing::ExitedWithCode(2), "--attrib");
  // A value flag at the end of argv.
  EXPECT_EXIT(Parsed(kFlagSeed, {"--seed"}), ::testing::ExitedWithCode(2), "--seed");
  // Values the setters reject.
  EXPECT_EXIT(Parsed(kFlagSeed, {"--seed", "abc"}), ::testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(Parsed(kFlagQuorum, {"--quorum=2x"}), ::testing::ExitedWithCode(2), "--quorum");
  EXPECT_EXIT(Parsed(kFlagSystem, {"--system", "drtmhnc"}), ::testing::ExitedWithCode(2),
              "--system");
  EXPECT_EXIT(Parsed(kFlagCc, {"--cc", "2pl"}), ::testing::ExitedWithCode(2), "--cc");
  EXPECT_EXIT(Parsed(kFlagRetryPolicy, {"--retry-policy", "cwdn"}),
              ::testing::ExitedWithCode(2), "--retry-policy");
  EXPECT_EXIT(Parsed(kFlagSlo, {"--slo", "garbage!!"}), ::testing::ExitedWithCode(2), "--slo");
  EXPECT_EXIT(Parsed(kFlagTrace, {"--trace="}), ::testing::ExitedWithCode(2), "--trace");
  // Zero is no backoff bound and no metric window.
  EXPECT_EXIT(Parsed(kRetryFlags, {"--backoff-base", "0"}), ::testing::ExitedWithCode(2),
              "--backoff-base");
  EXPECT_EXIT(Parsed(kRetryFlags, {"--retry-cap=0"}), ::testing::ExitedWithCode(2),
              "--retry-cap");
  EXPECT_EXIT(Parsed(kFlagMetricsWindowUs, {"--metrics-window-us", "0"}),
              ::testing::ExitedWithCode(2), "--metrics-window-us");
}

TEST(RunSpecTest, HelpPrintsTheTableAndExitsZero) {
  EXPECT_EXIT(Parsed(kFlagSeed, {"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(Parsed(kFlagSeed, {"-h"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(Parsed(kFlagSeed, {"--help=1"}), ::testing::ExitedWithCode(2), "--help");
}

TEST(RunSpecTest, OwnFlagsShareTheParser) {
  RunSpec spec;
  uint32_t contexts = 32;
  sim::Tick window = 0;
  double drop = 0;
  bool csv = false;
  std::string name;
  FlagSet flags(&spec, kFlagSeed);
  flags.Add("--contexts", "C", "contexts", FlagSet::Uint(&contexts, 1));
  flags.Add("--window-us", "US", "window", FlagSet::Micros(&window, 1));
  flags.Add("--drop", "P", "drop", FlagSet::Probability(&drop));
  flags.Add("--name", "NAME", "name", [&](const char*, const char* v) { name = v; });
  flags.Add("--csv", nullptr, "csv", FlagSet::On(&csv));
  const char* argv[] = {"tool",   "--contexts=8", "--window-us", "20",   "--drop=0.5",
                        "--name", "x",            "--csv",       "--seed", "4"};
  flags.Parse(10, const_cast<char**>(argv));
  EXPECT_EQ(contexts, 8u);
  EXPECT_EQ(window, 20 * sim::kNsPerUs);
  EXPECT_DOUBLE_EQ(drop, 0.5);
  EXPECT_EQ(name, "x");
  EXPECT_TRUE(csv);
  EXPECT_EQ(spec.seed, 4u);

  const char* zero[] = {"tool", "--contexts", "0"};
  EXPECT_EXIT(flags.Parse(3, const_cast<char**>(zero)), ::testing::ExitedWithCode(2),
              "--contexts");
  const char* prob[] = {"tool", "--drop", "1.5"};
  EXPECT_EXIT(flags.Parse(3, const_cast<char**>(prob)), ::testing::ExitedWithCode(2), "--drop");
}

TEST(RunSpecTest, XenicJobsIsTheJobsDefault) {
  {
    ScopedJobsEnv env(nullptr);
    EXPECT_EQ(Parsed(kFlagJobs, {}).jobs, 1u);
  }
  {
    ScopedJobsEnv env("5");
    EXPECT_EQ(Parsed(kFlagJobs, {}).jobs, 5u);
    EXPECT_EQ(Parsed(kFlagJobs, {"--jobs", "2"}).jobs, 2u);
    EXPECT_EQ(Parsed(kFlagJobs, {"--jobs=0"}).jobs, 0u);  // hardware threads
    // A tool without --jobs ignores the variable.
    EXPECT_EQ(Parsed(kFlagSeed, {}).jobs, 1u);
  }
  {
    ScopedJobsEnv env("abc");
    EXPECT_EXIT(Parsed(kFlagJobs, {}), ::testing::ExitedWithCode(2), "XENIC_JOBS");
  }
  ScopedJobsEnv env(nullptr);
  EXPECT_EXIT(Parsed(kFlagJobs, {"--jobs", "abc"}), ::testing::ExitedWithCode(2), "--jobs");
}

TEST(RunSpecTest, ValidateRules) {
  EXPECT_EQ(Validate(RunSpec{}), "");
  RunSpec s;
  s.nodes = 0;
  EXPECT_NE(Validate(s).find("--nodes"), std::string::npos);

  s = RunSpec{};
  s.replicas = 0;
  EXPECT_NE(Validate(s).find("--replicas"), std::string::npos);
  s.nodes = 2;
  s.replicas = 3;  // a primary would back itself up
  EXPECT_NE(Validate(s).find("--replicas"), std::string::npos);
  s.replicas = 2;
  EXPECT_EQ(Validate(s), "");

  s = RunSpec{};
  s.replica_reads = s.nic_log_apply = true;
  EXPECT_EQ(Validate(s), "");
  s.cc = txn::CcPolicyKind::kWaitDie;
  EXPECT_NE(Validate(s).find("--replica-reads needs --cc occ"), std::string::npos);

  s = RunSpec{};
  s.hot_key_path = true;
  EXPECT_EQ(Validate(s), "");
  s.cc = txn::CcPolicyKind::kNoWait;
  EXPECT_NE(Validate(s).find("--hot-key-path needs --cc occ"), std::string::npos);

  // Parse runs the validator after the last flag, whatever the order.
  EXPECT_EXIT(Parsed(kAllShared, {"--replicas", "5", "--nodes", "2"}),
              ::testing::ExitedWithCode(2), "--replicas");
  EXPECT_EXIT(Parsed(kAllShared, {"--cc", "waitdie", "--replica-reads"}),
              ::testing::ExitedWithCode(2), "--replica-reads");
}

TEST(RunSpecTest, ApplyToLeavesUnsetFieldsAlone) {
  RunConfig rc;
  rc.seed = 7;
  const RunConfig before = rc;
  RunSpec{}.ApplyTo(&rc);
  EXPECT_EQ(rc.seed, before.seed);
  EXPECT_EQ(rc.retry.kind, before.retry.kind);
  EXPECT_EQ(rc.retry.backoff_base, before.retry.backoff_base);
  EXPECT_EQ(rc.retry.backoff_cap, before.retry.backoff_cap);

  const RunSpec spec =
      Parsed(kAllShared, {"--seed", "9", "--retry-policy", "cwnd", "--backoff-base", "2",
                          "--retry-cap", "6", "--cc", "nowait", "--adaptive-dma"});
  spec.ApplyTo(&rc);
  EXPECT_EQ(rc.seed, 9u);
  EXPECT_EQ(rc.retry.kind, txn::RetryPolicyKind::kContentionWindow);
  EXPECT_EQ(rc.retry.backoff_base, 2 * sim::kNsPerUs);
  EXPECT_EQ(rc.retry.backoff_cap, 6 * sim::kNsPerUs);

  // Features land on Xenic systems only.
  std::vector<SystemConfig> cfgs = bench::Figure8Systems(3);
  spec.ApplyTo(&cfgs);
  EXPECT_EQ(cfgs[0].features.cc, txn::CcPolicyKind::kNoWait);
  EXPECT_TRUE(cfgs[0].nic_features.adaptive_dma_batching);
  EXPECT_EQ(cfgs[1].features.cc, txn::CcPolicyKind::kOcc);
  EXPECT_FALSE(cfgs[1].nic_features.adaptive_dma_batching);
}

TEST(RunSpecTest, SystemTableNamesEverySystem) {
  const std::map<std::string, std::string> names = {{"xenic", "Xenic"},
                                                    {"drtmh", "DrTM+H"},
                                                    {"drtmh-nc", "DrTM+H NC"},
                                                    {"fasst", "FaSST"},
                                                    {"drtmr", "DrTM+R"}};
  for (const auto& [flag, name] : names) {
    const RunSpec spec = Parsed(kAllShared, {"--system", flag, "--nodes", "3", "--replicas", "2",
                                             "--quorum", "1", "--nic-log-apply"});
    const SystemConfig cfg = spec.System();
    EXPECT_EQ(cfg.num_nodes, 3u);
    EXPECT_EQ(cfg.replication, 2u);
    EXPECT_EQ(cfg.quorum, 1u);
    EXPECT_EQ(cfg.features.nic_log_apply, flag == "xenic");
    auto wl = MakeWorkload("smallbank", cfg.num_nodes, 500);
    EXPECT_EQ(BuildSystem(cfg, *wl)->Name(), name) << flag;
  }
}

TEST(RunSpecTest, MakeWorkloadNames) {
  const std::map<std::string, std::string> names = {{"smallbank", "smallbank"},
                                                    {"retwis", "retwis"},
                                                    {"ycsb", "ycsb"},
                                                    {"tpcc", "tpcc"},
                                                    {"tpcc-no", "tpcc-neworder"}};
  for (const auto& [flag, name] : names) {
    auto wl = MakeWorkload(flag, 3, 2);
    ASSERT_NE(wl, nullptr) << flag;
    EXPECT_EQ(wl->Name(), name);
  }
  EXPECT_EQ(MakeWorkload("bank", 3, 0), nullptr);
  EXPECT_EQ(MakeWorkload("tpcc_no", 3, 0), nullptr);
}

}  // namespace
}  // namespace xenic::harness

// The benches' flag table, formerly the BenchOptions struct.
namespace xenic::bench {
namespace {

using harness::RunSpec;

RunSpec ParseBench(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptionsTest, ParseFlags) {
  harness::ScopedJobsEnv env(nullptr);
  {
    const RunSpec o = ParseBench({});
    EXPECT_FALSE(o.attrib);
    EXPECT_TRUE(o.trace_path.empty());
    EXPECT_EQ(o.jobs, 1u);
  }
  {
    const RunSpec o = ParseBench({"--attrib", "--trace", "out.json"});
    EXPECT_TRUE(o.attrib);
    EXPECT_EQ(o.trace_path, "out.json");
  }
  {
    const RunSpec o = ParseBench({"--trace=x.trace.json"});
    EXPECT_FALSE(o.attrib);
    EXPECT_EQ(o.trace_path, "x.trace.json");
  }
  // A value flag that ends argv is an error, not "no trace".
  EXPECT_EXIT(ParseBench({"--trace"}), ::testing::ExitedWithCode(2), "--trace");
  // --jobs, both spellings.
  EXPECT_EQ(ParseBench({"--jobs", "6"}).jobs, 6u);
  EXPECT_EQ(ParseBench({"--jobs=3"}).jobs, 3u);
}

TEST(BenchOptionsTest, RejectsUnknownFlags) {
  // A removed flag is an error, not a silent no-op.
  EXPECT_EXIT(ParseBench({"--engine-jobs", "2"}), ::testing::ExitedWithCode(2),
              "unknown flag '--engine-jobs'");
  // A typo must not run the defaults.
  EXPECT_EXIT(ParseBench({"--retry-polcy", "cwnd"}), ::testing::ExitedWithCode(2),
              "unknown flag '--retry-polcy'");
}

TEST(BenchOptionsTest, AcceptsEveryFlagInHelp) {
  RunSpec unused;
  const auto flags = harness::HelpFlags(harness::FlagSet(&unused, kBenchFlags));
  ASSERT_GE(flags.size(), 15u);

  // --cc occ: the validator rejects --hot-key-path under 2PL.
  const std::map<std::string, std::string> values = {{"--retry-policy", "cwnd"},
                                                     {"--cc", "occ"},
                                                     {"--slo", "p99<50us"},
                                                     {"--trace", "t.json"}};
  auto value_of = [&](const std::string& flag) {
    auto it = values.find(flag);
    return it != values.end() ? it->second : std::string("3");
  };
  // Both spellings of every value flag: `--flag V` and `--flag=V`.
  for (bool joined : {false, true}) {
    std::vector<std::string> args;
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
    const RunSpec o = ParseBench(args);
    EXPECT_TRUE(o.attrib);
    EXPECT_TRUE(o.adaptive_dma);
    EXPECT_TRUE(o.hot_key_path);
    EXPECT_EQ(o.seed, 3u);
    EXPECT_EQ(o.retry_policy, txn::RetryPolicyKind::kContentionWindow);
    EXPECT_EQ(o.cc, txn::CcPolicyKind::kOcc);
    EXPECT_EQ(o.trace_path, "t.json");
  }
}

}  // namespace
}  // namespace xenic::bench
