// harness::Observers, the one observer pass of every front-end: what it
// attaches to a run, the fixed order of its printed sections, and the
// run's entry in <slug>.report.json -- one per observed system, with a
// member for each observer that ran.

#include "src/harness/observers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/workload/smallbank.h"

namespace xenic::harness {
namespace {

size_t Count(const std::string& text, const std::string& what) {
  size_t n = 0;
  for (size_t pos = text.find(what); pos != std::string::npos; pos = text.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

// Reads and deletes one of the files a report wrote.
std::string TakeFile(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

// Runs Xenic and DrTM+H on a small Smallbank cluster with one Observers
// each, as the front-ends do, and returns what they printed; the report
// goes to `slug`.report.json.
std::string ObserveTwoSystems(const RunSpec& spec, const std::string& slug) {
  RunReport report("observers_test");
  testing::internal::CaptureStdout();
  for (const char* name : {"xenic", "drtmh"}) {
    RunSpec s = spec;
    s.system = name;
    s.nodes = 3;
    s.replicas = 2;
    workload::Smallbank::Options wo;
    wo.num_nodes = 3;
    wo.accounts_per_node = 2000;
    workload::Smallbank wl(wo);
    auto system = BuildSystem(s.System(), wl);
    LoadWorkload(*system, wl);
    Observers observers(spec, /*trace=*/false);
    RunConfig rc;
    rc.contexts_per_node = 8;
    rc.warmup = 50 * sim::kNsPerUs;
    rc.measure = 200 * sim::kNsPerUs;
    observers.AttachTo(&rc);
    const RunResult r = RunWorkload(*system, wl, rc);
    observers.Print(system->Name(), rc.contexts_per_node, r, &report);
  }
  const std::string out = testing::internal::GetCapturedStdout();
  report.Write(slug);
  return out;
}

TEST(ObserversTest, ReportHasOneEntryPerSystemWithAMemberPerObserver) {
  const std::string slug = testing::TempDir() + "observers_attrib";
  RunSpec spec;
  spec.attrib = true;
  spec.txn_attrib = true;
  ObserveTwoSystems(spec, slug);
  const std::string json = TakeFile(slug + ".report.json");
  EXPECT_EQ(json.rfind("{\"schema\":1,\"bench\":\"observers_test\",\"systems\":[", 0), 0u)
      << json;
  EXPECT_EQ(Count(json, "{\"system\":"), 2u);
  EXPECT_NE(json.find("{\"system\":\"Xenic\",\"contexts\":8,"), std::string::npos);
  EXPECT_NE(json.find("{\"system\":\"DrTM+H\",\"contexts\":8,"), std::string::npos);
  EXPECT_EQ(Count(json, "\"attribution\":"), 2u);
  EXPECT_EQ(Count(json, "\"txn_attrib\":"), 2u);
  EXPECT_EQ(Count(json, "\"metrics\":"), 0u);

  const std::string metrics_slug = testing::TempDir() + "observers_metrics";
  RunSpec metrics;
  metrics.metrics = true;
  ObserveTwoSystems(metrics, metrics_slug);
  const std::string mjson = TakeFile(metrics_slug + ".report.json");
  EXPECT_EQ(Count(mjson, "{\"system\":"), 2u);
  EXPECT_EQ(Count(mjson, "\"metrics\":{\"bench\":\"observers_test\""), 2u);
  EXPECT_EQ(Count(mjson, "\"attribution\":"), 0u);
  EXPECT_EQ(Count(mjson, "\"txn_attrib\":"), 0u);
  // The OpenMetrics twin is the first system's, labelled with its name.
  const std::string om = TakeFile(metrics_slug + ".metrics.om");
  EXPECT_NE(om.find("system=\"Xenic\""), std::string::npos);
  EXPECT_EQ(om.find("system=\"DrTM+H\""), std::string::npos);
}

TEST(ObserversTest, SectionsPrintInOneOrderForEverySystem) {
  RunSpec spec;
  spec.abort_breakdown = spec.msg_breakdown = spec.latency_hist = true;
  spec.attrib = spec.txn_attrib = spec.metrics = true;
  std::string err;
  ASSERT_TRUE(obs::ParseSloSpec("p99<500us", &spec.slo, &err)) << err;
  const std::string slug = testing::TempDir() + "observers_order";
  const std::string out = ObserveTwoSystems(spec, slug);
  TakeFile(slug + ".report.json");
  TakeFile(slug + ".metrics.om");
  for (const char* label : {"Xenic", "DrTM+H"}) {
    const std::string l = label;
    const std::vector<std::string> order = {
        l + " abort breakdown @ contexts=8",       l + " message breakdown @ contexts=8",
        "latency-hist [" + l + "] contexts=8",    l + " bottleneck attribution @ contexts=8",
        l + " critical-path waterfall @ contexts=8", "txn-trace audit:",
        "metrics [" + l + "] ",                   "slo [" + l + "] "};
    size_t pos = out.find(order[0]);
    for (const std::string& section : order) {
      const size_t at = out.find(section, pos);
      ASSERT_NE(at, std::string::npos) << section << " after offset " << pos << "\n" << out;
      pos = at;
    }
  }
  // The DrTM+H sections all follow the last Xenic one.
  EXPECT_LT(out.find("slo [Xenic] "), out.find("DrTM+H abort breakdown"));
}

TEST(ObserversTest, AttachesOnlyWhatTheSpecAsks) {
  RunSpec spec;
  spec.abort_breakdown = spec.msg_breakdown = spec.latency_hist = true;
  spec.trace_path = "unused.trace.json";
  RunConfig rc;
  // The breakdowns read any run's result; the trace goes to the first
  // system only.
  Observers later(spec, /*trace=*/false);
  EXPECT_FALSE(later.NeedsRun());
  later.AttachTo(&rc);
  EXPECT_EQ(rc.trace, nullptr);
  EXPECT_EQ(rc.txn_trace, nullptr);
  EXPECT_EQ(rc.metrics, nullptr);
  EXPECT_FALSE(rc.collect_resources);
  Observers first(spec, /*trace=*/true);
  EXPECT_TRUE(first.NeedsRun());
  first.AttachTo(&rc);
  EXPECT_NE(rc.trace, nullptr);

  // --slo alone samples the metric windows it is evaluated over.
  RunSpec slo;
  std::string err;
  ASSERT_TRUE(obs::ParseSloSpec("goodput>0.5", &slo.slo, &err)) << err;
  slo.metrics_window_us = 20;
  Observers slo_only(slo, /*trace=*/false);
  EXPECT_TRUE(slo_only.NeedsRun());
  slo_only.AttachTo(&rc);
  EXPECT_NE(rc.metrics, nullptr);
  EXPECT_EQ(rc.metrics_window, 20 * sim::kNsPerUs);
  EXPECT_EQ(rc.trace, nullptr);
}

}  // namespace
}  // namespace xenic::harness
