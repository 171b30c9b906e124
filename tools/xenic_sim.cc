// xenic_sim: command-line driver for the simulated cluster.
//
//   xenicsim --system=xenic --workload=smallbank --nodes=6 --contexts=64
//            --measure-us=1000 [--replicas=3] [--seed=1] [--csv]
//            [--attrib] [--trace=out.trace.json]
//
// Systems:   xenic | drtmh | drtmh-nc | fasst | drtmr
// Workloads: smallbank | retwis | tpcc | tpcc-no | ycsb
//
// Prints a one-run summary (throughput per server, latency percentiles,
// abort rate, resource utilization); --csv emits a machine-readable line.
// The observer flags (--attrib, --txn-attrib, --trace and the rest) attach
// to the run through harness::Observers, print their sections after the
// summary, and write xenicsim.report.json.
//
// Flags go through harness::FlagSet, as in every front-end: `--flag V` and
// `--flag=V` both work, and --help lists them. An unknown flag, a value that
// does not parse completely, a zero --contexts or --measure-us, a spec that
// harness::Validate rejects, and an unknown --workload exit 2.

#include <cstdio>
#include <string>

#include "src/common/table_printer.h"
#include "src/harness/observers.h"
#include "src/harness/run_spec.h"

int main(int argc, char** argv) {
  using namespace xenic;

  harness::RunSpec spec;
  spec.workload = "smallbank";
  uint32_t contexts = 32;
  uint64_t measure_us = 1000;
  uint64_t scale = 0;  // per-node keys/accounts/warehouses; 0 = default
  bool csv = false;
  harness::FlagSet flags(
      &spec,
      harness::kFlagSystem | harness::kFlagNodes | harness::kFlagReplicas |
          harness::kFlagQuorum | harness::kFlagHotKeyPath | harness::kFlagAdaptiveDma |
          harness::kFlagNicLogApply | harness::kFlagReplicaReads | harness::kFlagWorkload |
          harness::kFlagSeed | harness::kRetryFlags | harness::kObserverFlags,
      "workloads: smallbank | retwis | tpcc | tpcc-no | ycsb (default smallbank)\n");
  flags.Add("--contexts", "C", "closed-loop contexts per node (default 32)",
            harness::FlagSet::Uint(&contexts, 1));
  flags.Add("--measure-us", "T", "measurement window in microseconds (default 1000)",
            harness::FlagSet::Uint(&measure_us, 1));
  flags.Add("--scale", "K", "per-node accounts, keys or warehouses (0 = the default)",
            harness::FlagSet::Uint(&scale));
  flags.Add("--csv", nullptr, "print one CSV line instead of the table",
            harness::FlagSet::On(&csv));
  flags.Parse(argc, argv);
  auto wl = harness::MakeWorkload(spec.workload, spec.nodes, scale);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (smallbank|retwis|tpcc|tpcc-no|ycsb)\n",
                 spec.workload.c_str());
    return 2;
  }
  const harness::SystemConfig cfg = spec.System();
  auto system = harness::BuildSystem(cfg, *wl);
  std::fprintf(stderr, "loading %s...\n", wl->Name().c_str());
  harness::LoadWorkload(*system, *wl);

  harness::RunConfig rc;
  rc.contexts_per_node = contexts;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = measure_us * sim::kNsPerUs;
  spec.ApplyTo(&rc);
  harness::Observers observers(spec, /*trace=*/true);
  observers.AttachTo(&rc);
  std::fprintf(stderr, "running %s on %s (%u nodes, %u contexts/node)...\n", wl->Name().c_str(),
               system->Name().c_str(), spec.nodes, contexts);
  harness::RunResult r = harness::RunWorkload(*system, *wl, rc);

  if (csv) {
    std::printf("system,workload,nodes,contexts,tput_per_server,median_us,p99_us,abort_rate,"
                "wire_util,host_util,nic_util\n");
    std::printf("%s,%s,%u,%u,%.0f,%.2f,%.2f,%.4f,%.3f,%.3f,%.3f\n", system->Name().c_str(),
                wl->Name().c_str(), spec.nodes, contexts, r.tput_per_server, r.MedianLatencyUs(),
                r.P99LatencyUs(), r.abort_rate, r.wire_utilization, r.host_utilization,
                r.nic_utilization);
  } else {
    TablePrinter tp({"Metric", "Value"});
    tp.AddRow({"System", system->Name()});
    tp.AddRow({"Workload", wl->Name()});
    tp.AddRow({"Throughput/server", TablePrinter::FmtOps(r.tput_per_server) + " txn/s"});
    tp.AddRow({"Median latency", TablePrinter::Fmt(r.MedianLatencyUs(), 1) + " us"});
    tp.AddRow({"P99 latency", TablePrinter::Fmt(r.P99LatencyUs(), 1) + " us"});
    tp.AddRow({"Abort rate", TablePrinter::Fmt(r.abort_rate * 100, 2) + " %"});
    tp.AddRow({"Wire utilization", TablePrinter::Fmt(r.wire_utilization * 100, 1) + " %"});
    tp.AddRow({"Host utilization", TablePrinter::Fmt(r.host_utilization * 100, 1) + " %"});
    tp.AddRow({"NIC utilization", TablePrinter::Fmt(r.nic_utilization * 100, 1) + " %"});
    std::printf("%s", tp.Render("xenic_sim").c_str());
  }
  if (!spec.Observed()) {
    return 0;
  }
  std::printf("\n");
  harness::RunReport report{"xenic_sim." + spec.system + "." + spec.workload};
  observers.Print(system->Name(), contexts, r, &report);
  report.Write("xenicsim");
  return report.trace_failed ? 1 : 0;
}
