// One run spec for every front-end (xenicsim, xenic_sweep_check,
// chaos_runner and the benches): the flags two or more tools share, one
// parser for those and for each tool's own flags, and one validator for the
// rules that cross features.
//
// A front-end builds a FlagSet over its RunSpec, naming the shared flags it
// honours (SharedFlag bits), adds its own flags, and calls Parse. Parse
// accepts `--flag V` and `--flag=V`; --help or -h prints the flag table and
// exits 0. An unknown flag, a switch given `=value`, a value flag that ends
// argv, a value its setter rejects, or a spec that Validate rejects prints a
// message naming the flag and exits 2, before any run starts: a typo never
// runs (or, on a golden's command line, pins) a different configuration.

#ifndef SRC_HARNESS_RUN_SPEC_H_
#define SRC_HARNESS_RUN_SPEC_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flag_values.h"
#include "src/harness/runner.h"
#include "src/obs/slo.h"
#include "src/workload/workload.h"

namespace xenic::harness {

// The shared flags, one bit each; a front-end ORs together those it honours.
enum SharedFlag : uint64_t {
  // System.
  kFlagSystem = 1ull << 0,
  kFlagNodes = 1ull << 1,
  kFlagReplicas = 1ull << 2,
  kFlagQuorum = 1ull << 3,
  kFlagCc = 1ull << 4,
  kFlagHotKeyPath = 1ull << 5,
  kFlagAdaptiveDma = 1ull << 6,
  kFlagNicLogApply = 1ull << 7,
  kFlagReplicaReads = 1ull << 8,
  // Workload.
  kFlagWorkload = 1ull << 9,
  // Run.
  kFlagSeed = 1ull << 10,
  kFlagRetryPolicy = 1ull << 11,
  kFlagBackoffBase = 1ull << 12,
  kFlagRetryCap = 1ull << 13,
  kFlagDetectUs = 1ull << 14,
  kFlagJobs = 1ull << 15,
  // Observers.
  kFlagAttrib = 1ull << 16,
  kFlagTxnAttrib = 1ull << 17,
  kFlagAbortBreakdown = 1ull << 18,
  kFlagMsgBreakdown = 1ull << 19,
  kFlagLatencyHist = 1ull << 20,
  kFlagMetrics = 1ull << 21,
  kFlagMetricsWindowUs = 1ull << 22,
  kFlagSlo = 1ull << 23,
  kFlagTrace = 1ull << 24,
};
inline constexpr uint64_t kRetryFlags = kFlagRetryPolicy | kFlagBackoffBase | kFlagRetryCap;
// The Xenic-only feature toggles a sweep applies to every Xenic system.
inline constexpr uint64_t kXenicFeatureFlags = kFlagCc | kFlagHotKeyPath | kFlagAdaptiveDma;
inline constexpr uint64_t kObserverFlags =
    kFlagAttrib | kFlagTxnAttrib | kFlagAbortBreakdown | kFlagMsgBreakdown | kFlagLatencyHist |
    kFlagMetrics | kFlagMetricsWindowUs | kFlagSlo | kFlagTrace;

// What the shared flags set. Fields a front-end does not honour keep these
// defaults; unset optionals keep the front-end's own defaults.
struct RunSpec {
  // System.
  std::string system = "xenic";  // a name from the system table (--help)
  uint32_t nodes = 6;
  uint32_t replicas = 3;  // copies of each shard, primary included
  uint32_t quorum = 0;    // copies that must ack a commit; 0 = all
  txn::CcPolicyKind cc = txn::CcPolicyKind::kOcc;
  bool hot_key_path = false;
  bool adaptive_dma = false;
  bool nic_log_apply = false;
  bool replica_reads = false;  // --replica-reads also sets nic_log_apply
  // Workload: each front-end sets its default and checks the name.
  std::string workload;
  // Run.
  std::optional<uint64_t> seed;
  std::optional<txn::RetryPolicyKind> retry_policy;
  std::optional<uint64_t> backoff_base_us;
  std::optional<uint64_t> retry_cap_us;
  std::optional<uint64_t> detect_us;  // crash -> lease-expiry delay
  uint32_t jobs = 1;  // sweep workers (0 = hardware threads); XENIC_JOBS sets the default
  // Observers.
  bool attrib = false;
  bool txn_attrib = false;
  bool abort_breakdown = false;
  bool msg_breakdown = false;
  bool latency_hist = false;
  bool metrics = false;
  uint64_t metrics_window_us = 50;
  obs::SloSpec slo;  // empty: no objectives
  std::string trace_path;

  // --seed and the retry flags; what they leave unset keeps its value.
  void ApplyTo(RunConfig* rc) const;
  void ApplyTo(txn::RetryPolicyConfig* retry) const;
  // --cc, --hot-key-path, --adaptive-dma, --nic-log-apply and
  // --replica-reads, on Xenic systems only (baselines have none of them).
  void ApplyTo(SystemConfig* cfg) const;
  void ApplyTo(std::vector<SystemConfig>* cfgs) const;
  // The --system named system with --nodes, --replicas, --quorum and the
  // features above.
  SystemConfig System() const;
  // Whether any observer flag is set.
  bool Observed() const;
};

// The cross-feature rules, as a message naming the offending flag; empty
// when `spec` is valid. FlagSet::Parse runs it after the last flag.
std::string Validate(const RunSpec& spec);

// One table of flags: the shared ones a front-end names plus its own.
class FlagSet {
 public:
  // Applies a flag's value (nullptr for a switch). A setter rejects a value
  // by exiting 2 through RejectFlagValue/FlagUint (src/common/flag_values.h).
  using Setter = std::function<void(const char* flag, const char* value)>;

  // Binds the shared flags in `shared` to `spec`. `about` follows the usage
  // line in --help (the tool's own value lists). With kFlagJobs, a set
  // XENIC_JOBS environment variable becomes the --jobs default.
  FlagSet(RunSpec* spec, uint64_t shared, std::string about = "");

  // A flag; `placeholder` names its value in --help ("N", "PATH"), and a
  // null one makes a switch.
  void Add(const char* name, const char* placeholder, const char* help, Setter set);

  // Setters for a switch and for plain numbers (Micros stores microseconds
  // as ticks).
  static Setter On(bool* on);
  static Setter Uint(std::optional<uint64_t>* out, uint64_t min = 0);
  template <typename T>
  static Setter Uint(T* out, uint64_t min = 0) {
    return [out, min](const char* flag, const char* value) {
      *out = static_cast<T>(
          FlagUint(flag, value, min, static_cast<uint64_t>(std::numeric_limits<T>::max())));
    };
  }
  static Setter Micros(sim::Tick* out, uint64_t min = 0);
  static Setter Probability(double* out);

  // Parses the flags after the program name into the bound targets, then
  // runs Validate.
  void Parse(int argc, char** argv) const;
  void PrintHelp(const char* prog) const;

 private:
  struct Flag {
    std::string name;
    const char* placeholder;  // nullptr: a switch
    const char* help;
    Setter set;
  };
  RunSpec* spec_;
  std::string about_;
  std::vector<Flag> flags_;
};

// The workloads the front-ends build by name: smallbank, retwis, tpcc,
// tpcc-no and ycsb (zipf 0.9). `scale` is per-node accounts, keys or
// warehouses; 0 keeps the default size (60000 keys or accounts, 24
// warehouses). Null for an unknown name.
std::unique_ptr<workload::Workload> MakeWorkload(const std::string& name, uint32_t nodes,
                                                 uint64_t scale);

}  // namespace xenic::harness

#endif  // SRC_HARNESS_RUN_SPEC_H_
