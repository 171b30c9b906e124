#include "src/harness/run_spec.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/txn/cc_policy.h"
#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace xenic::harness {
namespace {

// The one system-name table behind every --system.
struct SystemName {
  const char* name;
  SystemConfig::Kind kind;
  baseline::BaselineMode mode;
};
constexpr SystemName kSystems[] = {
    {"xenic", SystemConfig::Kind::kXenic, baseline::BaselineMode::kDrtmH},
    {"drtmh", SystemConfig::Kind::kBaseline, baseline::BaselineMode::kDrtmH},
    {"drtmh-nc", SystemConfig::Kind::kBaseline, baseline::BaselineMode::kDrtmHNC},
    {"fasst", SystemConfig::Kind::kBaseline, baseline::BaselineMode::kFasst},
    {"drtmr", SystemConfig::Kind::kBaseline, baseline::BaselineMode::kDrtmR},
};

const SystemName* FindSystem(const std::string& name) {
  for (const SystemName& s : kSystems) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace

void RunSpec::ApplyTo(RunConfig* rc) const {
  rc->seed = seed.value_or(rc->seed);
  ApplyTo(&rc->retry);
}

void RunSpec::ApplyTo(txn::RetryPolicyConfig* retry) const {
  retry->kind = retry_policy.value_or(retry->kind);
  if (backoff_base_us) {
    retry->backoff_base = *backoff_base_us * sim::kNsPerUs;
  }
  if (retry_cap_us) {
    retry->backoff_cap = *retry_cap_us * sim::kNsPerUs;
  }
}

void RunSpec::ApplyTo(SystemConfig* cfg) const {
  if (cfg->kind != SystemConfig::Kind::kXenic) {
    return;
  }
  cfg->features.cc = cc;
  cfg->features.hot_key_fastpath |= hot_key_path;
  cfg->nic_features.adaptive_dma_batching |= adaptive_dma;
  cfg->features.nic_log_apply |= nic_log_apply;
  cfg->features.replica_reads |= replica_reads;
}

void RunSpec::ApplyTo(std::vector<SystemConfig>* cfgs) const {
  for (SystemConfig& c : *cfgs) {
    ApplyTo(&c);
  }
}

SystemConfig RunSpec::System() const {
  const SystemName* s = FindSystem(system);
  assert(s != nullptr && "--system's setter admits table names only");
  SystemConfig cfg;
  cfg.kind = s->kind;
  cfg.mode = s->mode;
  cfg.num_nodes = nodes;
  cfg.replication = replicas;
  cfg.quorum = quorum;
  ApplyTo(&cfg);
  return cfg;
}

bool RunSpec::Observed() const {
  return attrib || txn_attrib || abort_breakdown || msg_breakdown || latency_hist || metrics ||
         metrics_window_us != RunSpec{}.metrics_window_us || !slo.empty() || !trace_path.empty();
}

std::string Validate(const RunSpec& spec) {
  if (spec.nodes < 1) {
    return "--nodes wants at least 1 node";
  }
  if (spec.replicas < 1 || spec.replicas > spec.nodes) {
    return "--replicas " + std::to_string(spec.replicas) + " must lie between 1 and --nodes (" +
           std::to_string(spec.nodes) + ")";
  }
  // 2PL reads lock at the primary, and its local writes take the locked
  // path, so neither the replica read nor the hot-key route applies.
  if (spec.cc != txn::CcPolicyKind::kOcc) {
    const std::string not_cc = std::string(", not ") + txn::CcPolicyName(spec.cc);
    if (spec.replica_reads) {
      return "--replica-reads needs --cc occ" + not_cc;
    }
    if (spec.hot_key_path) {
      return "--hot-key-path needs --cc occ" + not_cc;
    }
  }
  return "";
}

FlagSet::FlagSet(RunSpec* spec, uint64_t shared, std::string about)
    : spec_(spec), about_(std::move(about)) {
  // Each shared flag's one definition; a null placeholder makes a switch.
  auto share = [&](SharedFlag bit, const char* name, const char* placeholder, const char* help,
                   Setter set) {
    if ((shared & bit) != 0) {
      Add(name, placeholder, help, std::move(set));
    }
  };
  share(kFlagSystem, "--system", "NAME", "system: xenic | drtmh | drtmh-nc | fasst | drtmr",
        [spec](const char* flag, const char* v) {
          if (FindSystem(v) == nullptr) {
            RejectFlagValue(flag, v, "xenic|drtmh|drtmh-nc|fasst|drtmr");
          }
          spec->system = v;
        });
  share(kFlagNodes, "--nodes", "N", "cluster size in servers", Uint(&spec->nodes));
  share(kFlagReplicas, "--replicas", "N", "copies of each shard, primary included",
        Uint(&spec->replicas));
  share(kFlagQuorum, "--quorum", "N", "copies that must ack a commit (0 = all)",
        Uint(&spec->quorum));
  share(kFlagCc, "--cc", "P", "Xenic concurrency control: occ | nowait | waitdie | woundwait",
        [spec](const char* flag, const char* v) {
          if (!txn::ParseCcPolicy(v, &spec->cc)) {
            RejectFlagValue(flag, v, "occ|nowait|waitdie|woundwait");
          }
        });
  share(kFlagHotKeyPath, "--hot-key-path", nullptr, "serialize sketch-flagged hot keys on the NIC",
        On(&spec->hot_key_path));
  share(kFlagAdaptiveDma, "--adaptive-dma", nullptr, "occupancy-aware DMA vector sizing",
        On(&spec->adaptive_dma));
  share(kFlagNicLogApply, "--nic-log-apply", nullptr, "apply backup logs on the NIC cores",
        On(&spec->nic_log_apply));
  share(kFlagReplicaReads, "--replica-reads", nullptr,
        "serve one-shard read-only txns from a local backup (implies --nic-log-apply)",
        [spec](const char*, const char*) { spec->nic_log_apply = spec->replica_reads = true; });
  share(kFlagWorkload, "--workload", "NAME", "workload (names above)",
        [spec](const char*, const char* v) { spec->workload = v; });
  share(kFlagSeed, "--seed", "N", "run seed (default: the tool's own)", Uint(&spec->seed));
  share(kFlagRetryPolicy, "--retry-policy", "P", "abort backoff policy: uniform | expjitter | cwnd",
        [spec](const char* flag, const char* v) {
          txn::RetryPolicyKind kind = txn::RetryPolicyKind::kUniform;
          if (!txn::ParseRetryPolicy(v, &kind)) {
            RejectFlagValue(flag, v, "uniform|expjitter|cwnd");
          }
          spec->retry_policy = kind;
        });
  share(kFlagBackoffBase, "--backoff-base", "US", "backoff base in microseconds (default 4)",
        Uint(&spec->backoff_base_us, 1));
  share(kFlagRetryCap, "--retry-cap", "US", "backoff window cap in microseconds (default 256)",
        Uint(&spec->retry_cap_us, 1));
  share(kFlagDetectUs, "--detect-us", "US", "crash detection (lease expiry) delay in microseconds",
        Uint(&spec->detect_us));
  share(kFlagJobs, "--jobs", "N",
        "parallel workers: 0 = hardware threads; default $XENIC_JOBS or 1", Uint(&spec->jobs));
  share(kFlagAttrib, "--attrib", nullptr, "bottleneck attribution: per-resource load and waits",
        On(&spec->attrib));
  share(kFlagTxnAttrib, "--txn-attrib", nullptr, "p50-vs-tail critical-path waterfall",
        On(&spec->txn_attrib));
  share(kFlagAbortBreakdown, "--abort-breakdown", nullptr, "abort-reason table",
        On(&spec->abort_breakdown));
  share(kFlagMsgBreakdown, "--msg-breakdown", nullptr, "per-message-type traffic table",
        On(&spec->msg_breakdown));
  share(kFlagLatencyHist, "--latency-hist", nullptr, "latency histogram buckets of every point",
        On(&spec->latency_hist));
  share(kFlagMetrics, "--metrics", nullptr, "windowed metric series", On(&spec->metrics));
  share(kFlagMetricsWindowUs, "--metrics-window-us", "W",
        "metric sampling window in microseconds (default 50)", Uint(&spec->metrics_window_us, 1));
  share(kFlagSlo, "--slo", "SPEC",
        "objectives over the metric windows, e.g. \"p99<50us,goodput>0.95\"",
        [spec](const char* flag, const char* v) {
          std::string err;
          if (!obs::ParseSloSpec(v, &spec->slo, &err)) {
            RejectFlagValue(flag, v, "an SLO spec (" + err + ")");
          }
        });
  share(kFlagTrace, "--trace", "PATH", "write a Chrome trace-event JSON file",
        [spec](const char* flag, const char* v) {
          if (v[0] == '\0') {
            RejectFlagValue(flag, v, "a file path");
          }
          spec->trace_path = v;
        });
  if (const char* env = std::getenv("XENIC_JOBS");
      (shared & kFlagJobs) != 0 && env != nullptr && env[0] != '\0') {
    Uint(&spec->jobs)("XENIC_JOBS", env);
  }
}

void FlagSet::Add(const char* name, const char* placeholder, const char* help, Setter set) {
  assert(std::none_of(flags_.begin(), flags_.end(),
                      [name](const Flag& f) { return f.name == name; }) &&
         "a flag is defined once");
  flags_.push_back(Flag{name, placeholder, help, std::move(set)});
}

FlagSet::Setter FlagSet::On(bool* on) {
  return [on](const char*, const char*) { *on = true; };
}

FlagSet::Setter FlagSet::Uint(std::optional<uint64_t>* out, uint64_t min) {
  return [out, min](const char* flag, const char* value) { *out = FlagUint(flag, value, min); };
}

FlagSet::Setter FlagSet::Micros(sim::Tick* out, uint64_t min) {
  return [out, min](const char* flag, const char* value) {
    *out = FlagUint(flag, value, min) * sim::kNsPerUs;
  };
}

FlagSet::Setter FlagSet::Probability(double* out) {
  return [out](const char* flag, const char* value) { *out = FlagProbability(flag, value); };
}

void FlagSet::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const char* value = eq == std::string::npos ? nullptr : argv[i] + eq + 1;
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&name](const Flag& f) { return f.name == name; });
    const bool help = name == "--help" || name == "-h";
    if (flag == flags_.end() && !help) {
      std::fprintf(stderr, "%s: unknown flag '%s' (see --help)\n", argv[0], name.c_str());
      std::exit(2);
    }
    const bool is_switch = help || flag->placeholder == nullptr;
    if (is_switch && value != nullptr) {
      RejectFlagValue(name.c_str(), value, "no value");
    }
    if (help) {
      PrintHelp(argv[0]);
      std::exit(0);
    }
    if (!is_switch && value == nullptr) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "%s wants a value (%s)\n", name.c_str(), flag->placeholder);
        std::exit(2);
      }
      value = argv[++i];
    }
    flag->set(name.c_str(), value);
  }
  if (const std::string err = Validate(*spec_); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
}

void FlagSet::PrintHelp(const char* prog) const {
  std::printf("usage: %s [flags]\n%s", prog, about_.c_str());
  for (const Flag& f : flags_) {
    const std::string left = f.placeholder == nullptr ? f.name : f.name + " " + f.placeholder;
    std::printf("  %-23s  %s\n", left.c_str(), f.help);
  }
}

std::unique_ptr<workload::Workload> MakeWorkload(const std::string& name, uint32_t nodes,
                                                 uint64_t scale) {
  const uint64_t keys = scale != 0 ? scale : 60000;
  if (name == "smallbank") {
    workload::Smallbank::Options wo;
    wo.num_nodes = nodes;
    wo.accounts_per_node = keys;
    return std::make_unique<workload::Smallbank>(wo);
  }
  if (name == "retwis") {
    workload::Retwis::Options wo;
    wo.num_nodes = nodes;
    wo.keys_per_node = keys;
    return std::make_unique<workload::Retwis>(wo);
  }
  if (name == "ycsb") {
    workload::Ycsb::Options wo;
    wo.num_nodes = nodes;
    wo.keys_per_node = keys;
    wo.zipf_theta = 0.9;
    return std::make_unique<workload::Ycsb>(wo);
  }
  if (name == "tpcc" || name == "tpcc-no") {
    workload::Tpcc::Options wo;
    wo.num_nodes = nodes;
    wo.warehouses_per_node = scale != 0 ? static_cast<uint32_t>(scale) : 24;
    wo.customers_per_district = 40;
    wo.items = 1000;
    wo.new_order_only = name == "tpcc-no";
    wo.uniform_remote_items = name == "tpcc-no";
    return std::make_unique<workload::Tpcc>(wo);
  }
  return nullptr;
}

}  // namespace xenic::harness
