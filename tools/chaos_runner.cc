// Seeded chaos runner CLI.
//
// Runs one deterministic chaos schedule per seed -- crashes + recovery,
// wire faults, NIC-index eviction storms, commit-log back-pressure -- and
// audits the surviving history (serializability, money conservation, leaked
// locks/pins, log drain). Output is a pure function of the flags: the same
// seed prints the same verdict and the same simulator event count on every
// run and for every --jobs value, which tools/check_determinism.sh relies
// on. Exit status is 0 iff every seed's verdict is PASS.
//
// Usage:
//   chaos_runner [--seed N | --seeds A-B] [--system xenic|drtmh|drtmh-nc|fasst|drtmr]
//                [--jobs N] [--nodes N] [--epoch N] [--horizon-us N]
//                [--replicas N] [--quorum N] [--handoffs N]
//                [--nic-log-apply] [--replica-reads]
//                [--crashes N] [--storms N] [--stalls N]
//                [--drop P] [--dup P] [--delay P] [--log-capacity N]
//                [--drop-type NAME] [--drop-node N]
//                [--timeline] [--timeline-window-us N]
//                [--metrics] [--slo SPEC]
//                [--retry-policy uniform|expjitter|cwnd] [--backoff-base US]
//                [--retry-cap US] [--hot-key-path] [--adaptive-dma]
//                [--cc occ|nowait|waitdie|woundwait] [--workload bank|ycsb]
//
// --cc selects the concurrency-control policy of Xenic systems (default
// occ, the historical pipeline; the 2PL policies change event schedules, so
// their transcripts are separate from the per-seed goldens). --workload
// ycsb swaps the bank-transfer mix for a skewed YCSB keyspace; it has no
// money invariant, so the summary omits the money line.
//
// --retry-policy arms contention-scaled backoff between a submitter's
// transactions (off by default -- arming draws extra Rng values, so the
// historical per-seed transcripts require it off). --hot-key-path /
// --adaptive-dma flip the corresponding Xenic features under chaos.
//
// --drop-type arms the transport-layer typed drop: every message matching
// NAME (a net::MsgType name such as "validate", or "<x>_reply" for the ACKs
// acknowledging <x>, e.g. "validate_reply") sent by --drop-node (default 0)
// is dropped and redelivered by link-layer retransmit. Xenic systems only.
//
// --replicas / --quorum size the replication group (quorum counts the
// primary; 0 or >= replicas keeps the historical wait-for-all commit).
// --handoffs schedules N planned lease handoffs: the primary role of a live
// node moves to its first live backup without a crash or log sweep (Xenic
// systems only; baselines count them as skipped). --nic-log-apply moves
// backup log apply onto the NIC ARM cores (continuous apply); adding
// --replica-reads lets a backup's node serve single-shard read-only
// transactions locally behind a freshness fence (requires --nic-log-apply).
//
// --timeline appends a windowed throughput/abort/latency time series (with
// planned-fault markers) after each seed's summary, followed by "timeline
// avail" lines quantifying each fault's availability dip (depth, width,
// degraded_service_seconds). Every extra line starts with "timeline ", and
// the summaries themselves are byte-identical with the flag on or off
// (check_determinism.sh enforces it).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/chaos/chaos_run.h"
#include "src/harness/sweep.h"
#include "src/txn/cc_policy.h"

namespace {

using xenic::chaos::ChaosConfig;
using xenic::chaos::ChaosVerdict;
using xenic::chaos::RunChaos;
using xenic::harness::SystemConfig;

uint64_t ParseU64(const char* s) { return std::strtoull(s, nullptr, 10); }

bool SetSystem(ChaosConfig& config, const std::string& name) {
  if (name == "xenic") {
    config.system.kind = SystemConfig::Kind::kXenic;
    return true;
  }
  config.system.kind = SystemConfig::Kind::kBaseline;
  if (name == "drtmh") {
    config.system.mode = xenic::baseline::BaselineMode::kDrtmH;
  } else if (name == "drtmh-nc") {
    config.system.mode = xenic::baseline::BaselineMode::kDrtmHNC;
  } else if (name == "fasst") {
    config.system.mode = xenic::baseline::BaselineMode::kFasst;
  } else if (name == "drtmr") {
    config.system.mode = xenic::baseline::BaselineMode::kDrtmR;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig base;
  base.faults.crashes = 1;
  base.faults.eviction_storms = 2;
  base.faults.stall_windows = 1;
  base.faults.drop_prob = 0.01;
  base.faults.dup_prob = 0.01;
  base.faults.delay_prob = 0.02;

  uint64_t seed_lo = 1;
  uint64_t seed_hi = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      seed_lo = seed_hi = ParseU64(next());
    } else if (a == "--seeds") {
      const char* v = next();
      const char* dash = std::strchr(v, '-');
      if (dash == nullptr) {
        std::fprintf(stderr, "--seeds wants A-B\n");
        return 2;
      }
      seed_lo = ParseU64(v);
      seed_hi = ParseU64(dash + 1);
    } else if (a == "--system") {
      if (!SetSystem(base, next())) {
        std::fprintf(stderr, "unknown system\n");
        return 2;
      }
    } else if (a == "--nodes") {
      base.system.num_nodes = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--replicas") {
      base.system.replication = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--quorum") {
      base.system.quorum = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--handoffs") {
      base.faults.planned_handoffs = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--detect-us") {
      // Crash detection (lease expiry) delay. The default 8us is almost
      // instant; realistic lease timeouts are tens of microseconds, which
      // is exactly the availability gap planned handoff closes.
      base.faults.detection_delay =
          static_cast<xenic::sim::Tick>(ParseU64(next())) * xenic::sim::kNsPerUs;
    } else if (a == "--nic-log-apply") {
      base.system.features.nic_log_apply = true;
    } else if (a == "--replica-reads") {
      base.system.features.nic_log_apply = true;  // reads need the applier
      base.system.features.replica_reads = true;
    } else if (a == "--epoch") {
      base.epoch = ParseU64(next());
    } else if (a == "--horizon-us") {
      base.horizon = static_cast<xenic::sim::Tick>(ParseU64(next())) * xenic::sim::kNsPerUs;
    } else if (a == "--crashes") {
      base.faults.crashes = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--storms") {
      base.faults.eviction_storms = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--stalls") {
      base.faults.stall_windows = static_cast<uint32_t>(ParseU64(next()));
    } else if (a == "--drop") {
      base.faults.drop_prob = std::atof(next());
    } else if (a == "--dup") {
      base.faults.dup_prob = std::atof(next());
    } else if (a == "--delay") {
      base.faults.delay_prob = std::atof(next());
    } else if (a == "--log-capacity") {
      base.system.log_capacity = static_cast<size_t>(ParseU64(next()));
    } else if (a == "--drop-type") {
      const char* name = next();
      if (!xenic::net::ParseMsgSelector(name, &base.faults.typed_drop)) {
        std::fprintf(stderr, "unknown message type %s\n", name);
        return 2;
      }
      if (base.faults.typed_drop_node < 0) {
        base.faults.typed_drop_node = 0;
      }
    } else if (a == "--drop-node") {
      base.faults.typed_drop_node = static_cast<int>(ParseU64(next()));
    } else if (a == "--retry-policy") {
      const char* name = next();
      if (!xenic::txn::ParseRetryPolicy(name, &base.retry.kind)) {
        std::fprintf(stderr, "unknown --retry-policy %s (uniform|expjitter|cwnd)\n", name);
        return 2;
      }
      base.retry_aborts = true;
    } else if (a == "--backoff-base") {
      base.retry.backoff_base =
          static_cast<xenic::sim::Tick>(ParseU64(next())) * xenic::sim::kNsPerUs;
    } else if (a == "--retry-cap") {
      base.retry.backoff_cap =
          static_cast<xenic::sim::Tick>(ParseU64(next())) * xenic::sim::kNsPerUs;
    } else if (a == "--hot-key-path") {
      base.system.features.hot_key_fastpath = true;
    } else if (a == "--adaptive-dma") {
      base.system.nic_features.adaptive_dma_batching = true;
    } else if (a == "--cc") {
      const char* name = next();
      if (!xenic::txn::ParseCcPolicy(name, &base.system.features.cc)) {
        std::fprintf(stderr, "unknown --cc %s (occ|nowait|waitdie|woundwait)\n", name);
        return 2;
      }
    } else if (a == "--workload") {
      const std::string name = next();
      if (name == "bank") {
        base.workload = xenic::chaos::ChaosWorkload::kBank;
      } else if (name == "ycsb") {
        base.workload = xenic::chaos::ChaosWorkload::kYcsb;
      } else {
        std::fprintf(stderr, "unknown --workload %s (bank|ycsb)\n", name.c_str());
        return 2;
      }
    } else if (a == "--timeline") {
      base.timeline = true;
    } else if (a == "--metrics") {
      base.metrics = true;
    } else if (a == "--slo") {
      std::string err;
      if (!xenic::obs::ParseSloSpec(next(), &base.slo, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
    } else if (a == "--timeline-window-us") {
      base.timeline_window =
          static_cast<xenic::sim::Tick>(ParseU64(next())) * xenic::sim::kNsPerUs;
    } else if (a == "--jobs" || a.rfind("--jobs=", 0) == 0) {
      if (a == "--jobs") {
        (void)next();  // consumed below by ParseJobsFlag
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (seed_hi < seed_lo) {
    std::fprintf(stderr, "empty seed range\n");
    return 2;
  }

  xenic::harness::SweepExecutor ex(
      xenic::harness::SweepExecutor::ParseJobsFlag(argc, argv));

  std::vector<std::function<ChaosVerdict()>> tasks;
  for (uint64_t s = seed_lo; s <= seed_hi; ++s) {
    ChaosConfig config = base;
    config.seed = s;
    tasks.push_back([config] { return RunChaos(config); });
  }
  const std::vector<ChaosVerdict> verdicts = ex.Map(tasks);

  bool all_ok = true;
  for (const ChaosVerdict& v : verdicts) {
    std::fputs(v.Summary().c_str(), stdout);
    if (base.timeline) {
      std::fputs(v.Timeline().c_str(), stdout);
    }
    // "metrics " / "slo " lines are strippable by prefix, like "timeline ".
    std::fputs(v.metrics_text.c_str(), stdout);
    std::fputs(v.slo_text.c_str(), stdout);
    std::fputs("\n", stdout);
    all_ok = all_ok && v.ok();
  }
  std::printf("%zu seed(s): %s\n", verdicts.size(), all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
