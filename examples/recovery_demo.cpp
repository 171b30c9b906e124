// Recovery demo: the paper's section 4.2.1 flow end to end on the public
// API. Transfers run on every node; node 2 crashes while some of them are in
// flight; after a detection delay the crash failover resolves the wedged
// transactions, promotes node 2's first backup with lock reconstruction and
// roll-forward, and moves the routing; the surviving nodes keep serving
// transfers; and a read-all transaction audits the money through the
// cluster. Exits 0 only if the audit holds.

#include <cstdio>
#include <functional>

#include "src/common/rng.h"
#include "src/txn/recovery.h"

using namespace xenic;
using txn::ExecRound;
using txn::TxnOutcome;
using txn::TxnRequest;

namespace {

constexpr store::TableId kBank = 0;
constexpr uint64_t kAccounts = 2000;
constexpr int64_t kInitialBalance = 1000;

store::Value Balance(int64_t v) {
  store::Value out(16, 0);
  store::PutI64(out, 0, v);
  return out;
}

TxnRequest Transfer(store::Key a, store::Key b, int64_t amt) {
  TxnRequest req;
  req.reads = {{kBank, a}, {kBank, b}};
  req.writes = {{kBank, a}, {kBank, b}};
  req.execute = [amt](ExecRound& er) {
    (*er.writes)[0].value = Balance(store::GetI64((*er.reads)[0].value, 0) - amt);
    (*er.writes)[1].value = Balance(store::GetI64((*er.reads)[1].value, 0) + amt);
  };
  return req;
}

}  // namespace

int main() {
  txn::XenicClusterOptions options;
  options.num_nodes = 4;
  options.replication = 3;
  options.tables = {store::TableSpec{kBank, "accounts", 13, 16, 8, 8}};
  txn::HashPartitioner partitioner(options.num_nodes);
  txn::XenicCluster cluster(options, &partitioner);
  sim::Engine& engine = cluster.engine();

  for (store::Key k = 0; k < kAccounts; ++k) {
    cluster.LoadReplicated(kBank, k, Balance(kInitialBalance));
  }
  cluster.StartWorkers();

  constexpr store::NodeId kFailed = 2;
  constexpr sim::Tick kCrashAt = 300 * sim::kNsPerUs;
  constexpr sim::Tick kDetectDelay = 8 * sim::kNsPerUs;
  constexpr sim::Tick kHorizon = 900 * sim::kNsPerUs;

  // Closed-loop transfers, four per node, until the horizon. A submission
  // to the crashed node is dropped, so its chains stop there.
  Rng rng(99);
  int committed[2] = {0, 0};  // before and after the failover
  int in_flight = 0;
  bool failed_over = false;
  std::function<void(store::NodeId)> run_one = [&](store::NodeId n) {
    if (engine.now() >= kHorizon) {
      return;
    }
    const store::Key a = rng.NextBounded(kAccounts);
    store::Key b = rng.NextBounded(kAccounts);
    while (b == a) {
      b = rng.NextBounded(kAccounts);
    }
    in_flight++;
    cluster.node(n).Submit(Transfer(a, b, 1), [&, n](TxnOutcome o) {
      in_flight--;
      if (o == TxnOutcome::kCommitted) {
        committed[failed_over ? 1 : 0]++;
      }
      run_one(n);
    });
  };
  for (store::NodeId n = 0; n < cluster.size(); ++n) {
    for (int c = 0; c < 4; ++c) {
      run_one(n);
    }
  }

  // Node 2's first backup stops applying its log for a while (commit-log
  // back-pressure), so at detection it still holds LOG records of node 2's
  // shard that recovery must rebuild locks for and roll forward or discard.
  constexpr store::NodeId kBackup = 3;
  engine.ScheduleAt(kCrashAt - 20 * sim::kNsPerUs, [&] { cluster.node(kBackup).StopWorkers(); });
  engine.ScheduleAt(kCrashAt + 40 * sim::kNsPerUs, [&] {
    cluster.node(kBackup).StartWorkers(options.workers_per_node, options.worker_poll_interval);
  });
  engine.ScheduleAt(kCrashAt, [&] {
    std::printf("phase 1: %d transfers committed; node %u crashes at %llu us with %d "
                "in flight\n",
                committed[0], kFailed, static_cast<unsigned long long>(kCrashAt / 1000),
                in_flight);
    cluster.node(kFailed).Crash();
  });
  engine.ScheduleAt(kCrashAt + kDetectDelay, [&] {
    const txn::CrashReport r = txn::CrashFailover(cluster, kFailed);
    failed_over = true;
    std::printf("phase 2: failover at %llu us promoted node %u\n",
                static_cast<unsigned long long>(engine.now() / 1000), r.promoted.value());
    std::printf("  wedged txns: committed %zu (%zu acks synthesized), aborted %zu\n",
                r.sweep_committed, r.acks_synthesized, r.sweep_aborted);
    std::printf("  shard recovery: scanned %zu log records, rebuilt %zu locks, rolled "
                "forward %zu txns, discarded %zu\n",
                r.records_scanned, r.locks_rebuilt, r.rolled_forward, r.discarded);
    std::printf("  dead coordinator: swept %zu txns, rolled forward %zu, discarded %zu, "
                "released %zu locks\n",
                r.coord_swept, r.coord_rolled_forward, r.coord_discarded, r.locks_released);
  });
  engine.RunUntil(kHorizon);
  engine.RunFor(200 * sim::kNsPerUs);
  store::Key probe = 0;  // an account of the failed node's shard
  while (partitioner.PrimaryOf(kBank, probe) != kFailed) {
    probe++;
  }
  std::printf("phase 3: %d more transfers committed through the new routing "
              "(shard %u now on node %u)\n",
              committed[1], kFailed, cluster.map().PrimaryOf(kBank, probe));

  // Audit through the cluster: one read-all transaction, retried until it
  // commits, sees every committed transfer.
  int64_t total = 0;
  bool audited = false;
  std::function<void()> audit = [&] {
    TxnRequest req;
    for (store::Key k = 0; k < kAccounts; ++k) {
      req.reads.push_back({kBank, k});
    }
    req.execute = [&total](ExecRound& er) {
      total = 0;
      for (const auto& r : *er.reads) {
        total += store::GetI64(r.value, 0);
      }
    };
    cluster.node(0).Submit(std::move(req), [&](TxnOutcome o) {
      if (o == TxnOutcome::kCommitted) {
        audited = true;
      } else {
        audit();
      }
    });
  };
  audit();
  engine.RunFor(2000 * sim::kNsPerUs);
  cluster.StopWorkers();
  engine.Run();

  const int64_t expected = static_cast<int64_t>(kAccounts) * kInitialBalance;
  if (!audited) {
    std::printf("audit: the read-all transaction did not commit\n");
    return 1;
  }
  std::printf("audit: total = %lld (expected %lld)\n", static_cast<long long>(total),
              static_cast<long long>(expected));
  return total == expected ? 0 : 1;
}
