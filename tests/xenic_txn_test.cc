// End-to-end correctness tests for the Xenic transaction engine: commit
// visibility, aborts, validation, local fast paths, multi-hop shipping,
// multi-round execution, replication, and serializability invariants under
// concurrency -- across all protocol feature-flag combinations.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

using store::GetI64;
using store::MakeValue;
using store::PutI64;
using store::TableSpec;
using store::Value;

constexpr store::TableId kBank = 0;

XenicClusterOptions SmallCluster(uint32_t nodes = 3, uint32_t replication = 2) {
  XenicClusterOptions o;
  o.num_nodes = nodes;
  o.replication = replication;
  o.tables = {TableSpec{kBank, "bank", 12, 16, 8, 8}};
  o.workers_per_node = 2;
  return o;
}

Value Balance(int64_t v) {
  Value out = MakeValue(16, 0);
  PutI64(out, 0, v);
  return out;
}

TxnRequest MakeTransfer(store::Key from, store::Key to, int64_t amount) {
  TxnRequest req;
  req.reads = {{kBank, from}, {kBank, to}};
  req.writes = {{kBank, from}, {kBank, to}};
  req.execute = [amount](ExecRound& er) {
    const int64_t a = GetI64((*er.reads)[0].value, 0);
    const int64_t b = GetI64((*er.reads)[1].value, 0);
    if (a < amount) {
      *er.abort = true;
      return;
    }
    (*er.writes)[0].value = Balance(a - amount);
    (*er.writes)[1].value = Balance(b + amount);
  };
  return req;
}

TxnRequest MakeRead(std::vector<store::Key> keys, std::vector<int64_t>* out) {
  TxnRequest req;
  for (auto k : keys) {
    req.reads.push_back({kBank, k});
  }
  req.execute = [out](ExecRound& er) {
    out->clear();
    for (const auto& r : *er.reads) {
      out->push_back(r.found ? GetI64(r.value, 0) : -1);
    }
  };
  return req;
}

// Run the engine until all submitted txns completed and logs stayed
// drained for several windows (commit records trail the commit report).
void Quiesce(XenicCluster& c, const std::function<bool()>& all_done) {
  int stable = 0;
  for (int i = 0; i < 100000 && !c.engine().idle(); ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
    bool logs_drained = true;
    for (uint32_t n = 0; n < c.size(); ++n) {
      logs_drained &= c.datastore(n).log().unreclaimed() == 0;
    }
    if (all_done() && logs_drained) {
      if (++stable >= 10) {
        break;
      }
    } else {
      stable = 0;
    }
  }
  c.StopWorkers();
  c.engine().Run();
}

// Find a key whose primary is `node`.
store::Key KeyOn(const XenicCluster& c, store::NodeId node, uint64_t salt = 0) {
  for (store::Key k = salt * 100000 + 1;; ++k) {
    if (c.map().PrimaryOf(kBank, k) == node) {
      return k;
    }
  }
}

struct ClusterFixture {
  explicit ClusterFixture(XenicClusterOptions o = SmallCluster())
      : cluster(o, &part), part_holder() {}
  HashPartitioner part{3};
  XenicCluster cluster;
  int part_holder;
};

class XenicFeaturesTest : public ::testing::TestWithParam<int> {
 protected:
  XenicClusterOptions Options() {
    XenicClusterOptions o = SmallCluster();
    const int p = GetParam();
    o.features.smart_remote_ops = (p & 1) != 0;
    o.features.nic_execution = (p & 2) != 0;
    o.features.occ_multihop = (p & 4) != 0;
    o.nic_features.eth_aggregation = (p & 1) != 0;  // vary together
    o.nic_features.async_dma_batching = (p & 2) != 0;
    return o;
  }
};

TEST(XenicTxnTest, DistributedTransferCommitsAndReplicates) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(50));
  c.StartWorkers();

  bool done = false;
  TxnOutcome outcome = TxnOutcome::kAborted;
  c.node(0).Submit(MakeTransfer(a, b, 30), [&](TxnOutcome o) {
    done = true;
    outcome = o;
  });
  Quiesce(c, [&] { return done; });

  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  // Primary copies updated.
  EXPECT_EQ(GetI64(c.datastore(1).table(kBank).Lookup(a)->value, 0), 70);
  EXPECT_EQ(GetI64(c.datastore(2).table(kBank).Lookup(b)->value, 0), 80);
  // Backup copies updated by the Robinhood workers.
  for (store::NodeId bk : c.map().BackupsOf(1)) {
    EXPECT_EQ(GetI64(c.datastore(bk).table(kBank).Lookup(a)->value, 0), 70);
  }
  for (store::NodeId bk : c.map().BackupsOf(2)) {
    EXPECT_EQ(GetI64(c.datastore(bk).table(kBank).Lookup(b)->value, 0), 80);
  }
  // Versions bumped.
  EXPECT_EQ(c.datastore(1).table(kBank).GetSeq(a).value(), 2u);
  // No pinned cache entries remain.
  EXPECT_EQ(c.datastore(1).index(kBank).pinned_objects(), 0u);
  EXPECT_EQ(c.datastore(2).index(kBank).pinned_objects(), 0u);
}

TEST(XenicTxnTest, InsufficientFundsAppAborts) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(10));
  c.LoadReplicated(kBank, b, Balance(0));
  c.StartWorkers();

  bool done = false;
  TxnOutcome outcome = TxnOutcome::kCommitted;
  c.node(0).Submit(MakeTransfer(a, b, 500), [&](TxnOutcome o) {
    done = true;
    outcome = o;
  });
  Quiesce(c, [&] { return done; });
  EXPECT_EQ(outcome, TxnOutcome::kAppAborted);
  EXPECT_EQ(GetI64(c.datastore(1).table(kBank).Lookup(a)->value, 0), 10);
  // All locks released.
  EXPECT_FALSE(c.datastore(1).index(kBank).IsLocked(a));
  EXPECT_FALSE(c.datastore(2).index(kBank).IsLocked(b));
}

TEST(XenicTxnTest, ReadOnlyRemoteSeesCommittedValue) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(42));
  c.LoadReplicated(kBank, b, Balance(7));
  c.StartWorkers();

  std::vector<int64_t> got;
  bool done = false;
  c.node(0).Submit(MakeRead({a, b}, &got), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 42);
  EXPECT_EQ(got[1], 7);
}

TEST(XenicTxnTest, LocalFastPathsAvoidNetwork) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(3, 1), &part);  // replication 1: no log msgs
  const store::Key a = KeyOn(c, 0);
  const store::Key b = KeyOn(c, 0, 1);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(0));
  c.StartWorkers();

  bool done1 = false;
  bool done2 = false;
  std::vector<int64_t> got;
  c.node(0).Submit(MakeTransfer(a, b, 10),
                   [&](TxnOutcome o) {
                     done1 = true;
                     EXPECT_EQ(o, TxnOutcome::kCommitted);
                   });
  c.node(0).Submit(MakeRead({a}, &got), [&](TxnOutcome o) {
    done2 = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done1 && done2; });
  EXPECT_EQ(c.node(0).stats().local_fastpath, 2u);
  EXPECT_EQ(c.node(0).stats().messages, 0u);
  EXPECT_EQ(c.nic(0).messages_sent(), 0u);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(a)->value, 0), 90);
}

TEST(XenicTxnTest, MultiHopShippedPathUsed) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key local = KeyOn(c, 0);
  const store::Key remote = KeyOn(c, 1);
  c.LoadReplicated(kBank, local, Balance(100));
  c.LoadReplicated(kBank, remote, Balance(100));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(MakeTransfer(local, remote, 25), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  EXPECT_EQ(c.node(0).stats().shipped_multihop, 1u);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(local)->value, 0), 75);
  EXPECT_EQ(GetI64(c.datastore(1).table(kBank).Lookup(remote)->value, 0), 125);
  EXPECT_FALSE(c.datastore(0).index(kBank).IsLocked(local));
  EXPECT_FALSE(c.datastore(1).index(kBank).IsLocked(remote));
}

TEST(XenicTxnTest, ShippedPathDisabledWhenFeatureOff) {
  auto opts = SmallCluster();
  opts.features.occ_multihop = false;
  HashPartitioner part(3);
  XenicCluster c(opts, &part);
  const store::Key local = KeyOn(c, 0);
  const store::Key remote = KeyOn(c, 1);
  c.LoadReplicated(kBank, local, Balance(100));
  c.LoadReplicated(kBank, remote, Balance(100));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(MakeTransfer(local, remote, 25),
                   [&](TxnOutcome o) {
                     done = true;
                     EXPECT_EQ(o, TxnOutcome::kCommitted);
                   });
  Quiesce(c, [&] { return done; });
  EXPECT_EQ(c.node(0).stats().shipped_multihop, 0u);
  EXPECT_EQ(GetI64(c.datastore(1).table(kBank).Lookup(remote)->value, 0), 125);
}

TEST(XenicTxnTest, WriteConflictAborts) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(1000));
  c.LoadReplicated(kBank, b, Balance(1000));
  c.StartWorkers();

  // Three concurrent conflicting transfers from different coordinators:
  // aborts are expected (locked keys abort the execute phase); each is
  // retried with backoff until it commits, and money is conserved.
  int committed = 0;
  int aborted = 0;
  std::function<void(store::NodeId, TxnRequest, uint64_t)> submit =
      [&](store::NodeId n, TxnRequest req, uint64_t backoff) {
        TxnRequest copy = req;
        c.node(n).Submit(std::move(copy), [&, n, req, backoff](TxnOutcome o) mutable {
          if (o == TxnOutcome::kCommitted) {
            committed++;
          } else if (o == TxnOutcome::kAborted) {
            aborted++;
            c.engine().ScheduleAfter(backoff, [&, n, req = std::move(req), backoff]() mutable {
              submit(n, std::move(req), backoff);
            });
          }
        });
      };
  submit(0, MakeTransfer(a, b, 10), 5 * sim::kNsPerUs);
  submit(1, MakeTransfer(a, b, 20), 11 * sim::kNsPerUs);
  submit(2, MakeTransfer(b, a, 30), 17 * sim::kNsPerUs);
  Quiesce(c, [&] { return committed == 3; });
  EXPECT_EQ(committed, 3);
  const int64_t total = GetI64(c.datastore(1).table(kBank).Lookup(a)->value, 0) +
                        GetI64(c.datastore(2).table(kBank).Lookup(b)->value, 0);
  EXPECT_EQ(total, 2000);
  EXPECT_FALSE(c.datastore(1).index(kBank).IsLocked(a));
  EXPECT_FALSE(c.datastore(2).index(kBank).IsLocked(b));
}

TEST(XenicTxnTest, MultiRoundExecutionAddsKeys) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  const store::Key ptr = KeyOn(c, 1, 2);
  c.LoadReplicated(kBank, a, Balance(5));
  c.LoadReplicated(kBank, b, Balance(17));
  // `ptr` holds the key of `b`: round 0 reads ptr, round 1 reads b.
  Value pv = MakeValue(16, 0);
  store::PutU64(pv, 0, b);
  c.LoadReplicated(kBank, ptr, pv);
  c.StartWorkers();

  int64_t indirect = -1;
  TxnRequest req;
  req.reads = {{kBank, ptr}};
  req.allow_ship = false;  // multi-round: not shippable
  req.execute = [&indirect](ExecRound& er) {
    if (er.round == 0) {
      const store::Key next = store::GetU64((*er.reads)[0].value, 0);
      er.add_reads->push_back({kBank, next});
      return;
    }
    indirect = GetI64((*er.reads)[1].value, 0);
  };
  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  EXPECT_EQ(indirect, 17);
}

TEST(XenicTxnTest, InsertNewKeyViaTransaction) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  c.StartWorkers();
  const store::Key fresh = KeyOn(c, 1, 3);

  TxnRequest req;
  req.writes = {{kBank, fresh}};
  req.execute = [](ExecRound& er) { (*er.writes)[0].value = Balance(777); };
  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  auto r = c.datastore(1).table(kBank).Lookup(fresh);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(GetI64(r->value, 0), 777);
  EXPECT_EQ(r->seq, 1u);
  // Replicated to backups.
  for (store::NodeId bk : c.map().BackupsOf(1)) {
    ASSERT_TRUE(c.datastore(bk).table(kBank).Contains(fresh));
  }
}

TEST_P(XenicFeaturesTest, BalanceConservationUnderConcurrency) {
  HashPartitioner part(3);
  XenicCluster c(Options(), &part);
  Rng rng(1234);
  constexpr int kAccounts = 60;
  constexpr int64_t kInitial = 1000;
  std::vector<store::Key> keys;
  for (int i = 0; i < kAccounts; ++i) {
    keys.push_back(static_cast<store::Key>(i + 1));
    c.LoadReplicated(kBank, keys.back(), Balance(kInitial));
  }
  c.StartWorkers();

  // Closed-loop contexts per node, each running random transfers.
  constexpr int kPerNode = 4;
  constexpr int kTxnsPerCtx = 40;
  int completed = 0;
  int committed = 0;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      completed++;
      return;
    }
    const store::Key from = keys[rng.NextBounded(kAccounts)];
    store::Key to = keys[rng.NextBounded(kAccounts)];
    while (to == from) {
      to = keys[rng.NextBounded(kAccounts)];
    }
    const int64_t amt = static_cast<int64_t>(rng.NextBounded(20)) + 1;
    c.node(n).Submit(MakeTransfer(from, to, amt), [&, n, left](TxnOutcome o) {
      if (o == TxnOutcome::kCommitted) {
        committed++;
      }
      run_one(n, left - 1);
    });
  };
  for (uint32_t n = 0; n < c.size(); ++n) {
    for (int k = 0; k < kPerNode; ++k) {
      run_one(n, kTxnsPerCtx);
    }
  }
  Quiesce(c, [&] { return completed == static_cast<int>(c.size()) * kPerNode; });

  EXPECT_GT(committed, 100);
  // Conservation at the primaries.
  int64_t total = 0;
  for (auto k : keys) {
    const store::NodeId p = c.map().PrimaryOf(kBank, k);
    total += GetI64(c.datastore(p).table(kBank).Lookup(k)->value, 0);
  }
  EXPECT_EQ(total, kAccounts * kInitial);
  // Replica consistency after quiesce.
  for (auto k : keys) {
    const store::NodeId p = c.map().PrimaryOf(kBank, k);
    const auto pv = c.datastore(p).table(kBank).Lookup(k);
    for (store::NodeId bk : c.map().BackupsOf(p)) {
      const auto bv = c.datastore(bk).table(kBank).Lookup(k);
      ASSERT_TRUE(bv.has_value());
      EXPECT_EQ(pv->value, bv->value) << "replica divergence on key " << k;
      EXPECT_EQ(pv->seq, bv->seq);
    }
  }
  // No leaked locks or pins.
  for (uint32_t n = 0; n < c.size(); ++n) {
    EXPECT_EQ(c.datastore(n).index(kBank).pinned_objects(), 0u) << "node " << n;
    for (auto k : keys) {
      EXPECT_FALSE(c.datastore(n).index(kBank).IsLocked(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FeatureMatrix, XenicFeaturesTest, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           const int p = info.param;
                           std::string s = "smart";
                           s += (p & 1) ? "1" : "0";
                           s += "_nicexec";
                           s += (p & 2) ? "1" : "0";
                           s += "_multihop";
                           s += (p & 4) ? "1" : "0";
                           return s;
                         });

TEST(XenicTxnTest, ValidationCatchesConcurrentWrite) {
  // A read-only txn spanning two shards races a transfer between the same
  // keys. Whatever the interleaving, the reader must never observe a state
  // where the sum of the two balances differs from the invariant.
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(500));
  c.LoadReplicated(kBank, b, Balance(500));
  c.StartWorkers();

  int readers_done = 0;
  int writer_done = 0;
  int checked = 0;
  std::function<void(int)> reader = [&](int left) {
    if (left == 0) {
      readers_done++;
      return;
    }
    auto got = std::make_shared<std::vector<int64_t>>();
    c.node(0).Submit(MakeRead({a, b}, got.get()), [&, got, left](TxnOutcome o) {
      if (o == TxnOutcome::kCommitted) {
        EXPECT_EQ((*got)[0] + (*got)[1], 1000) << "non-serializable read";
        checked++;
      }
      reader(left - 1);
    });
  };
  std::function<void(int)> writer = [&](int left) {
    if (left == 0) {
      writer_done = 1;
      return;
    }
    // Space the writes out so readers get commit windows.
    c.node(1).Submit(MakeTransfer(a, b, 7), [&, left](TxnOutcome) {
      c.engine().ScheduleAfter(40 * sim::kNsPerUs, [&, left] { writer(left - 1); });
    });
  };
  reader(50);
  writer(30);
  Quiesce(c, [&] { return readers_done == 1 && writer_done == 1; });
  EXPECT_GT(checked, 10);
}

TEST(XenicTxnTest, WorkersDrainLogAndUnpin) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(100));
  c.StartWorkers();
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    c.node(0).Submit(MakeTransfer(a, b, 1), [&](TxnOutcome) { done++; });
  }
  Quiesce(c, [&] { return done == 20; });
  for (uint32_t n = 0; n < c.size(); ++n) {
    EXPECT_EQ(c.datastore(n).log().unreclaimed(), 0u);
    EXPECT_EQ(c.datastore(n).index(kBank).pinned_objects(), 0u);
    EXPECT_EQ(c.datastore(n).pending_writes(), 0u);
  }
  // The workers applied every LOG record: each backup matches its primary.
  // (Only some of the concurrent transfers commit, so compare replicas
  // rather than expected balances.)
  const std::pair<store::Key, store::NodeId> written[] = {{a, 1}, {b, 2}};
  for (const auto& [key, shard] : written) {
    const auto primary = c.datastore(shard).table(kBank).Lookup(key);
    ASSERT_TRUE(primary.has_value());
    for (store::NodeId bk : c.map().BackupsOf(shard)) {
      const auto backup = c.datastore(bk).table(kBank).Lookup(key);
      ASSERT_TRUE(backup.has_value()) << "backup " << bk;
      EXPECT_EQ(backup->value, primary->value) << "backup " << bk;
      EXPECT_EQ(backup->seq, primary->seq) << "backup " << bk;
    }
  }
}

TEST(XenicTxnTest, DeleteViaTransaction) {
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  c.LoadReplicated(kBank, a, Balance(1));
  c.StartWorkers();
  TxnRequest req;
  req.writes = {{kBank, a}};
  req.allow_ship = false;
  req.execute = [](ExecRound& er) { (*er.writes)[0].is_delete = true; };
  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    done = true;
    EXPECT_EQ(o, TxnOutcome::kCommitted);
  });
  Quiesce(c, [&] { return done; });
  EXPECT_FALSE(c.datastore(1).table(kBank).Contains(a));
  for (store::NodeId bk : c.map().BackupsOf(1)) {
    EXPECT_FALSE(c.datastore(bk).table(kBank).Contains(a));
  }
}

TEST(XenicTxnTest, RecoveryRebuildsLocksFromLog) {
  // Simulate the 4.2.1 flow: a backup is promoted; unacked LOG records are
  // scanned and their write-set keys re-locked before serving.
  HashPartitioner part(3);
  XenicCluster c(SmallCluster(), &part);
  const store::Key a = KeyOn(c, 1);
  c.LoadReplicated(kBank, a, Balance(9));

  // Build an unacked log record as it would exist on a backup.
  store::LogRecord rec;
  rec.type = store::LogRecordType::kLog;
  rec.txn = store::MakeTxnId(0, 42);
  rec.writes.push_back(store::LogWrite{kBank, a, 2, Balance(123), false});

  const store::NodeId backup = c.map().BackupsOf(1)[0];
  XenicNode& promoted = c.node(backup);
  const size_t locked = promoted.RebuildLocksFromLog({rec});
  EXPECT_EQ(locked, 1u);
  EXPECT_TRUE(c.datastore(backup).index(kBank).IsLocked(a));
  EXPECT_EQ(c.datastore(backup).index(kBank).LockOwner(a), rec.txn);

  // Reconciliation applies the record, then releases the lock.
  EXPECT_EQ(c.datastore(backup).ApplyLogRecord(rec, /*stability_gate=*/false),
            store::ApplyOutcome::kApplied);
  c.datastore(backup).index(kBank).ReleaseLock(a, rec.txn);
  EXPECT_FALSE(c.datastore(backup).index(kBank).IsLocked(a));
  EXPECT_EQ(GetI64(c.datastore(backup).table(kBank).Lookup(a)->value, 0), 123);
}

}  // namespace
}  // namespace xenic::txn
