// Path-level tests of the Xenic engine: message/hop accounting for the
// multi-hop optimization, local-to-distributed escalation, locked-read
// aborts, the no-smart-ops lock round, read-your-log freshness of the
// local fast path, and the coordinator's phase spans.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/sim/trace.h"
#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

using store::GetI64;
using store::PutI64;
using store::PutU64;
using store::Value;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out(16, 0);
  PutI64(out, 0, v);
  return out;
}

XenicClusterOptions Opts(uint32_t nodes = 3, uint32_t repl = 2) {
  XenicClusterOptions o;
  o.num_nodes = nodes;
  o.replication = repl;
  o.tables = {store::TableSpec{kBank, "bank", 12, 16, 8, 8}};
  o.workers_per_node = 2;
  return o;
}

store::Key KeyOn(const XenicCluster& c, store::NodeId node, uint64_t salt = 0) {
  for (store::Key k = salt * 100000 + 1;; ++k) {
    if (c.map().PrimaryOf(kBank, k) == node) {
      return k;
    }
  }
}

TxnRequest Transfer(store::Key a, store::Key b, int64_t amt) {
  TxnRequest req;
  req.reads = {{kBank, a}, {kBank, b}};
  req.writes = {{kBank, a}, {kBank, b}};
  req.execute = [amt](ExecRound& er) {
    (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) - amt);
    (*er.writes)[1].value = Balance(GetI64((*er.reads)[1].value, 0) + amt);
  };
  return req;
}

void RunToDone(XenicCluster& c, bool* done) {
  for (int i = 0; i < 5000 && !*done; ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
  }
  ASSERT_TRUE(*done);
  c.engine().RunFor(1000 * sim::kNsPerUs);
  c.StopWorkers();
  c.engine().Run();
}

TEST(XenicPathsTest, MultiHopUsesFewerMessagesAndLowerLatency) {
  // Same 2-shard transfer, with and without occ_multihop: the shipped path
  // must commit with lower latency (one fewer serial message delay).
  sim::Tick lat[2];
  uint64_t msgs[2];
  for (int multihop = 0; multihop < 2; ++multihop) {
    XenicClusterOptions o = Opts();
    o.features.occ_multihop = multihop == 1;
    HashPartitioner part(3);
    XenicCluster c(o, &part);
    const store::Key a = KeyOn(c, 0);
    const store::Key b = KeyOn(c, 1);
    c.LoadReplicated(kBank, a, Balance(100));
    c.LoadReplicated(kBank, b, Balance(100));
    c.StartWorkers();

    bool done = false;
    const sim::Tick start = c.engine().now();
    sim::Tick end = 0;
    c.node(0).Submit(Transfer(a, b, 5), [&](TxnOutcome out) {
      EXPECT_EQ(out, TxnOutcome::kCommitted);
      end = c.engine().now();
      done = true;
    });
    RunToDone(c, &done);
    lat[multihop] = end - start;
    msgs[multihop] = c.TotalStats().messages;
    if (multihop == 1) {
      EXPECT_EQ(c.node(0).stats().shipped_multihop, 1u);
    }
  }
  EXPECT_LT(lat[1], lat[0]);
  EXPECT_LE(msgs[1], msgs[0]);
}

TEST(XenicPathsTest, LocalTxnEscalatesWhenRemoteKeyDiscovered) {
  HashPartitioner part(3);
  XenicCluster c(Opts(), &part);
  const store::Key local_ptr = KeyOn(c, 0);
  const store::Key remote = KeyOn(c, 1);
  Value pv(16, 0);
  PutU64(pv, 0, remote);
  c.LoadReplicated(kBank, local_ptr, pv);
  c.LoadReplicated(kBank, remote, Balance(321));
  c.StartWorkers();

  int64_t got = -1;
  TxnRequest req;
  req.reads = {{kBank, local_ptr}};
  req.allow_ship = false;
  req.execute = [&got](ExecRound& er) {
    if (er.round == 0) {
      er.add_reads->push_back({kBank, store::GetU64((*er.reads)[0].value, 0)});
      return;
    }
    got = GetI64((*er.reads)[1].value, 0);
  };
  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    EXPECT_EQ(o, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);
  EXPECT_EQ(got, 321);
  // It went over the network (escalated), despite starting local.
  EXPECT_GT(c.node(0).stats().messages, 0u);
}

TEST(XenicPathsTest, ExecuteAbortsOnLockedRead) {
  // A read-set key locked by another transaction aborts EXECUTE (paper
  // 4.2 step 2).
  HashPartitioner part(3);
  XenicCluster c(Opts(), &part);
  const store::Key a = KeyOn(c, 1);
  c.LoadReplicated(kBank, a, Balance(10));
  c.StartWorkers();
  // Simulate a lock held by a stuck transaction.
  ASSERT_TRUE(c.datastore(1).index(kBank).AcquireLock(a, store::MakeTxnId(2, 9)).ok());

  TxnRequest req;
  req.reads = {{kBank, a}};
  req.writes = {};
  req.allow_ship = true;
  req.execute = [](ExecRound&) {};
  // Make it non-local and non-single-shard-read-only so EXECUTE is real:
  const store::Key other = KeyOn(c, 2);
  c.LoadReplicated(kBank, other, Balance(1));
  req.reads.push_back({kBank, other});

  bool done = false;
  c.node(0).Submit(std::move(req), [&](TxnOutcome o) {
    EXPECT_EQ(o, TxnOutcome::kAborted);
    done = true;
  });
  RunToDone(c, &done);
  c.datastore(1).index(kBank).ReleaseLock(a, store::MakeTxnId(2, 9));
}

TEST(XenicPathsTest, NoSmartOpsStillCommitsViaLockRound) {
  XenicClusterOptions o = Opts();
  o.features.smart_remote_ops = false;
  o.features.occ_multihop = false;
  HashPartitioner part(3);
  XenicCluster c(o, &part);
  const store::Key a = KeyOn(c, 1);
  const store::Key b = KeyOn(c, 2);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(100));
  c.StartWorkers();

  bool done = false;
  c.node(0).Submit(Transfer(a, b, 10), [&](TxnOutcome out) {
    EXPECT_EQ(out, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);
  EXPECT_EQ(GetI64(c.datastore(1).table(kBank).Lookup(a)->value, 0), 90);
  EXPECT_EQ(GetI64(c.datastore(2).table(kBank).Lookup(b)->value, 0), 110);
  // Separate read + lock rounds: strictly more protocol rounds than the
  // combined operation needs.
  EXPECT_GE(c.node(0).stats().remote_rounds, 3u);
}

TEST(XenicPathsTest, LocalPathReadsYourLog) {
  // Two back-to-back local writes to the same key from the same node: the
  // second must observe the first's value even though the worker has not
  // applied it yet (FreshLookup), and must commit without spurious aborts.
  XenicClusterOptions o = Opts(3, 2);
  o.worker_poll_interval = 500 * sim::kNsPerUs;  // glacial workers
  HashPartitioner part(3);
  XenicCluster c(o, &part);
  const store::Key a = KeyOn(c, 0);
  const store::Key b = KeyOn(c, 0, 1);
  c.LoadReplicated(kBank, a, Balance(100));
  c.LoadReplicated(kBank, b, Balance(0));
  c.StartWorkers();

  int committed = 0;
  bool done = false;
  std::function<void(int)> chain = [&](int left) {
    if (left == 0) {
      done = true;
      return;
    }
    c.node(0).Submit(Transfer(a, b, 10), [&, left](TxnOutcome out) {
      ASSERT_EQ(out, TxnOutcome::kCommitted) << "spurious abort at txn " << 5 - left;
      committed++;
      chain(left - 1);
    });
  };
  chain(5);
  RunToDone(c, &done);
  EXPECT_EQ(committed, 5);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(a)->value, 0), 50);
  EXPECT_EQ(GetI64(c.datastore(0).table(kBank).Lookup(b)->value, 0), 50);
}

// Records the spans on the engines' `txn_phases` lanes.
class PhaseLaneSink : public sim::TraceSink {
 public:
  struct Phase {
    std::string lane;
    std::string name;
    sim::Tick start;
    sim::Tick end;
    uint64_t id;
  };

  uint32_t RegisterTrack(const std::string& process, const std::string& track) override {
    lanes_.push_back(process == "txn_phases" ? track : "");
    return static_cast<uint32_t>(lanes_.size() - 1);
  }
  void Span(uint32_t track, const char* name, sim::Tick start, sim::Tick end,
            uint64_t id) override {
    if (!lanes_[track].empty()) {
      spans.push_back({lanes_[track], name, start, end, id});
    }
  }
  void Instant(uint32_t, const char*, sim::Tick, uint64_t) override {}

  std::vector<Phase> spans;

 private:
  std::vector<std::string> lanes_;  // "" for lanes of other processes
};

// The phase spans are the record of where a distributed transaction's time
// went (bench_ext_phases reads nothing else): on its coordinator's lane,
// one span per phase, back to back, inside the transaction's own span. A
// local fast-path transaction emits none.
TEST(XenicPathsTest, DistributedTxnEmitsOneSpanPerPhase) {
  HashPartitioner part(3);
  XenicCluster c(Opts(), &part);
  const store::Key l1 = KeyOn(c, 0);
  const store::Key l2 = KeyOn(c, 0, 1);
  const store::Key a = KeyOn(c, 1);
  const store::Key r = KeyOn(c, 1, 1);
  const store::Key b = KeyOn(c, 2);
  for (store::Key k : {l1, l2, a, r, b}) {
    c.LoadReplicated(kBank, k, Balance(100));
  }
  c.StartWorkers();
  PhaseLaneSink sink;
  c.engine().set_trace(&sink);

  bool local_done = false;
  c.node(0).Submit(Transfer(l1, l2, 5), [&](TxnOutcome out) {
    EXPECT_EQ(out, TxnOutcome::kCommitted);
    local_done = true;
  });
  for (int i = 0; i < 1000 && !local_done; ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
  }
  ASSERT_TRUE(local_done);
  c.engine().RunFor(100 * sim::kNsPerUs);
  EXPECT_EQ(c.node(0).stats().local_fastpath, 1u);
  EXPECT_TRUE(sink.spans.empty());

  // Two remote shards (not shippable), and a read-only key for VALIDATE to
  // check.
  TxnRequest req = Transfer(a, b, 5);
  req.reads.push_back({kBank, r});
  bool done = false;
  const TxnId id = c.node(0).Submit(std::move(req), [&](TxnOutcome out) {
    EXPECT_EQ(out, TxnOutcome::kCommitted);
    done = true;
  });
  RunToDone(c, &done);
  c.engine().set_trace(nullptr);

  std::map<std::string, PhaseLaneSink::Phase> phases;
  for (const auto& span : sink.spans) {
    EXPECT_EQ(span.lane, "n0") << span.name;
    EXPECT_EQ(span.id, id) << span.name;
    EXPECT_TRUE(phases.emplace(span.name, span).second) << "second " << span.name << " span";
  }
  ASSERT_EQ(phases.size(), 4u);
  const auto& execute = phases.at("EXECUTE");
  const auto& validate = phases.at("VALIDATE");
  const auto& log = phases.at("LOG");
  const auto& txn = phases.at("txn");
  EXPECT_EQ(execute.start, txn.start);
  EXPECT_EQ(validate.start, execute.end);
  EXPECT_EQ(log.start, validate.end);
  EXPECT_EQ(log.end, txn.end);
  // Each phase here is a real round trip.
  for (const auto* phase : {&execute, &validate, &log}) {
    EXPECT_LT(phase->start, phase->end) << phase->name;
  }
}

}  // namespace
}  // namespace xenic::txn
