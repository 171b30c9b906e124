#include "src/store/commit_log.h"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <vector>

namespace xenic::store {
namespace {

LogRecord MakeRecord(TxnId txn, std::vector<Key> keys) {
  LogRecord r;
  r.type = LogRecordType::kLog;
  r.txn = txn;
  for (Key k : keys) {
    r.writes.push_back(LogWrite{0, k, 1, Value(8, 1), false});
  }
  return r;
}

TEST(CommitLogTest, AppendAssignsMonotoneLsns) {
  CommitLog log;
  auto a = log.Append(MakeRecord(1, {1}));
  auto b = log.Append(MakeRecord(2, {2}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(log.pending(), 2u);
}

TEST(CommitLogTest, PeekPopOrder) {
  CommitLog log;
  log.Append(MakeRecord(1, {1}));
  log.Append(MakeRecord(2, {2}));
  ASSERT_NE(log.Peek(), nullptr);
  EXPECT_EQ(log.Peek()->txn, 1u);
  log.PopApplied();
  EXPECT_EQ(log.Peek()->txn, 2u);
  log.PopApplied();
  EXPECT_EQ(log.Peek(), nullptr);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.unreclaimed(), 2u);
}

TEST(CommitLogTest, ReclaimFreesApplied) {
  CommitLog log;
  log.Append(MakeRecord(1, {1}));
  log.Append(MakeRecord(2, {2}));
  log.PopApplied();
  log.PopApplied();
  log.Reclaim(1);
  EXPECT_EQ(log.unreclaimed(), 1u);
  log.Reclaim(2);
  EXPECT_EQ(log.unreclaimed(), 0u);
}

TEST(CommitLogTest, CapacityBackpressure) {
  CommitLog log(2);
  EXPECT_TRUE(log.Append(MakeRecord(1, {1})).ok());
  EXPECT_TRUE(log.Append(MakeRecord(2, {2})).ok());
  auto r = log.Append(MakeRecord(3, {3}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacity);
  // Apply + reclaim frees space.
  log.PopApplied();
  log.Reclaim(1);
  EXPECT_TRUE(log.Append(MakeRecord(3, {3})).ok());
}

TEST(CommitLogTest, ByteSizeCountsWrites) {
  LogRecord r = MakeRecord(1, {1, 2, 3});
  EXPECT_EQ(r.ByteSize(), 24 + 3 * (24 + 8));
}

TEST(CommitLogTest, RecordContentsPreserved) {
  CommitLog log;
  LogRecord r;
  r.type = LogRecordType::kCommit;
  r.txn = 42;
  r.writes.push_back(LogWrite{3, 77, 9, Value(4, 0xAB), false});
  log.Append(std::move(r));
  const LogRecord* p = log.Peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->type, LogRecordType::kCommit);
  EXPECT_EQ(p->txn, 42u);
  ASSERT_EQ(p->writes.size(), 1u);
  EXPECT_EQ(p->writes[0].table, 3);
  EXPECT_EQ(p->writes[0].key, 77u);
  EXPECT_EQ(p->writes[0].seq, 9u);
  EXPECT_EQ(p->writes[0].value, Value(4, 0xAB));
}

TEST(CommitLogTest, RingMatchesADequeReference) {
  // The ring against a deque of (txn, lsn): appends, applies and reclaims
  // that wrap the head many times, then growth while applied but
  // unreclaimed records are present, up to a capacity that is no power of
  // two. Peek, the lsns, Snapshot's order and Full must agree throughout.
  struct Ref {
    TxnId txn;
    uint64_t lsn;
  };
  constexpr size_t kCapacity = 200;
  CommitLog log(kCapacity);
  std::deque<Ref> ref;
  size_t applied = 0;  // reference records at the front applied
  std::mt19937_64 rng(5);
  TxnId next_txn = 1;
  uint64_t next_lsn = 0;
  int refused = 0;
  auto check = [&](int op) {
    const LogRecord* head = log.Peek();
    ASSERT_EQ(head != nullptr, applied < ref.size()) << "op " << op;
    if (head != nullptr) {
      ASSERT_EQ(head->txn, ref[applied].txn) << "op " << op;
      ASSERT_EQ(head->lsn, ref[applied].lsn) << "op " << op;
    }
    ASSERT_EQ(log.unreclaimed(), ref.size()) << "op " << op;
    ASSERT_EQ(log.pending(), ref.size() - applied) << "op " << op;
    ASSERT_EQ(log.Full(), ref.size() >= kCapacity) << "op " << op;
    const std::vector<LogRecord> snap = log.Snapshot();
    ASSERT_EQ(snap.size(), ref.size()) << "op " << op;
    for (size_t i = 0; i < snap.size(); ++i) {
      ASSERT_EQ(snap[i].txn, ref[i].txn) << "op " << op << " record " << i;
      ASSERT_EQ(snap[i].lsn, ref[i].lsn) << "op " << op << " record " << i;
      ASSERT_EQ(snap[i].writes.size(), 1u) << "op " << op << " record " << i;
    }
  };
  for (int op = 0; op < 20000; ++op) {
    // The first half keeps the backlog under 12 records, so the ring stays
    // at its first 16 slots and wraps; the second half lets it build up,
    // growing the ring past applied-but-unreclaimed records to capacity.
    const size_t backlog_cap = op < 10000 ? 12 : kCapacity + 10;
    const uint64_t roll = rng() % 10;
    if (roll < 5 && ref.size() < backlog_cap) {
      const TxnId txn = next_txn++;
      const Result<uint64_t> lsn = log.Append(MakeRecord(txn, {txn}));
      ASSERT_EQ(lsn.ok(), ref.size() < kCapacity) << "op " << op;
      if (lsn.ok()) {
        ASSERT_EQ(*lsn, next_lsn++) << "op " << op;
        ref.push_back(Ref{txn, *lsn});
      } else {
        refused++;
      }
    } else if (roll < 8) {
      if (applied < ref.size()) {
        log.PopApplied();
        applied++;
      }
    } else if (applied > 0) {
      // Reclaim part of the applied prefix, sometimes all of it.
      const size_t n = 1 + rng() % applied;
      log.Reclaim(ref[n - 1].lsn + 1);
      ref.erase(ref.begin(), ref.begin() + static_cast<ptrdiff_t>(n));
      applied -= n;
    }
    check(op);
  }
  EXPECT_EQ(log.appended(), next_lsn);
  EXPECT_GT(refused, 0) << "the run must reach capacity";
}

TEST(CommitLogTest, ReclaimReleasesTheRecordsValues) {
  // A reclaimed record's slot stays in the ring until an append reuses it,
  // but the record's values are released at once, as the deque's pop did:
  // a value still shared with a dead record would make the next in-place
  // write copy it. With the spare pool full, the write vector goes too.
  CommitLog log;
  const Value v(8, 3);
  for (int i = 0; i < 100; ++i) {
    LogRecord rec;
    rec.writes.push_back(LogWrite{0, static_cast<Key>(i), 1, v, false});
    ASSERT_TRUE(log.Append(std::move(rec)).ok());
  }
  EXPECT_EQ(v.use_count(), 101u);
  for (int i = 0; i < 100; ++i) {
    log.PopApplied();
  }
  log.Reclaim(100);
  EXPECT_EQ(v.use_count(), 1u);
  EXPECT_EQ(log.unreclaimed(), 0u);
}

}  // namespace
}  // namespace xenic::store
