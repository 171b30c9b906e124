#include "src/store/commit_log.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// Appends `record`, its writes moved into the log.
Result<uint64_t> Add(CommitLog& log, LogRecord record) {
  return log.Append(record, &record.writes);
}

TEST(CommitLogTest, AppendAssignsMonotoneLsns) {
  CommitLog log;
  auto a = Add(log, MakeRecord(1, {1}));
  auto b = Add(log, MakeRecord(2, {2}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(log.pending(), 2u);
}

TEST(CommitLogTest, PeekPopOrder) {
  CommitLog log;
  Add(log, MakeRecord(1, {1}));
  Add(log, MakeRecord(2, {2}));
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
  Add(log, MakeRecord(1, {1}));
  Add(log, MakeRecord(2, {2}));
  log.PopApplied();
  log.PopApplied();
  log.Reclaim(1);
  EXPECT_EQ(log.unreclaimed(), 1u);
  log.Reclaim(2);
  EXPECT_EQ(log.unreclaimed(), 0u);
}

TEST(CommitLogTest, CapacityBackpressure) {
  CommitLog log(2);
  EXPECT_TRUE(Add(log, MakeRecord(1, {1})).ok());
  EXPECT_TRUE(Add(log, MakeRecord(2, {2})).ok());
  auto r = Add(log, MakeRecord(3, {3}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacity);
  // Apply + reclaim frees space.
  log.PopApplied();
  log.Reclaim(1);
  EXPECT_TRUE(Add(log, MakeRecord(3, {3})).ok());
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
  log.Append(r, &r.writes);
  const LogRecordView* p = log.Peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->type, LogRecordType::kCommit);
  EXPECT_EQ(p->txn, 42u);
  ASSERT_EQ(p->writes.size(), 1u);
  EXPECT_EQ(p->writes[0].table, 3);
  EXPECT_EQ(p->writes[0].key, 77u);
  EXPECT_EQ(p->writes[0].seq, 9u);
  EXPECT_EQ(p->writes[0].value, Value(4, 0xAB));
}

TEST(CommitLogTest, AppendMovesTheWritesAndKeepsTheBuffer) {
  // Append empties the caller's vector and leaves its capacity; AppendCopy
  // leaves the caller's writes as they were. A refused append moves
  // nothing.
  CommitLog log(2);
  std::vector<LogWrite> buf;
  buf.reserve(16);
  const Value v(8, 5);
  buf.push_back(LogWrite{0, 1, 2, v, false});
  buf.push_back(LogWrite{0, 2, 3, v, true});
  ASSERT_TRUE(log.Append(LogHeader{}, &buf).ok());
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), 16u);
  EXPECT_EQ(v.use_count(), 3u);
  buf.push_back(LogWrite{0, 3, 4, v, false});
  ASSERT_TRUE(log.AppendCopy(LogHeader{}, buf).ok());
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(v.use_count(), 5u);
  EXPECT_FALSE(log.Append(LogHeader{}, &buf).ok());
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(log.Record(0).writes.size(), 2u);
  EXPECT_EQ(log.Record(1).writes[0].key, 3u);
}

TEST(CommitLogTest, RingMatchesADequeReference) {
  // The ring against a deque of records, each with its own copy of its
  // writes: appends of 0 to 16 writes, applies and reclaims that wrap the
  // head many times, then growth while applied but unreclaimed records
  // are present, up to a capacity that is no power of two. Peek, the
  // lsns, every record's writes (key, seq, value bytes, is_delete) and
  // the recovery scan's view (Record) must agree throughout: the write
  // store wraps, skips its end and grows under them.
  struct Ref {
    TxnId txn;
    uint64_t lsn;
    std::vector<LogWrite> writes;
  };
  constexpr size_t kCapacity = 200;
  CommitLog log(kCapacity);
  std::deque<Ref> ref;
  size_t applied = 0;  // reference records at the front applied
  std::mt19937_64 rng(5);
  TxnId next_txn = 1;
  uint64_t next_lsn = 0;
  int refused = 0;
  size_t empty_records = 0;
  size_t full_records = 0;
  std::vector<LogWrite> buf;  // every record is built here
  auto same = [](const LogRecordView& got, const Ref& want) {
    if (got.txn != want.txn || got.lsn != want.lsn || got.writes.size() != want.writes.size()) {
      return false;
    }
    for (size_t j = 0; j < want.writes.size(); ++j) {
      const LogWrite& g = got.writes[j];
      const LogWrite& w = want.writes[j];
      if (g.table != w.table || g.key != w.key || g.seq != w.seq || g.is_delete != w.is_delete ||
          !std::equal(g.value.begin(), g.value.end(), w.value.begin(), w.value.end())) {
        return false;
      }
    }
    return true;
  };
  auto check = [&](int op) {
    const LogRecordView* head = log.Peek();
    ASSERT_EQ(head != nullptr, applied < ref.size()) << "op " << op;
    if (head != nullptr) {
      ASSERT_TRUE(same(*head, ref[applied])) << "op " << op;
    }
    ASSERT_EQ(log.unreclaimed(), ref.size()) << "op " << op;
    ASSERT_EQ(log.pending(), ref.size() - applied) << "op " << op;
    ASSERT_EQ(log.Full(), ref.size() >= kCapacity) << "op " << op;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(same(log.Record(i), ref[i])) << "op " << op << " record " << i;
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
      const size_t n = rng() % 17;
      buf.clear();
      for (size_t j = 0; j < n; ++j) {
        buf.push_back(LogWrite{static_cast<TableId>(rng() % 3), rng() % 1000,
                               static_cast<Seq>(rng() % 50), Value(1 + rng() % 40, rng() % 256),
                               rng() % 7 == 0});
      }
      LogHeader header;
      header.txn = txn;
      Ref want{txn, 0, buf};
      const bool copy = rng() % 4 == 0;
      const size_t buf_capacity = buf.capacity();
      const Result<uint64_t> lsn = copy ? log.AppendCopy(header, buf) : log.Append(header, &buf);
      ASSERT_EQ(lsn.ok(), ref.size() < kCapacity) << "op " << op;
      if (lsn.ok()) {
        ASSERT_EQ(*lsn, next_lsn++) << "op " << op;
        ASSERT_EQ(buf.size(), copy ? n : 0) << "op " << op;
        ASSERT_EQ(buf.capacity(), buf_capacity) << "op " << op;
        want.lsn = *lsn;
        ref.push_back(std::move(want));
        empty_records += n == 0 ? 1 : 0;
        full_records += n == 16 ? 1 : 0;
      } else {
        ASSERT_EQ(buf.size(), n) << "op " << op;
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
  EXPECT_GT(empty_records, 100u);
  EXPECT_GT(full_records, 100u);
}

TEST(CommitLogTest, ReclaimReleasesTheRecordsValues) {
  // A reclaimed record's slot stays in the ring until an append reuses it,
  // but the record's values are released at once, as the deque's pop did:
  // a value still shared with a dead record would make the next in-place
  // write copy it.
  CommitLog log;
  const Value v(8, 3);
  for (int i = 0; i < 100; ++i) {
    LogRecord rec;
    rec.writes.push_back(LogWrite{0, static_cast<Key>(i), 1, v, false});
    ASSERT_TRUE(log.Append(rec, &rec.writes).ok());
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
