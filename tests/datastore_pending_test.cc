// Tests for the Datastore pending-writes index: host-local reads must
// observe committed-but-unapplied log writes (read-your-log), LOG records
// must NOT leak into local reads, and application clears entries. The
// flat PendingIndex underneath is checked against a reference map.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "src/store/datastore.h"
#include "src/store/pending_index.h"

namespace xenic::store {
namespace {

std::vector<TableSpec> OneTable() { return {TableSpec{0, "t", 10, 16, 8, 8}}; }

// One step of the log drain at the head of `ds`'s log: the store step,
// then pop and reclaim.
ApplyOutcome ApplyHead(Datastore& ds) {
  const LogRecordView* rec = ds.log().Peek();
  EXPECT_NE(rec, nullptr);
  const uint64_t lsn = rec->lsn;
  const ApplyOutcome out = ds.ApplyLogRecord(*rec, /*stability_gate=*/false);
  ds.log().PopApplied();
  ds.log().Reclaim(lsn + 1);
  return out;
}

LogRecord CommitRecord(TxnId txn, Key key, Seq seq, uint8_t fill) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = txn;
  rec.writes.push_back(LogWrite{0, key, seq, Value(16, fill), false});
  return rec;
}

// Appends `record` to `ds`, its writes moved into the log.
Result<uint64_t> Add(Datastore& ds, LogRecord record) {
  return ds.Append(record, &record.writes);
}

TEST(DatastorePendingTest, FreshLookupSeesUnappliedCommit) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  ASSERT_TRUE(Add(ds, CommitRecord(100, 1, 2, 9)).ok());

  // Table still has the old value; FreshLookup sees the pending commit.
  EXPECT_EQ(ds.table(0).Lookup(1)->seq, 1u);
  auto fresh = ds.FreshLookup(0, 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->seq, 2u);
  EXPECT_EQ(fresh->value, Value(16, 9));
  EXPECT_EQ(ds.FreshSeq(0, 1).value(), 2u);

  // Worker applies; pending entry clears; both views agree.
  EXPECT_EQ(ApplyHead(ds), ApplyOutcome::kApplied);
  EXPECT_EQ(ds.pending_writes(), 0u);
  EXPECT_EQ(ds.table(0).Lookup(1)->seq, 2u);
  EXPECT_EQ(ds.FreshSeq(0, 1).value(), 2u);
}

TEST(DatastorePendingTest, LogRecordsDoNotLeakIntoLocalReads) {
  // A backup-replication LOG record must not change the local view: local
  // transactions never read backup state.
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  LogRecord rec = CommitRecord(100, 1, 2, 9);
  rec.type = LogRecordType::kLog;
  ASSERT_TRUE(ds.Append(rec, &rec.writes).ok());
  EXPECT_EQ(ds.pending_writes(), 0u);
  EXPECT_EQ(ds.FreshSeq(0, 1).value(), 1u);
}

TEST(DatastorePendingTest, NewestOfStackedCommitsWins) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 7, Value(16, 1)).ok());
  ASSERT_TRUE(Add(ds, CommitRecord(100, 7, 2, 2)).ok());
  ASSERT_TRUE(Add(ds, CommitRecord(101, 7, 3, 3)).ok());
  EXPECT_EQ(ds.FreshSeq(0, 7).value(), 3u);
  EXPECT_EQ(ds.FreshLookup(0, 7)->value, Value(16, 3));
  // Apply in order; the freshest view never regresses.
  ApplyHead(ds);
  EXPECT_EQ(ds.FreshSeq(0, 7).value(), 3u);
  ApplyHead(ds);
  EXPECT_EQ(ds.FreshSeq(0, 7).value(), 3u);
  EXPECT_EQ(ds.table(0).GetSeq(7).value(), 3u);
  EXPECT_EQ(ds.pending_writes(), 0u);
}

TEST(DatastorePendingTest, PendingDeleteHidesKey) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 5, Value(16, 1)).ok());
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = 1;
  rec.writes.push_back(LogWrite{0, 5, 0, Value{}, true});
  ASSERT_TRUE(ds.Append(rec, &rec.writes).ok());
  EXPECT_FALSE(ds.FreshLookup(0, 5).has_value());
  EXPECT_FALSE(ds.FreshSeq(0, 5).has_value());
  EXPECT_TRUE(ds.table(0).Contains(5));  // not applied yet
  ApplyHead(ds);
  EXPECT_FALSE(ds.table(0).Contains(5));
}

TEST(DatastorePendingTest, PendingInsertVisibleBeforeApply) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(Add(ds, CommitRecord(100, 42, 1, 7)).ok());
  auto fresh = ds.FreshLookup(0, 42);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->value, Value(16, 7));
  EXPECT_FALSE(ds.table(0).Contains(42));
  ApplyHead(ds);
  EXPECT_TRUE(ds.table(0).Contains(42));
}

TEST(DatastorePendingTest, WorkloadManagedWritesSkipped) {
  Datastore ds(OneTable(), {});
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = 1;
  rec.writes.push_back(LogWrite{200, 1, 1, Value(8, 1), false});  // table id 200
  ASSERT_TRUE(ds.Append(rec, &rec.writes).ok());
  EXPECT_EQ(ds.pending_writes(), 0u);
}

// Random pushes and erases -- stacked writes, two writes of one key in one
// record, erases of records out of log order (tombstones), growth, and
// erases that shift probe runs back -- against a map of per-key vectors.
TEST(PendingIndexTest, MatchesAReferenceMap) {
  struct Ref {
    uint64_t lsn;
    Seq seq;
  };
  std::map<uint64_t, std::vector<Ref>> ref;
  PendingIndex index;
  std::mt19937_64 rng(7);
  uint64_t next_lsn = 0;
  for (int op = 0; op < 200000; ++op) {
    // Few keys early on, so runs collide and shift; more later, so the
    // table grows through several doublings.
    const uint64_t key = rng() % (op < 100000 ? 64 : 4096);
    const uint64_t roll = rng() % 10;
    if (roll < 5) {
      const uint64_t lsn = next_lsn++;
      const int copies = roll == 0 ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        const Seq seq = static_cast<Seq>(rng());
        index.Push(key, PendingIndex::Write{lsn, seq, Value(8, 1), false});
        ref[key].push_back(Ref{lsn, seq});
      }
    } else if (roll < 9) {
      auto it = ref.find(key);
      uint64_t lsn = next_lsn;  // matches nothing
      if (it != ref.end()) {
        // Usually the oldest (log order), sometimes any (a tombstone).
        lsn = roll < 8 ? it->second.front().lsn
                       : it->second[rng() % it->second.size()].lsn;
        std::erase_if(it->second, [lsn](const Ref& r) { return r.lsn == lsn; });
        if (it->second.empty()) {
          ref.erase(it);
        }
      }
      index.Erase(key, lsn);
    }
    const uint64_t probe = rng() % 4096;
    const PendingIndex::Write* w = index.Newest(probe);
    auto it = ref.find(probe);
    ASSERT_EQ(w != nullptr, it != ref.end()) << "op " << op << " key " << probe;
    if (w != nullptr) {
      ASSERT_EQ(w->lsn, it->second.back().lsn) << "op " << op;
      ASSERT_EQ(w->seq, it->second.back().seq) << "op " << op;
    }
    ASSERT_EQ(index.size(), ref.size()) << "op " << op;
  }
  // Every key the reference holds is still reachable.
  for (const auto& [key, writes] : ref) {
    const PendingIndex::Write* w = index.Newest(key);
    ASSERT_NE(w, nullptr) << key;
    EXPECT_EQ(w->lsn, writes.back().lsn);
  }
}

}  // namespace
}  // namespace xenic::store
