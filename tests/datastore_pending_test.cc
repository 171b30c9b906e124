// Tests for the Datastore pending-writes index: host-local reads must
// observe committed-but-unapplied log writes (read-your-log), LOG records
// must NOT leak into local reads, and application clears entries.

#include <gtest/gtest.h>

#include "src/store/datastore.h"

namespace xenic::store {
namespace {

std::vector<TableSpec> OneTable() { return {TableSpec{0, "t", 10, 16, 8, 8}}; }

// One step of the log drain at the head of `ds`'s log: the store step,
// then pop and reclaim.
ApplyOutcome ApplyHead(Datastore& ds) {
  const LogRecord* rec = ds.log().Peek();
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

TEST(DatastorePendingTest, FreshLookupSeesUnappliedCommit) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  ASSERT_TRUE(ds.Append(CommitRecord(100, 1, 2, 9)).ok());

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
  ASSERT_TRUE(ds.Append(std::move(rec)).ok());
  EXPECT_EQ(ds.pending_writes(), 0u);
  EXPECT_EQ(ds.FreshSeq(0, 1).value(), 1u);
}

TEST(DatastorePendingTest, NewestOfStackedCommitsWins) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Load(0, 7, Value(16, 1)).ok());
  ASSERT_TRUE(ds.Append(CommitRecord(100, 7, 2, 2)).ok());
  ASSERT_TRUE(ds.Append(CommitRecord(101, 7, 3, 3)).ok());
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
  ASSERT_TRUE(ds.Append(std::move(rec)).ok());
  EXPECT_FALSE(ds.FreshLookup(0, 5).has_value());
  EXPECT_FALSE(ds.FreshSeq(0, 5).has_value());
  EXPECT_TRUE(ds.table(0).Contains(5));  // not applied yet
  ApplyHead(ds);
  EXPECT_FALSE(ds.table(0).Contains(5));
}

TEST(DatastorePendingTest, PendingInsertVisibleBeforeApply) {
  Datastore ds(OneTable(), {});
  ASSERT_TRUE(ds.Append(CommitRecord(100, 42, 1, 7)).ok());
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
  ASSERT_TRUE(ds.Append(std::move(rec)).ok());
  EXPECT_EQ(ds.pending_writes(), 0u);
}

}  // namespace
}  // namespace xenic::store
