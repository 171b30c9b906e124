#include "src/store/datastore.h"

#include <gtest/gtest.h>

namespace xenic::store {
namespace {

std::vector<TableSpec> TwoTables() {
  return {
      TableSpec{0, "accounts", 10, 16, 8, 8},
      TableSpec{1, "profiles", 10, 300, 8, 8},  // large values
  };
}

TEST(DatastoreTest, LoadAndLocalRead) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 7)).ok());
  auto r = ds.table(0).Lookup(1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, Value(16, 7));
}

TEST(DatastoreTest, LoadSyncsNicHints) {
  NicIndex::Options no;
  no.admit_on_load = false;
  Datastore ds(TwoTables(), no);
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 7)).ok());
  // NIC lookup must succeed with hints set at load time.
  NicIndex::LookupStats s;
  auto r = ds.index(0).LookupRemote(1, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, Value(16, 7));
  EXPECT_EQ(s.dma_reads, 1u);
}

TEST(DatastoreTest, LoadWarmsNicCacheByDefault) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 7)).ok());
  NicIndex::LookupStats s;
  auto r = ds.index(0).LookupRemote(1, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(s.cache_hit);
  EXPECT_EQ(s.dma_reads, 0u);
}

TEST(DatastoreTest, ApplyLogRecordUpdatesTables) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  // The primary NIC's commit pins its cached copy until the host applies.
  ds.index(0).ApplyCommit(1, Value(16, 9), 2);
  ASSERT_EQ(ds.index(0).pinned_objects(), 1u);
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = MakeTxnId(0, 1);
  rec.writes.push_back(LogWrite{0, 1, 2, Value(16, 9), false});
  rec.writes.push_back(LogWrite{0, 55, 1, Value(16, 3), false});  // insert
  ASSERT_TRUE(ds.log().Append(rec).ok());
  EXPECT_EQ(ds.ApplyLogRecord(*ds.log().Peek(), /*stability_gate=*/false),
            ApplyOutcome::kApplied);
  EXPECT_EQ(ds.table(0).Lookup(1)->value, Value(16, 9));
  EXPECT_EQ(ds.table(0).GetSeq(1).value(), 2u);
  EXPECT_EQ(ds.table(0).Lookup(55)->value, Value(16, 3));
  // The apply acks the NIC: the pin is released, and the hints stay good
  // enough for a one-DMA remote read of the inserted key.
  EXPECT_EQ(ds.index(0).pinned_objects(), 0u);
  NicIndex::LookupStats s;
  auto r = ds.index(0).LookupRemote(55, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, Value(16, 3));
  EXPECT_EQ(s.dma_reads, 1u);
}

TEST(DatastoreTest, ApplyDeleteRemovesKey) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 7, Value(16, 1)).ok());
  LogRecord rec;
  rec.writes.push_back(LogWrite{0, 7, 0, Value{}, true});
  EXPECT_EQ(ds.ApplyLogRecord(rec, /*stability_gate=*/false), ApplyOutcome::kApplied);
  EXPECT_FALSE(ds.table(0).Contains(7));
}

TEST(DatastoreTest, LargeValueTableRoundTrip) {
  NicIndex::Options no;
  no.admit_on_load = false;
  Datastore ds(TwoTables(), no);
  Value big(300, 0x5A);
  ASSERT_TRUE(ds.Load(1, 99, big).ok());
  NicIndex::LookupStats s;
  auto r = ds.index(1).LookupRemote(99, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, big);
  EXPECT_EQ(s.dma_reads, 2u);
}

}  // namespace
}  // namespace xenic::store
