#include "src/store/datastore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

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
  ASSERT_TRUE(ds.log().Append(rec, &rec.writes).ok());
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

TEST(DatastoreTest, ReplayedLogRecordNeverMovesAKeyBackwards) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  LogRecord older;
  older.type = LogRecordType::kLog;
  older.txn = MakeTxnId(1, 1);
  older.writes.push_back(LogWrite{0, 1, 2, Value(16, 2), false});
  LogRecord newer = older;
  newer.txn = MakeTxnId(1, 2);
  newer.writes[0] = LogWrite{0, 1, 3, Value(16, 3), false};
  ASSERT_EQ(ds.ApplyLogRecord(newer, /*stability_gate=*/false), ApplyOutcome::kApplied);
  // A newer COMMIT pins its cached copy until its own record applies.
  ds.index(0).ApplyCommit(1, Value(16, 4), 4);
  ASSERT_EQ(ds.index(0).pinned_objects(), 1u);

  for (const LogRecord* replay : {&older, &newer}) {
    EXPECT_EQ(ds.ApplyLogRecord(*replay, /*stability_gate=*/false), ApplyOutcome::kApplied);
    EXPECT_EQ(ds.table(0).Lookup(1)->value, Value(16, 3));
    EXPECT_EQ(ds.table(0).GetSeq(1).value(), 3u);
    EXPECT_EQ(ds.index(0).pinned_objects(), 1u);
  }
  // The replay is still recorded as applied (recovery's receipt evidence).
  EXPECT_EQ(ds.AppliedShardsOf(older.txn).size(), 1u);
}

TEST(DatastoreTest, TombstonedLogRecordKeepsTheCommitPin) {
  Datastore ds(TwoTables(), {});
  ASSERT_TRUE(ds.Load(0, 1, Value(16, 1)).ok());
  LogRecord aborted;
  aborted.type = LogRecordType::kLog;
  aborted.txn = MakeTxnId(1, 1);
  aborted.writes.push_back(LogWrite{0, 1, 2, Value(16, 2), false});
  ds.TombstoneTxn(aborted.txn);
  // The key's current COMMIT pins its cached copy until its record applies.
  ds.index(0).ApplyCommit(1, Value(16, 3), 2);
  EXPECT_EQ(ds.ApplyLogRecord(aborted, /*stability_gate=*/false), ApplyOutcome::kDropped);
  EXPECT_EQ(ds.index(0).pinned_objects(), 1u);
  EXPECT_EQ(ds.index(0).CachedSeq(1), 2u);

  // A tombstoned COMMIT record took that pin itself: dropping it unpins.
  LogRecord commit = aborted;
  commit.type = LogRecordType::kCommit;
  EXPECT_EQ(ds.ApplyLogRecord(commit, /*stability_gate=*/false), ApplyOutcome::kDropped);
  EXPECT_EQ(ds.index(0).pinned_objects(), 0u);
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

TEST(DatastoreTest, AppliedIndexMatchesAReferenceSet) {
  // 200k notes against an ordered map from (txn, shard) to the pair's
  // first total_shards. Few transactions early on, so notes repeat and several
  // shards of one transaction share a probe run; ids then spread over
  // every node's sequence space, so the table grows through several
  // doublings and unrelated transactions collide.
  struct Ref {
    TxnId txn;
    NodeId shard;
    bool operator<(const Ref& o) const {
      return txn != o.txn ? txn < o.txn : shard < o.shard;
    }
  };
  std::map<Ref, uint32_t> ref;
  Datastore ds(TwoTables(), {});
  std::mt19937_64 rng(11);
  auto draw_txn = [&rng](int op) {
    const uint64_t seqs = op < 50000 ? 64 : 1 << 20;
    return MakeTxnId(static_cast<NodeId>(rng() % 6), 1 + rng() % seqs);
  };
  for (int op = 0; op < 200000; ++op) {
    const TxnId txn = draw_txn(op);
    const NodeId shard = static_cast<NodeId>(rng() % 6);
    const uint32_t total = 1 + static_cast<uint32_t>(rng() % 6);
    ds.NoteLogApplied(txn, shard, total);
    ref.emplace(Ref{txn, shard}, total);  // keeps the first total_shards

    const TxnId probe = op % 2 == 0 ? txn : draw_txn(op);
    std::vector<NodeId> want;
    uint32_t want_total = 0;
    for (auto it = ref.lower_bound(Ref{probe, 0}); it != ref.end() && it->first.txn == probe;
         ++it) {
      want.push_back(it->first.shard);
      want_total = std::max(want_total, it->second);
    }
    uint32_t got_total = 0;
    ASSERT_EQ(ds.AppliedShardsOf(probe, &got_total), want) << "op " << op;
    ASSERT_EQ(got_total, want_total) << "op " << op;
  }
  // Every transaction the reference holds is still reachable.
  for (auto it = ref.begin(); it != ref.end();) {
    const TxnId txn = it->first.txn;
    std::vector<NodeId> want;
    for (; it != ref.end() && it->first.txn == txn; ++it) {
      want.push_back(it->first.shard);
    }
    ASSERT_EQ(ds.AppliedShardsOf(txn), want) << txn;
  }
  EXPECT_TRUE(ds.AppliedShardsOf(MakeTxnId(7, 1)).empty());
}

}  // namespace
}  // namespace xenic::store
