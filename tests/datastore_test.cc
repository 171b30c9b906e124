#include "src/store/datastore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
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

// Transaction ids of every shape the marks key on. Before op 50,000,
// MakeTxnId's ids of six coordinators over 64 sequences, so marks repeat;
// then ids spread over 2^20 sequences (64 pages), sequences about the
// first page boundaries and just under 2^40, and raw ids whose
// coordinator bits are all zeros or all ones.
TxnId DrawTxnId(std::mt19937_64& rng, int op) {
  const auto node = static_cast<NodeId>(rng() % 6);
  if (op < 50000) {
    return MakeTxnId(node, 1 + rng() % 64);
  }
  switch (rng() % 5) {
    case 0:
      return MakeTxnId(node, 1 + rng() % (1 << 20));
    case 1:
      return MakeTxnId(node, kTxnPageSeqs * (1 + rng() % 3) - 50 + rng() % 100);
    case 2:
      return MakeTxnId(node, (uint64_t{1} << 40) - 1 - rng() % 40000);
    case 3:
      return 1 + rng() % 100000;
    default:
      return ~TxnId{0} - rng() % 100000;
  }
}

TEST(DatastoreTest, AppliedIndexMatchesAReferenceSet) {
  // 200k notes against an ordered map from (txn, shard) to the pair's
  // first total_shards, over DrawTxnId's ids. Shards are mostly six, so
  // a page's planes spill past the inline ones, and now and then one past
  // 32; totals are mostly 1-6, and now and then about 255, a byte's reach.
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
  for (int op = 0; op < 200000; ++op) {
    const TxnId txn = DrawTxnId(rng, op);
    const NodeId shard = static_cast<NodeId>(rng() % 8 == 0 ? 33 + rng() % 1000 : rng() % 6);
    const auto total = static_cast<uint32_t>(rng() % 64 == 0 ? 245 + rng() % 20 : 1 + rng() % 6);
    ds.NoteLogApplied(txn, shard, total);
    ref.emplace(Ref{txn, shard}, total);  // keeps the first total_shards

    const TxnId probe = op % 2 == 0 ? txn : DrawTxnId(rng, op);
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

TEST(TxnSetTest, MatchesAReferenceSet) {
  // 200k inserts against a std::set over DrawTxnId's ids, each checking
  // the first-time answer, the inserted id and another id.
  std::set<TxnId> ref;
  TxnSet set;
  std::mt19937_64 rng(5);
  for (int op = 0; op < 200000; ++op) {
    const TxnId txn = DrawTxnId(rng, op);
    ASSERT_EQ(set.Insert(txn), ref.insert(txn).second) << "op " << op;
    ASSERT_TRUE(set.Contains(txn)) << "op " << op;
    const TxnId probe = DrawTxnId(rng, op);
    ASSERT_EQ(set.Contains(probe), ref.count(probe) > 0) << "op " << op;
  }
  for (TxnId txn : ref) {
    ASSERT_TRUE(set.Contains(txn)) << txn;
  }
  EXPECT_FALSE(set.Contains(MakeTxnId(7, 1)));
  EXPECT_FALSE(set.Contains(kNoTxn));

  // A page answers only for its own sequences: the same slot one page
  // before, between or after two sparse pages is not in the set.
  TxnSet sparse;
  ASSERT_TRUE(sparse.Insert(MakeTxnId(1, 3 * kTxnPageSeqs + 5)));
  ASSERT_TRUE(sparse.Insert(MakeTxnId(1, 7 * kTxnPageSeqs + 5)));
  for (uint64_t page : {0, 2, 4, 6, 8}) {
    EXPECT_FALSE(sparse.Contains(MakeTxnId(1, page * kTxnPageSeqs + 5))) << page;
  }
  EXPECT_TRUE(sparse.Contains(MakeTxnId(1, 7 * kTxnPageSeqs + 5)));
}

}  // namespace
}  // namespace xenic::store
