#include "src/store/nic_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace xenic::store {
namespace {

struct Fixture {
  explicit Fixture(uint16_t dm = 8, size_t value_size = 16, NicIndex::Options nic_opts = {}) {
    RobinhoodTable::Options o;
    o.capacity_log2 = 12;
    o.value_size = value_size;
    o.max_displacement = dm;
    host = std::make_unique<RobinhoodTable>(o);
    index = std::make_unique<NicIndex>(host.get(), nic_opts);
  }
  std::unique_ptr<RobinhoodTable> host;
  std::unique_ptr<NicIndex> index;
};

Value V(uint8_t fill, size_t n = 16) { return Value(n, fill); }

TEST(NicIndexTest, MissThenHit) {
  Fixture f;
  ASSERT_TRUE(f.host->Insert(10, V(3)).ok());
  f.index->SyncHintsFromHost();

  NicIndex::LookupStats s1;
  auto r1 = f.index->LookupRemote(10, &s1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->value, V(3));
  EXPECT_FALSE(s1.cache_hit);
  EXPECT_GE(s1.dma_reads, 1u);
  EXPECT_GT(s1.bytes_read, 0u);

  NicIndex::LookupStats s2;
  auto r2 = f.index->LookupRemote(10, &s2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE(s2.cache_hit);
  EXPECT_EQ(s2.dma_reads, 0u);
  EXPECT_EQ(r2->value, V(3));
}

TEST(NicIndexTest, AbsentKeyCostsReads) {
  Fixture f;
  NicIndex::LookupStats s;
  EXPECT_FALSE(f.index->LookupRemote(99, &s).has_value());
  EXPECT_GE(s.dma_reads, 1u);
  EXPECT_FALSE(s.found);
}

TEST(NicIndexTest, FreshHintSingleDmaRead) {
  Fixture f;
  Rng rng(1);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.Next();
    if (f.host->Insert(k, V(1)).ok()) {
      keys.push_back(k);
    }
  }
  f.index->SyncHintsFromHost();
  // With exact hints, table-resident keys need exactly one region DMA read;
  // only keys that spilled to overflow need a second (overflow page) read.
  uint64_t single = 0;
  uint64_t total = 0;
  for (Key k : keys) {
    NicIndex::LookupStats s;
    auto r = f.index->ReadMetadata(k, &s);
    ASSERT_TRUE(r.has_value());
    if (s.cache_hit) {
      continue;
    }
    total++;
    EXPECT_LE(s.dma_reads, 2u);
    if (s.dma_reads == 1) {
      single++;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(single) / total, 0.95);
}

TEST(NicIndexTest, StaleHintTriggersSecondRead) {
  Fixture f(/*dm=*/16);
  // Insert one key, sync hints, then pile inserts into the same segment
  // region to push displacements past the synced hint.
  ASSERT_TRUE(f.host->Insert(1000, V(1)).ok());
  f.index->SyncHintsFromHost();
  Rng rng(2);
  for (int i = 0; i < 3500; ++i) {
    f.host->Insert(rng.Next(), V(2));
  }
  // Lookups of keys displaced beyond (hint + k) need the second adjacent
  // read. Aggregate across many keys: at least some need 2 reads, all
  // succeed.
  uint64_t two_reads = 0;
  uint64_t lookups = 0;
  Rng rng2(2);
  // Re-derive the inserted keys (same sequence).
  std::vector<Key> keys;
  for (int i = 0; i < 3500; ++i) {
    keys.push_back(rng2.Next());
  }
  for (Key k : keys) {
    if (!f.host->Contains(k)) {
      continue;
    }
    NicIndex::LookupStats s;
    auto r = f.index->ReadMetadata(k, &s);
    if (s.cache_hit) {
      continue;
    }
    ASSERT_TRUE(r.has_value()) << "key " << k;
    lookups++;
    if (s.dma_reads >= 2) {
      two_reads++;
    }
  }
  ASSERT_GT(lookups, 1000u);
  EXPECT_GT(two_reads, 0u);
  // Second reads should be the minority: hints adapt as lookups discover
  // displacement growth.
  EXPECT_LT(static_cast<double>(two_reads) / lookups, 0.5);
}

TEST(NicIndexTest, OverflowKeyFoundViaOverflowRead) {
  Fixture f(/*dm=*/4);
  Rng rng(3);
  std::vector<Key> keys;
  for (int i = 0; i < 3600; ++i) {
    const Key k = rng.Next();
    if (f.host->Insert(k, V(1)).ok()) {
      keys.push_back(k);
    }
  }
  ASSERT_GT(f.host->overflow_size(), 0u);
  f.index->SyncHintsFromHost();
  for (Key k : keys) {
    NicIndex::LookupStats s;
    auto r = f.index->LookupRemote(k, &s);
    ASSERT_TRUE(r.has_value()) << k;
  }
}

TEST(NicIndexTest, LargeValueSecondHop) {
  Fixture f(/*dm=*/8, /*value_size=*/400);
  Value big(400, 0x7E);
  ASSERT_TRUE(f.host->Insert(5, big).ok());
  f.index->SyncHintsFromHost();
  NicIndex::LookupStats s;
  auto r = f.index->LookupRemote(5, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, big);
  EXPECT_EQ(s.dma_reads, 2u);  // region read + heap object read
  EXPECT_GE(s.bytes_read, 400u);
}

TEST(NicIndexTest, MissServesTheSlotsBlockPricedByLogicalSlotSize) {
  // The DMA read copies 24-byte slots, but its receipt prices the logical
  // slot (header + inline value, or header + pointer plus a second read of
  // the value), and the miss hands back, and caches, the slot's block.
  for (size_t value_size : {64, 312}) {
    Fixture f(/*dm=*/8, value_size);
    const Value v(value_size, 0x5A);
    ASSERT_TRUE(f.host->Insert(10, v).ok());
    f.index->SyncHintsFromHost();  // d_hint 0: a 2-slot first read
    NicIndex::LookupStats s;
    auto r = f.index->LookupRemote(10, &s);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(s.cache_hit);
    EXPECT_EQ(r->value.data(), v.data());
    const bool large = f.host->large_values();
    EXPECT_EQ(s.objects_read, 2u);
    EXPECT_EQ(s.dma_reads, large ? 2u : 1u);
    EXPECT_EQ(s.bytes_read, 2 * f.host->slot_size() + (large ? value_size : 0));
    const auto cached = f.index->CachedEntries();
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_EQ(cached[0].value->data(), v.data());
  }
}

TEST(NicIndexTest, LockAcquireConflictRelease) {
  Fixture f;
  const TxnId t1 = MakeTxnId(0, 1);
  const TxnId t2 = MakeTxnId(1, 1);
  EXPECT_TRUE(f.index->AcquireLock(7, t1).ok());
  EXPECT_TRUE(f.index->IsLocked(7));
  EXPECT_EQ(f.index->LockOwner(7), t1);
  EXPECT_EQ(f.index->AcquireLock(7, t2).code(), StatusCode::kAborted);
  // Re-acquire by the same owner is idempotent.
  EXPECT_TRUE(f.index->AcquireLock(7, t1).ok());
  f.index->ReleaseLock(7, t2);  // wrong owner: no-op
  EXPECT_TRUE(f.index->IsLocked(7));
  f.index->ReleaseLock(7, t1);
  EXPECT_FALSE(f.index->IsLocked(7));
  EXPECT_TRUE(f.index->AcquireLock(7, t2).ok());
  f.index->ReleaseLock(7, t2);
}

TEST(NicIndexTest, LockStateVisibleThroughLookup) {
  Fixture f;
  ASSERT_TRUE(f.host->Insert(10, V(1)).ok());
  f.index->SyncHintsFromHost();
  const TxnId t1 = MakeTxnId(0, 5);
  ASSERT_TRUE(f.index->AcquireLock(10, t1).ok());
  NicIndex::LookupStats s;
  auto r = f.index->LookupRemote(10, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lock_owner, t1);
}

TEST(NicIndexTest, ApplyCommitPinsUntilHostApplied) {
  Fixture f;
  ASSERT_TRUE(f.host->Insert(20, V(1)).ok());
  f.index->SyncHintsFromHost();
  f.index->ApplyCommit(20, V(9), 2);
  EXPECT_EQ(f.index->pinned_objects(), 1u);
  // The cache must serve the new value even though the host still has the
  // old one.
  NicIndex::LookupStats s;
  auto r = f.index->LookupRemote(20, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(s.cache_hit);
  EXPECT_EQ(r->value, V(9));
  EXPECT_EQ(r->seq, 2u);
  // Host applies; ack unpins.
  ASSERT_TRUE(f.host->Apply(20, V(9), 2).ok());
  const size_t seg = f.host->SegmentOfKey(20);
  f.index->OnHostApplied(20, f.host->SegmentMaxDisp(seg), f.host->SegmentHasOverflow(seg));
  EXPECT_EQ(f.index->pinned_objects(), 0u);
}

TEST(NicIndexTest, EvictionRespectsBudgetAndPins) {
  NicIndex::Options opts;
  opts.memory_budget = 2048;
  Fixture f(/*dm=*/8, /*value_size=*/64, opts);
  Rng rng(4);
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i) {
    const Key k = rng.Next();
    if (f.host->Insert(k, V(1, 64)).ok()) {
      keys.push_back(k);
    }
  }
  f.index->SyncHintsFromHost();
  // Pin one object via ApplyCommit.
  f.index->ApplyCommit(keys[0], V(2, 64), 2);
  for (Key k : keys) {
    f.index->LookupRemote(k, nullptr);
  }
  EXPECT_LE(f.index->cached_bytes(), opts.memory_budget + 256);
  EXPECT_GT(f.index->evictions(), 0u);
  // The pinned object survived the cache pressure.
  EXPECT_TRUE(f.index->IsCached(keys[0]));
  NicIndex::LookupStats s;
  auto r = f.index->LookupRemote(keys[0], &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, V(2, 64));
}

TEST(NicIndexTest, OverflowPositionsKeepPositionOrderUnderEviction) {
  // Six keys homed in segment 0 take its four inline ways and two overflow
  // positions; then a budget of six 16-byte objects (64 B each) makes every
  // admission evict one object. The expected victims and orders are a
  // hand-computed trace of the CLOCK hand, which walks positions in order
  // (inline ways, then overflow) from segment 0, skipping locked and
  // pinned objects and clearing set reference bits.
  NicIndex::Options opts;
  opts.memory_budget = 6 * 64;
  Fixture f(/*dm=*/8, /*value_size=*/16, opts);
  auto keys_in = [&](size_t segment, size_t n) {
    std::vector<Key> out;
    for (Key k = 0; out.size() < n; ++k) {
      if (f.host->SegmentOfKey(k) == segment) {
        out.push_back(k);
      }
    }
    return out;
  };
  const std::vector<Key> a = keys_in(0, 8);
  const std::vector<Key> b = keys_in(1, 5);
  NicIndex& index = *f.index;
  // Admits `key` and checks the eviction it causes, if any.
  auto admit = [&](Key key, uint8_t fill, std::optional<Key> victim) {
    const uint64_t before = index.evictions();
    index.AdmitOnLoad(key, V(fill), 1);
    EXPECT_EQ(index.evictions(), before + (victim ? 1 : 0)) << "admitting " << key;
    if (victim) {
      EXPECT_FALSE(index.IsCached(*victim)) << "admitting " << key;
    }
  };

  for (size_t i = 0; i < 6; ++i) {
    admit(a[i], static_cast<uint8_t>(i), std::nullopt);  // positions 0-5
  }
  ASSERT_TRUE(index.AcquireLock(a[1], 7).ok());
  index.ApplyCommit(a[2], V(20), 2);              // pinned, reference bit set
  ASSERT_TRUE(index.LookupRemote(a[3], nullptr).has_value());  // reference bit set

  admit(b[0], 30, a[0]);
  admit(b[1], 31, a[4]);  // skips locked a1, pinned a2, clears a3's bit
  admit(b[2], 32, a[5]);
  index.OnHostApplied(a[2], 0, false);
  admit(a[6], 6, b[0]);  // takes segment 0's first free position, 0
  admit(a[7], 7, b[1]);  // takes overflow position 4
  ASSERT_TRUE(index.AcquireLock(b[3], 9).ok());  // metadata only: 48 B
  // Ensure's make-room pass evicts b2; the admission then walks past the
  // rest of segment 1 and every empty segment back to a6.
  {
    const uint64_t before = index.evictions();
    index.AdmitOnLoad(b[4], V(34), 1);
    EXPECT_EQ(index.evictions(), before + 2);
    EXPECT_FALSE(index.IsCached(b[2]));
    EXPECT_FALSE(index.IsCached(a[6]));
  }

  EXPECT_EQ(index.evictions(), 7u);
  EXPECT_EQ(index.cached_objects(), 6u);
  EXPECT_EQ(index.cached_bytes(), 5u * 64 + 48);
  const std::vector<NicIndex::CachedEntry> cached = index.CachedEntries();
  const std::vector<Key> want_cached = {a[1], a[2], a[3], a[7], b[4]};
  ASSERT_EQ(cached.size(), want_cached.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].key, want_cached[i]) << i;
  }
  EXPECT_TRUE(cached[0].locked);
  EXPECT_EQ(*cached[1].value, V(20));
  EXPECT_EQ(cached[1].seq, 2u);
  EXPECT_FALSE(cached[1].pinned);
  const std::vector<NicIndex::LockedKey> locked = index.LockedKeys();
  ASSERT_EQ(locked.size(), 2u);
  EXPECT_EQ(locked[0].key, a[1]);
  EXPECT_EQ(locked[0].owner, 7u);
  EXPECT_EQ(locked[1].key, b[3]);
  EXPECT_EQ(locked[1].owner, 9u);
}

TEST(NicIndexTest, CacheDisabledNeverAdmits) {
  NicIndex::Options opts;
  opts.cache_values = false;
  Fixture f(/*dm=*/8, /*value_size=*/16, opts);
  ASSERT_TRUE(f.host->Insert(3, V(1)).ok());
  f.index->SyncHintsFromHost();
  for (int i = 0; i < 3; ++i) {
    NicIndex::LookupStats s;
    auto r = f.index->LookupRemote(3, &s);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(s.cache_hit);
    EXPECT_GE(s.dma_reads, 1u);
  }
}

TEST(NicIndexTest, HintUpdatesMonotoneAndCapped) {
  Fixture f(/*dm=*/8);
  f.index->UpdateHint(0, 5, false);
  EXPECT_EQ(f.index->HintOf(0), 5);
  f.index->UpdateHint(0, 3, false);
  EXPECT_EQ(f.index->HintOf(0), 5);
  f.index->UpdateHint(0, 100, true);
  EXPECT_EQ(f.index->HintOf(0), 8);  // capped at Dm
}

}  // namespace
}  // namespace xenic::store
