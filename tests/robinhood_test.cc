#include "src/store/robinhood_table.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace xenic::store {
namespace {

RobinhoodTable::Options SmallOpts(size_t cap_log2 = 10, size_t value_size = 16,
                                  uint16_t dm = 8) {
  RobinhoodTable::Options o;
  o.capacity_log2 = cap_log2;
  o.value_size = value_size;
  o.max_displacement = dm;
  o.segment_slots = 8;
  return o;
}

Value V(uint8_t fill, size_t n = 16) { return Value(n, fill); }

TEST(RobinhoodTest, InsertLookup) {
  RobinhoodTable t(SmallOpts());
  EXPECT_TRUE(t.Insert(42, V(7)).ok());
  auto r = t.Lookup(42);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, V(7));
  EXPECT_EQ(r->seq, 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RobinhoodTest, MissingKeyNotFound) {
  RobinhoodTable t(SmallOpts());
  EXPECT_FALSE(t.Lookup(42).has_value());
  EXPECT_FALSE(t.GetSeq(42).has_value());
}

TEST(RobinhoodTest, DuplicateInsertRejected) {
  RobinhoodTable t(SmallOpts());
  ASSERT_TRUE(t.Insert(1, V(1)).ok());
  EXPECT_EQ(t.Insert(1, V(2)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.Lookup(1)->value, V(1));
}

TEST(RobinhoodTest, UpdateBumpsVersion) {
  RobinhoodTable t(SmallOpts());
  ASSERT_TRUE(t.Insert(1, V(1)).ok());
  ASSERT_TRUE(t.Update(1, V(9)).ok());
  auto r = t.Lookup(1);
  EXPECT_EQ(r->value, V(9));
  EXPECT_EQ(r->seq, 2u);
}

TEST(RobinhoodTest, UpdateMissingFails) {
  RobinhoodTable t(SmallOpts());
  EXPECT_EQ(t.Update(5, V(1)).code(), StatusCode::kNotFound);
}

TEST(RobinhoodTest, ApplySetsExplicitSeq) {
  RobinhoodTable t(SmallOpts());
  ASSERT_TRUE(t.Apply(1, V(1), 17).ok());
  EXPECT_EQ(t.GetSeq(1).value(), 17u);
  ASSERT_TRUE(t.Apply(1, V(2), 18).ok());
  EXPECT_EQ(t.GetSeq(1).value(), 18u);
  EXPECT_EQ(t.Lookup(1)->value, V(2));
}

TEST(RobinhoodTest, EraseRemovesKey) {
  RobinhoodTable t(SmallOpts());
  ASSERT_TRUE(t.Insert(1, V(1)).ok());
  ASSERT_TRUE(t.Erase(1).ok());
  EXPECT_FALSE(t.Lookup(1).has_value());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Erase(1).code(), StatusCode::kNotFound);
}

TEST(RobinhoodTest, ManyKeysAllFindable) {
  RobinhoodTable t(SmallOpts(12, 16, 16));
  const size_t n = static_cast<size_t>(0.9 * t.capacity());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(i * 977 + 13, V(static_cast<uint8_t>(i))).ok()) << i;
  }
  EXPECT_EQ(t.size(), n);
  for (size_t i = 0; i < n; ++i) {
    auto r = t.Lookup(i * 977 + 13);
    ASSERT_TRUE(r.has_value()) << i;
    EXPECT_EQ(r->value[0], static_cast<uint8_t>(i));
  }
}

TEST(RobinhoodTest, DisplacementInvariantHolds) {
  // After a heavy load, every table element's probe path must satisfy
  // disp(t) >= t - home for all slots t on the path (the invariant the
  // deletion logic relies on).
  RobinhoodTable t(SmallOpts(12, 8, 16));
  Rng rng(3);
  const size_t n = static_cast<size_t>(0.9 * t.capacity());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(rng.Next(), V(1, 8)).ok());
  }
  std::vector<uint8_t> region;
  t.ReadRegion(0, t.capacity(), region);
  for (size_t s = 0; s < t.capacity(); ++s) {
    SlotView view = t.ViewInRegion(region, s);
    if (!view.occupied()) {
      continue;
    }
    const size_t home = (s - view.disp()) & (t.capacity() - 1);
    EXPECT_EQ(home, t.HomeSlot(view.key()));
    EXPECT_LT(view.disp(), t.max_displacement());
    for (size_t d = 0; d < view.disp(); ++d) {
      SlotView path = t.ViewInRegion(region, (home + d) & (t.capacity() - 1));
      ASSERT_TRUE(path.occupied()) << "hole in probe path";
      ASSERT_GE(path.disp(), d) << "robinhood invariant violated";
    }
  }
}

TEST(RobinhoodTest, OverflowUsedWhenDisplacementLimited) {
  RobinhoodTable t(SmallOpts(10, 8, 4));  // tight Dm forces overflow
  Rng rng(4);
  const size_t n = static_cast<size_t>(0.9 * t.capacity());
  std::vector<Key> keys;
  for (size_t i = 0; i < n; ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, V(static_cast<uint8_t>(i), 8)).ok());
    keys.push_back(k);
  }
  EXPECT_GT(t.overflow_size(), 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto r = t.Lookup(keys[i]);
    ASSERT_TRUE(r.has_value()) << i;
    EXPECT_EQ(r->value[0], static_cast<uint8_t>(i));
  }
}

TEST(RobinhoodTest, UpdateAndEraseInOverflow) {
  RobinhoodTable t(SmallOpts(10, 8, 4));
  Rng rng(5);
  std::vector<Key> keys;
  for (size_t i = 0; i < static_cast<size_t>(0.9 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, V(1, 8)).ok());
    keys.push_back(k);
  }
  ASSERT_GT(t.overflow_size(), 0u);
  // Find a key that lives in overflow: probe all keys and test update/erase
  // still works for each (covers both locations).
  for (Key k : keys) {
    ASSERT_TRUE(t.Update(k, V(2, 8)).ok());
  }
  for (Key k : keys) {
    ASSERT_TRUE(t.Erase(k).ok());
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.overflow_size(), 0u);
}

TEST(RobinhoodTest, SegmentHintsUpperBoundActualDisp) {
  RobinhoodTable t(SmallOpts(12, 8, 16));
  Rng rng(6);
  for (size_t i = 0; i < static_cast<size_t>(0.85 * t.capacity()); ++i) {
    ASSERT_TRUE(t.Insert(rng.Next(), V(1, 8)).ok());
  }
  std::vector<uint8_t> region;
  t.ReadRegion(0, t.capacity(), region);
  for (size_t s = 0; s < t.capacity(); ++s) {
    SlotView view = t.ViewInRegion(region, s);
    if (!view.occupied()) {
      continue;
    }
    const size_t seg = t.SegmentOfKey(view.key());
    EXPECT_GE(t.SegmentMaxDisp(seg), view.disp());
  }
}

TEST(RobinhoodTest, TightenHintsMatchesActual) {
  RobinhoodTable t(SmallOpts(12, 8, 16));
  Rng rng(7);
  std::vector<Key> keys;
  for (size_t i = 0; i < static_cast<size_t>(0.8 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, V(1, 8)).ok());
    keys.push_back(k);
  }
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(t.Erase(keys[i]).ok());
  }
  t.TightenHints();
  // After tightening, hints must still upper-bound actual displacements.
  std::vector<uint8_t> region;
  t.ReadRegion(0, t.capacity(), region);
  for (size_t s = 0; s < t.capacity(); ++s) {
    SlotView view = t.ViewInRegion(region, s);
    if (view.occupied()) {
      EXPECT_GE(t.SegmentMaxDisp(t.SegmentOfKey(view.key())), view.disp());
    }
  }
}

TEST(RobinhoodTest, ReadRegionWrapsAround) {
  RobinhoodTable t(SmallOpts(6, 8, 8));  // 64 slots
  std::vector<uint8_t> region;
  t.ReadRegion(60, 8, region);
  EXPECT_EQ(region.size(), 8 * t.slot_size());
}

TEST(RobinhoodTest, FindInRegionLocatesKey) {
  RobinhoodTable t(SmallOpts());
  ASSERT_TRUE(t.Insert(123, V(9)).ok());
  const size_t home = t.HomeSlot(123);
  std::vector<uint8_t> region;
  t.ReadRegion(home, t.max_displacement(), region);
  auto off = t.FindInRegion(region, home, 123);
  ASSERT_TRUE(off.has_value());
  SlotView view = t.ViewInRegion(region, *off);
  EXPECT_EQ(view.key(), 123u);
  EXPECT_EQ(t.DecodeValue(view), V(9));
}

TEST(RobinhoodTest, LargeValuesIndirectThroughHeap) {
  RobinhoodTable t(SmallOpts(10, 600, 8));
  EXPECT_TRUE(t.large_values());
  EXPECT_EQ(t.slot_size(), sizeof(SlotHeader) + 8);
  Value big(600, 0xAB);
  ASSERT_TRUE(t.Insert(5, big).ok());
  EXPECT_EQ(t.Lookup(5)->value, big);
  EXPECT_EQ(t.heap().live_objects(), 1u);
  Value big2(600, 0xCD);
  ASSERT_TRUE(t.Update(5, big2).ok());
  EXPECT_EQ(t.Lookup(5)->value, big2);
  EXPECT_EQ(t.heap().live_objects(), 1u);
  ASSERT_TRUE(t.Erase(5).ok());
  EXPECT_EQ(t.heap().live_objects(), 0u);
}

TEST(RobinhoodTest, LargeValuesHeapHoldsExactlyTheTableSlots) {
  // With Dm = 2 many inserts overflow, some directly (no resident to swap
  // with) and some by displacing a resident. Overflowed objects keep their
  // value in the bucket, so the heap holds one object per table slot.
  RobinhoodTable t(SmallOpts(8, 300, 2));
  Rng rng(3);
  while (t.size() < 200) {
    (void)t.Insert(rng.Next(), V(static_cast<uint8_t>(t.size()), 300));
  }
  ASSERT_GT(t.overflow_size(), 0u);
  EXPECT_EQ(t.heap().live_objects(), t.size() - t.overflow_size());
  EXPECT_EQ(t.heap().live_bytes(), 300u * (t.size() - t.overflow_size()));
}

TEST(RobinhoodTest, LargeValueVisibleThroughRegionRead) {
  RobinhoodTable t(SmallOpts(10, 600, 8));
  Value big(600, 0x11);
  ASSERT_TRUE(t.Insert(77, big).ok());
  const size_t home = t.HomeSlot(77);
  std::vector<uint8_t> region;
  t.ReadRegion(home, t.max_displacement(), region);
  auto off = t.FindInRegion(region, home, 77);
  ASSERT_TRUE(off.has_value());
  SlotView view = t.ViewInRegion(region, *off);
  EXPECT_TRUE(view.large_value());
  EXPECT_EQ(t.heap().Get(view.large_handle()), big);
}

TEST(RobinhoodTest, UnlimitedDisplacementNeverOverflows) {
  RobinhoodTable::Options o = SmallOpts(12, 8, 0);  // Dm = unlimited
  RobinhoodTable t(o);
  Rng rng(8);
  for (size_t i = 0; i < static_cast<size_t>(0.95 * t.capacity()); ++i) {
    ASSERT_TRUE(t.Insert(rng.Next(), V(1, 8)).ok());
  }
  EXPECT_EQ(t.overflow_size(), 0u);
}

TEST(RobinhoodTest, DmaConsistentSwapNeverLosesKeys) {
  // At every intermediate step of every insert's swap chain, all
  // previously inserted keys must be findable in (table region + overflow)
  // — the property a concurrent DMA read depends on.
  RobinhoodTable t(SmallOpts(8, 8, 6));  // small + tight to force swaps
  Rng rng(9);
  std::vector<Key> inserted;
  uint64_t checks = 0;
  t.set_swap_step_hook([&] {
    std::vector<uint8_t> region;
    t.ReadRegion(0, t.capacity(), region);
    for (Key k : inserted) {
      bool found = t.FindInRegion(region, 0, k).has_value();
      if (!found) {
        for (size_t seg = 0; seg < t.num_segments() && !found; ++seg) {
          for (const auto& e : t.ReadOverflow(seg)) {
            if (e.key == k) {
              found = true;
              break;
            }
          }
        }
      }
      ASSERT_TRUE(found) << "key " << k << " invisible mid-swap";
      checks++;
    }
  });
  for (size_t i = 0; i < static_cast<size_t>(0.9 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, V(1, 8)).ok());
    inserted.push_back(k);
  }
  EXPECT_GT(t.total_swaps(), 0u);
  EXPECT_GT(checks, 0u);
}

TEST(RobinhoodTest, SwapsReduceProbeVariance) {
  // Sanity on the Robinhood property itself: with balancing, max
  // displacement stays far below a plain linear-probing table's worst case.
  RobinhoodTable t(SmallOpts(14, 8, 0));
  Rng rng(10);
  for (size_t i = 0; i < static_cast<size_t>(0.9 * t.capacity()); ++i) {
    ASSERT_TRUE(t.Insert(rng.Next(), V(1, 8)).ok());
  }
  uint16_t max_disp = 0;
  std::vector<uint8_t> region;
  t.ReadRegion(0, t.capacity(), region);
  for (size_t s = 0; s < t.capacity(); ++s) {
    SlotView view = t.ViewInRegion(region, s);
    if (view.occupied()) {
      max_disp = std::max(max_disp, view.disp());
    }
  }
  // Robinhood at 90% keeps max displacement small (tens, not hundreds).
  EXPECT_LT(max_disp, 64);
  EXPECT_GT(t.total_swaps(), 0u);
}

}  // namespace
}  // namespace xenic::store


namespace xenic::store {
namespace {

TEST(RobinhoodDeletionTest, OverflowPullInFillsHole) {
  // Craft a table where deletion can pull an overflow element back into
  // the freed slot: tight Dm, dense segment.
  RobinhoodTable::Options o;
  o.capacity_log2 = 8;
  o.value_size = 8;
  o.max_displacement = 4;
  o.segment_slots = 8;
  RobinhoodTable t(o);
  Rng rng(77);
  std::vector<Key> keys;
  for (size_t i = 0; i < static_cast<size_t>(0.92 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, Value(8, static_cast<uint8_t>(i))).ok());
    keys.push_back(k);
  }
  ASSERT_GT(t.overflow_size(), 0u);
  const size_t overflow_before = t.overflow_size();

  // Delete table-resident keys until an overflow pull-in happens (the
  // overflow population shrinks without an explicit overflow-key erase).
  bool pulled = false;
  for (Key k : keys) {
    // Skip keys currently in overflow (their erase reduces overflow too,
    // but via the direct path) -- detect via region scan.
    const size_t home = t.HomeSlot(k);
    std::vector<uint8_t> region;
    t.ReadRegion(home, t.max_displacement(), region);
    if (!t.FindInRegion(region, home, k).has_value()) {
      continue;  // overflow-resident
    }
    ASSERT_TRUE(t.Erase(k).ok());
    if (t.overflow_size() < overflow_before) {
      pulled = true;
      break;
    }
  }
  EXPECT_TRUE(pulled) << "no deletion pulled an overflow element back";
  // All remaining keys still findable.
  size_t found = 0;
  for (Key k : keys) {
    found += t.Contains(k) ? 1 : 0;
  }
  EXPECT_EQ(found, t.size());
}

TEST(RobinhoodDeletionTest, BackwardShiftPreservesLookups) {
  RobinhoodTable::Options o;
  o.capacity_log2 = 10;
  o.value_size = 8;
  o.max_displacement = 0;  // unlimited: only backward shifts on delete
  RobinhoodTable t(o);
  Rng rng(88);
  std::vector<Key> keys;
  for (size_t i = 0; i < static_cast<size_t>(0.9 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k, Value(8, 1)).ok());
    keys.push_back(k);
  }
  // Delete every third key; all others must remain findable.
  std::vector<Key> remaining;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(t.Erase(keys[i]).ok());
    } else {
      remaining.push_back(keys[i]);
    }
  }
  for (Key k : remaining) {
    ASSERT_TRUE(t.Contains(k)) << k;
  }
  EXPECT_EQ(t.size(), remaining.size());
}

}  // namespace
}  // namespace xenic::store
