#include "src/store/robinhood_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

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
  EXPECT_EQ(region.size(), 8 * sizeof(Slot));
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
  EXPECT_EQ(view.value(), V(9));
}

TEST(RobinhoodTest, LargeValuesIndirectThroughHeap) {
  // A large value's slot stands for an 8-byte pointer to its heap block:
  // the table holds one reference to the block it was given, an update
  // swaps that reference for the new block's, and an erase drops it.
  RobinhoodTable t(SmallOpts(10, 600, 8));
  EXPECT_TRUE(t.large_values());
  EXPECT_EQ(t.slot_size(), sizeof(SlotHeader) + 8);
  Value big(600, 0xAB);
  ASSERT_TRUE(t.Insert(5, big).ok());
  EXPECT_EQ(t.Lookup(5)->value, big);
  EXPECT_EQ(t.Lookup(5)->value.data(), big.data());
  EXPECT_EQ(big.use_count(), 2u);
  Value big2(600, 0xCD);
  ASSERT_TRUE(t.Update(5, big2).ok());
  EXPECT_EQ(t.Lookup(5)->value, big2);
  EXPECT_EQ(big.use_count(), 1u);
  EXPECT_EQ(big2.use_count(), 2u);
  ASSERT_TRUE(t.Erase(5).ok());
  EXPECT_EQ(big2.use_count(), 1u);
}

TEST(RobinhoodTest, LargeValuesHeapHoldsExactlyTheTableSlots) {
  // With Dm = 2 many inserts overflow, some directly (no resident to swap
  // with) and some by displacing a resident. However often swaps moved an
  // object, the table holds its block once, in its slot or in its overflow
  // entry, and the table slots hold size() - overflow_size() of them.
  RobinhoodTable t(SmallOpts(8, 300, 2));
  Rng rng(3);
  std::vector<Value> values;
  while (t.size() < 200) {
    const Value v = V(static_cast<uint8_t>(t.size()), 300);
    if (t.Insert(rng.Next(), v).ok()) {
      values.push_back(v);
    }
  }
  ASSERT_GT(t.overflow_size(), 0u);
  for (const Value& v : values) {
    EXPECT_EQ(v.use_count(), 2u);
  }
  std::vector<uint8_t> region;
  t.ReadRegion(0, t.capacity(), region);
  size_t in_slots = 0;
  size_t bytes = 0;
  for (size_t s = 0; s < t.capacity(); ++s) {
    const SlotView view = t.ViewInRegion(region, s);
    if (view.occupied()) {
      EXPECT_TRUE(view.large_value());
      in_slots++;
      bytes += view.value().size();
    }
  }
  EXPECT_EQ(in_slots, t.size() - t.overflow_size());
  EXPECT_EQ(bytes, 300u * (t.size() - t.overflow_size()));
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
  EXPECT_EQ(view.value(), big);
  EXPECT_EQ(view.value().data(), big.data());
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
  // with the value they were written with (each key's value holds the key)
  // -- the property a concurrent DMA read depends on. The inserts checked
  // include ones whose swap chain ends by displacing a resident to
  // overflow.
  RobinhoodTable t(SmallOpts(8, 8, 6));  // small + tight to force swaps
  Rng rng(9);
  std::vector<Key> inserted;
  uint64_t checks = 0;
  t.set_swap_step_hook([&] {
    std::vector<uint8_t> region;
    t.ReadRegion(0, t.capacity(), region);
    for (Key k : inserted) {
      std::optional<Value> value;
      if (auto off = t.FindInRegion(region, 0, k)) {
        value = t.ViewInRegion(region, *off).value();
      } else {
        for (const auto& e : t.ReadOverflow(t.SegmentOfKey(k))) {
          if (e.key == k) {
            value = e.value;
          }
        }
      }
      ASSERT_TRUE(value.has_value()) << "key " << k << " invisible mid-swap";
      ASSERT_EQ(GetU64(*value, 0), k);
      checks++;
    }
  });
  uint64_t checks_in_overflow_chains = 0;
  for (size_t i = 0; i < static_cast<size_t>(0.9 * t.capacity()); ++i) {
    const Key k = rng.Next();
    Value v(8, 0);
    PutU64(v, 0, k);
    const uint64_t checks_before = checks;
    const uint64_t swaps_before = t.total_swaps();
    const size_t overflow_before = t.overflow_size();
    ASSERT_TRUE(t.Insert(k, v).ok());
    if (t.overflow_size() > overflow_before && t.total_swaps() > swaps_before) {
      checks_in_overflow_chains += checks - checks_before;
    }
    inserted.push_back(k);
  }
  EXPECT_GT(t.total_swaps(), 0u);
  EXPECT_GT(checks, 0u);
  EXPECT_GT(checks_in_overflow_chains, 0u);
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

// --- Handle slots: a slot is a header and a Value handle that owns one
// reference to the object's block. ---

TEST(RobinhoodSlotTest, StrideIsAHeaderAndAHandleAndSlotSizeStaysLogical) {
  // {value_size, slot_size()}: the logical slot every DMA cost reads is
  // the header plus the inline value, or plus an 8-byte pointer above
  // kInlineValueLimit; the copied slot is 24 bytes either way.
  const std::pair<size_t, size_t> cases[] = {{12, 28}, {64, 80}, {104, 120}, {312, 24}};
  for (const auto& [value_size, slot_size] : cases) {
    RobinhoodTable t(SmallOpts(6, value_size, 8));
    EXPECT_EQ(t.slot_size(), slot_size) << value_size;
    std::vector<uint8_t> region;
    t.ReadRegion(62, 5, region);  // wraps
    EXPECT_EQ(region.size(), 5 * 24u) << value_size;
    EXPECT_EQ(RobinhoodTable::RegionSlots(region), 5u) << value_size;
  }
}

TEST(RobinhoodSlotTest, TableHoldsOneReferencePerObject) {
  // Tight Dm: inserts swap, displace residents to overflow, and erases pull
  // overflow entries back or shift slots backward. Through all of it the
  // table holds each stored value's block exactly once.
  auto t = std::make_unique<RobinhoodTable>(SmallOpts(8, 16, 3));
  Rng rng(22);
  std::vector<Key> keys;
  std::vector<Value> values;
  auto in_overflow = [&](Key k) {
    for (const auto& e : t->ReadOverflow(t->SegmentOfKey(k))) {
      if (e.key == k) {
        return true;
      }
    }
    return false;
  };
  size_t displaced = 0;
  while (keys.size() < static_cast<size_t>(0.85 * t->capacity())) {
    const Key k = rng.Next();
    const uint64_t swaps_before = t->total_swaps();
    const size_t overflow_before = t->overflow_size();
    values.push_back(V(static_cast<uint8_t>(keys.size())));
    ASSERT_TRUE(t->Insert(k, values.back()).ok());
    keys.push_back(k);
    if (t->overflow_size() > overflow_before && t->total_swaps() > swaps_before) {
      displaced++;  // a resident left its slot for overflow
    }
    for (const Value& v : values) {
      ASSERT_EQ(v.use_count(), 2u);  // the test's copy and the table's
    }
  }
  ASSERT_GT(displaced, 0u);
  // An in-place update swaps the table's reference to the new block.
  const Value updated = V(0xEE);
  ASSERT_TRUE(t->Update(keys[0], updated).ok());
  EXPECT_EQ(values[0].use_count(), 1u);
  EXPECT_EQ(updated.use_count(), 2u);
  // Erases release the erased key's reference and keep the others'.
  size_t pulled = 0;
  for (size_t i = 1; i < keys.size(); i += 2) {
    const bool from_slot = !in_overflow(keys[i]);
    const size_t overflow_before = t->overflow_size();
    ASSERT_TRUE(t->Erase(keys[i]).ok());
    if (from_slot && t->overflow_size() < overflow_before) {
      pulled++;  // an overflow entry moved into the hole
    }
    EXPECT_EQ(values[i].use_count(), 1u);
  }
  EXPECT_GT(pulled, 0u);
  for (size_t i = 2; i < keys.size(); i += 2) {
    EXPECT_EQ(values[i].use_count(), 2u);
  }
  // Destroying the table releases every reference it still held.
  t.reset();
  for (const Value& v : values) {
    EXPECT_EQ(v.use_count(), 1u);
  }
  EXPECT_EQ(updated.use_count(), 1u);
}

TEST(RobinhoodSlotTest, InlineTablesStoreValueSizeBytesInSlotsAndOverflowAlike) {
  // Dm = 1 sends the second of two keys with one home slot to overflow.
  RobinhoodTable t(SmallOpts(4, 16, 1));
  const Key a = 1;
  Key b = 2;
  while (t.HomeSlot(b) != t.HomeSlot(a)) {
    b++;
  }
  ASSERT_TRUE(t.Insert(a, V(1)).ok());
  ASSERT_TRUE(t.Insert(b, V(2)).ok());
  ASSERT_EQ(t.overflow_size(), 1u);  // b
  auto expect_stored = [&](Key k, const Value& given) {
    const Value stored = t.Lookup(k)->value;
    ASSERT_EQ(stored.size(), 16u);
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(stored[i], i < given.size() ? given[i] : 0) << "key " << k << " byte " << i;
    }
    if (given.size() == 16) {
      EXPECT_EQ(stored.data(), given.data());  // shared, not copied
    }
  };
  const Value small(5, 0x22);
  ASSERT_TRUE(t.Insert(1000, small).ok());
  expect_stored(1000, small);
  for (Key k : {a, b}) {
    const Value exact(16, 0x33);
    ASSERT_TRUE(t.Update(k, exact).ok());
    expect_stored(k, exact);
    const Value shorter(5, 0x44);  // zero-padded, not the old tail
    ASSERT_TRUE(t.Apply(k, shorter, 9).ok());
    expect_stored(k, shorter);
    const Value longer(40, 0x55);  // truncated
    ASSERT_TRUE(t.Update(k, longer).ok());
    expect_stored(k, longer);
    ASSERT_TRUE(t.Update(k, Value()).ok());
    expect_stored(k, Value());
  }
  // A large-value table shares every value as given.
  RobinhoodTable large(SmallOpts(4, 300, 1));
  const Value odd(500, 0x66);
  ASSERT_TRUE(large.Insert(a, odd).ok());
  ASSERT_TRUE(large.Insert(b, odd).ok());
  ASSERT_EQ(large.overflow_size(), 1u);
  for (Key k : {a, b}) {
    EXPECT_EQ(large.Lookup(k)->value.data(), odd.data());
  }
}

}  // namespace
}  // namespace xenic::store
