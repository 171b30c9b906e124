#include "src/store/alt_hash.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace xenic::store {
namespace {

TEST(HopscotchTest, InsertLookup) {
  HopscotchTable t({.capacity_log2 = 10, .neighborhood = 8});
  ASSERT_TRUE(t.Insert(42, 5).ok());
  RemoteLookupStats s;
  auto r = t.RemoteLookup(42, &s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 5u);
  EXPECT_EQ(s.roundtrips, 1u);
  EXPECT_EQ(s.objects_read, 8u);
}

TEST(HopscotchTest, DuplicateRejected) {
  HopscotchTable t({.capacity_log2 = 8});
  ASSERT_TRUE(t.Insert(1).ok());
  EXPECT_EQ(t.Insert(1).code(), StatusCode::kAlreadyExists);
}

TEST(HopscotchTest, HighOccupancyAllFindable) {
  HopscotchTable t({.capacity_log2 = 14, .neighborhood = 8});
  Rng rng(1);
  std::vector<Key> keys;
  const size_t n = static_cast<size_t>(0.9 * t.capacity());
  for (size_t i = 0; i < n; ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k).ok());
    keys.push_back(k);
  }
  EXPECT_EQ(t.size(), n);
  for (Key k : keys) {
    RemoteLookupStats s;
    ASSERT_TRUE(t.RemoteLookup(k, &s).has_value());
    EXPECT_LE(s.roundtrips, 2u);
  }
}

TEST(HopscotchTest, OverflowCausesSecondRoundtrip) {
  HopscotchTable t({.capacity_log2 = 12, .neighborhood = 8});
  Rng rng(2);
  std::vector<Key> keys;
  for (size_t i = 0; i < static_cast<size_t>(0.92 * t.capacity()); ++i) {
    const Key k = rng.Next();
    ASSERT_TRUE(t.Insert(k).ok());
    keys.push_back(k);
  }
  EXPECT_GT(t.overflow_size(), 0u);
  uint64_t total_rt = 0;
  for (Key k : keys) {
    RemoteLookupStats s;
    ASSERT_TRUE(t.RemoteLookup(k, &s).has_value());
    total_rt += s.roundtrips;
  }
  // Mean roundtrips slightly above 1 (paper: 1.04 at 90%).
  const double mean_rt = static_cast<double>(total_rt) / keys.size();
  EXPECT_GT(mean_rt, 1.0);
  EXPECT_LT(mean_rt, 1.5);
}

TEST(HopscotchTest, MissingKeyCounted) {
  HopscotchTable t({.capacity_log2 = 8});
  RemoteLookupStats s;
  EXPECT_FALSE(t.RemoteLookup(123, &s).has_value());
  EXPECT_FALSE(s.found);
  EXPECT_EQ(s.roundtrips, 1u);
}

}  // namespace
}  // namespace xenic::store
