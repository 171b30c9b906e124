// Property-style tests: the Robinhood table against a std::unordered_map
// oracle under random churn, across a parameter sweep of displacement
// limits, value sizes, and occupancies.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/common/rng.h"
#include "src/store/robinhood_table.h"

namespace xenic::store {
namespace {

// No padding: gtest prints a parameter's raw bytes into the test's listed
// name, and padding bytes would make that name differ from build to build.
struct ChurnParam {
  uint64_t dm;  // a uint16_t Dm, widened to fill the slot
  size_t value_size;
  double occupancy;
};

class RobinhoodChurnTest : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(RobinhoodChurnTest, MatchesOracleUnderChurn) {
  const ChurnParam p = GetParam();
  RobinhoodTable::Options o;
  o.capacity_log2 = 10;
  o.value_size = p.value_size;
  o.max_displacement = static_cast<uint16_t>(p.dm);
  RobinhoodTable t(o);
  std::unordered_map<Key, std::pair<Value, Seq>> oracle;
  Rng rng(1234 + p.dm);
  const size_t target = static_cast<size_t>(p.occupancy * t.capacity());

  auto random_value = [&] {
    Value v(p.value_size);
    for (auto& b : v) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return v;
  };

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    if (oracle.size() < target && roll < 0.5) {
      // Insert a fresh key.
      Key k = rng.Next();
      while (oracle.count(k) != 0) {
        k = rng.Next();
      }
      Value v = random_value();
      ASSERT_TRUE(t.Insert(k, v).ok());
      oracle[k] = {v, 1};
    } else if (!oracle.empty() && roll < 0.7) {
      // Update a random existing key.
      auto it = oracle.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBounded(oracle.size()) % 32));
      Value v = random_value();
      ASSERT_TRUE(t.Update(it->first, v).ok());
      it->second.first = v;
      it->second.second++;
    } else if (!oracle.empty() && roll < 0.9) {
      // Erase a random existing key.
      auto it = oracle.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBounded(oracle.size()) % 32));
      ASSERT_TRUE(t.Erase(it->first).ok());
      oracle.erase(it);
    } else {
      // Negative lookup.
      Key k = rng.Next();
      if (oracle.count(k) == 0) {
        EXPECT_FALSE(t.Lookup(k).has_value());
      }
    }

    if (step % 1000 == 999) {
      // Full oracle audit.
      ASSERT_EQ(t.size(), oracle.size());
      for (const auto& [k, vs] : oracle) {
        auto r = t.Lookup(k);
        ASSERT_TRUE(r.has_value()) << "lost key " << k << " at step " << step;
        ASSERT_EQ(r->value, vs.first);
        ASSERT_EQ(r->seq, vs.second);
      }
    }
  }
}

TEST_P(RobinhoodChurnTest, InvariantSurvivesChurn) {
  const ChurnParam p = GetParam();
  RobinhoodTable::Options o;
  o.capacity_log2 = 9;
  o.value_size = p.value_size;
  o.max_displacement = static_cast<uint16_t>(p.dm);
  RobinhoodTable t(o);
  Rng rng(99 + p.dm);
  std::vector<Key> live;
  const size_t target = static_cast<size_t>(p.occupancy * t.capacity());

  auto check_invariant = [&] {
    std::vector<uint8_t> region;
    t.ReadRegion(0, t.capacity(), region);
    const size_t mask = t.capacity() - 1;
    for (size_t s = 0; s < t.capacity(); ++s) {
      SlotView view = t.ViewInRegion(region, s);
      if (!view.occupied()) {
        continue;
      }
      const size_t home = (s - view.disp()) & mask;
      ASSERT_EQ(home, t.HomeSlot(view.key()));
      for (size_t d = 0; d < view.disp(); ++d) {
        SlotView path = t.ViewInRegion(region, (home + d) & mask);
        ASSERT_TRUE(path.occupied());
        ASSERT_GE(path.disp(), d);
      }
    }
  };

  for (int step = 0; step < 4000; ++step) {
    if (live.size() < target && rng.NextBool(0.6)) {
      const Key k = rng.Next();
      if (t.Insert(k, Value(p.value_size, 1)).ok()) {
        live.push_back(k);
      }
    } else if (!live.empty()) {
      const size_t i = rng.NextBounded(live.size());
      ASSERT_TRUE(t.Erase(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 200 == 199) {
      check_invariant();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RobinhoodChurnTest,
    ::testing::Values(ChurnParam{4, 8, 0.5}, ChurnParam{8, 8, 0.85}, ChurnParam{8, 64, 0.9},
                      ChurnParam{16, 16, 0.9}, ChurnParam{32, 8, 0.93}, ChurnParam{0, 8, 0.9},
                      ChurnParam{8, 300, 0.8}),
    [](const ::testing::TestParamInfo<ChurnParam>& info) {
      return "dm" + std::to_string(info.param.dm) + "_v" + std::to_string(info.param.value_size) +
             "_occ" + std::to_string(static_cast<int>(info.param.occupancy * 100));
    });

}  // namespace
}  // namespace xenic::store
