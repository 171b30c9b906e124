// Property tests for the NIC caching index under host-table churn: remote
// lookups must always find every live key regardless of hint staleness,
// hints must remain upper bounds after refresh, and cost receipts must stay
// bounded. Parameterized over displacement limits and cache budgets.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/store/nic_index.h"

namespace xenic::store {
namespace {

struct Param {
  uint16_t dm;
  uint64_t budget;
  bool cache_values;
};

std::string Name(const Param& p) {
  return "dm" + std::to_string(p.dm) + "_budget" + std::to_string(p.budget / 1024) + "k" +
         (p.cache_values ? "_cached" : "_meta");
}

// Without a PrintTo gtest prints the parameter's raw bytes, padding
// included, into the ctest name, so the name would vary by build and run.
void PrintTo(const Param& p, std::ostream* os) { *os << Name(p); }

class NicIndexChurnTest : public ::testing::TestWithParam<Param> {};

TEST_P(NicIndexChurnTest, LookupsCompleteUnderChurn) {
  const Param p = GetParam();
  RobinhoodTable::Options o;
  o.capacity_log2 = 11;
  o.value_size = 24;
  o.max_displacement = p.dm;
  RobinhoodTable host(o);
  NicIndex::Options no;
  no.memory_budget = p.budget;
  no.cache_values = p.cache_values;
  no.admit_on_load = false;
  NicIndex index(&host, no);

  Rng rng(1000 + p.dm);
  std::vector<Key> live;
  const auto target = static_cast<size_t>(0.85 * static_cast<double>(host.capacity()));
  uint64_t lookups = 0;
  uint64_t max_reads = 0;

  for (int step = 0; step < 30000; ++step) {
    const double roll = rng.NextDouble();
    if (live.size() < target && roll < 0.45) {
      const Key k = rng.Next();
      Value v(24, static_cast<uint8_t>(k));
      if (host.Insert(k, v).ok()) {
        live.push_back(k);
      }
    } else if (!live.empty() && roll < 0.6) {
      const size_t i = rng.NextBounded(live.size());
      // Updates bump the version; the NIC's cached copy goes stale and the
      // metadata path must still return the HOST's view when uncached...
      // (in the full system the commit protocol keeps them coherent; here
      // we emulate host-side maintenance, so drop the cached copy first).
      host.Update(live[i], Value(24, static_cast<uint8_t>(step)));
    } else if (!live.empty() && roll < 0.7) {
      const size_t i = rng.NextBounded(live.size());
      ASSERT_TRUE(host.Erase(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    } else if (!live.empty()) {
      // Remote lookup of a random live key: must be found.
      const Key k = live[rng.NextBounded(live.size())];
      // The cache is not maintained by a commit protocol in this test, so
      // only consult the host structure (metadata reads bypass values).
      NicIndex::LookupStats st;
      std::optional<NicIndex::RemoteObject> r;
      if (p.cache_values) {
        // Cached values may be stale relative to direct host Update()
        // calls (no protocol here), but the key must still be FOUND.
        r = index.LookupRemote(k, &st);
      } else {
        r = index.ReadMetadata(k, &st);
      }
      ASSERT_TRUE(r.has_value()) << "lost key " << k << " at step " << step;
      lookups++;
      max_reads = std::max<uint64_t>(max_reads, st.dma_reads);
      if (!st.cache_hit) {
        EXPECT_GE(st.dma_reads, 1u);
        EXPECT_GT(st.objects_read, 0u);
      }
    }
    if (step % 5000 == 4999) {
      index.SyncHintsFromHost();
      // Hints must upper-bound every key's displacement after a sync.
      std::vector<uint8_t> region;
      host.ReadRegion(0, host.capacity(), region);
      for (size_t s = 0; s < host.capacity(); ++s) {
        const SlotView view = RobinhoodTable::ViewInRegion(region, s);
        if (view.occupied()) {
          const size_t seg = host.SegmentOfKey(view.key());
          ASSERT_GE(index.HintOf(seg), std::min<uint16_t>(view.disp(), host.max_displacement()));
        }
      }
    }
  }
  ASSERT_GT(lookups, 1000u);
  // Cost receipts stay bounded: worst case is first read + adjacent chunks
  // + overflow + large hop; for these parameters, a handful.
  EXPECT_LE(max_reads, 8u);
  if (p.budget != 0) {
    EXPECT_LE(index.cached_bytes(), p.budget + 512);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NicIndexChurnTest,
                         ::testing::Values(Param{8, 0, false}, Param{16, 0, false},
                                           Param{0, 0, false}, Param{8, 8192, true},
                                           Param{32, 64 * 1024, true}),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           return Name(info.param);
                         });

}  // namespace
}  // namespace xenic::store
