// KeyWaitQueue: one shard's lock-wait queue (src/txn/key_wait_queue.h).
// The queue only orders and stores parked continuations; XenicNode decides
// ranks, timeouts and which waiters are gone. These tests pin the ordering
// (lowest rank, then arrival), the per-rank count behind the remote queue
// cap, take-by-id for timeouts, the gone-skip, and that dropping an entry
// destroys its continuation.

#include "src/txn/key_wait_queue.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/sim/slot_table.h"

namespace xenic::txn {
namespace {

const KeyRef kKey{0, 7};
const KeyRef kOther{0, 8};

sim::SmallCallback Noop() {
  return [] {};
}

bool NoneGone(TxnId) { return false; }

// The transaction ids of every waiter a run of releases of `key` wakes.
std::vector<TxnId> WakeAll(KeyWaitQueue& q, const KeyRef& key) {
  std::vector<TxnId> order;
  while (auto w = q.PopNext(key, NoneGone)) {
    order.push_back(w->txn);
  }
  return order;
}

TEST(KeyWaitQueueTest, WakesLowestRankThenEarliestArrival) {
  KeyWaitQueue q;
  q.Park(kKey, 1, /*rank=*/1, Noop());
  q.Park(kKey, 2, /*rank=*/0, Noop());
  q.Park(kKey, 3, /*rank=*/1, Noop());
  q.Park(kKey, 4, /*rank=*/0, Noop());
  q.Park(kOther, 5, /*rank=*/0, Noop());
  EXPECT_EQ(WakeAll(q, kKey), (std::vector<TxnId>{2, 4, 1, 3}));
  EXPECT_FALSE(q.empty());  // kOther's waiter is untouched
  EXPECT_EQ(WakeAll(q, kOther), (std::vector<TxnId>{5}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.PopNext(kKey, NoneGone).has_value());
}

TEST(KeyWaitQueueTest, CountCountsOnlyTheGivenRankOfTheGivenKey) {
  KeyWaitQueue q;
  EXPECT_EQ(q.Count(kKey, 1), 0u);
  q.Park(kKey, 1, 0, Noop());
  q.Park(kKey, 2, 1, Noop());
  q.Park(kKey, 3, 1, Noop());
  q.Park(kOther, 4, 1, Noop());
  EXPECT_EQ(q.Count(kKey, 0), 1u);
  EXPECT_EQ(q.Count(kKey, 1), 2u);
  EXPECT_EQ(q.Count(kKey, 2), 0u);
  EXPECT_EQ(q.Count(kOther, 1), 1u);
  q.PopNext(kKey, NoneGone);  // wakes the rank-0 waiter
  EXPECT_EQ(q.Count(kKey, 0), 0u);
  EXPECT_EQ(q.Count(kKey, 1), 2u);
}

TEST(KeyWaitQueueTest, TakeFindsItsEntryByIdAfterEarlierWakes) {
  KeyWaitQueue q;
  const uint64_t first = q.Park(kKey, 11, 0, Noop());
  const uint64_t second = q.Park(kKey, 12, 0, Noop());
  const uint64_t third = q.Park(kKey, 13, 0, Noop());
  EXPECT_NE(first, 0u);
  EXPECT_EQ(std::set<uint64_t>({first, second, third}).size(), 3u);

  auto woken = q.PopNext(kKey, NoneGone);
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(woken->id, first);
  // The woken waiter's timer finds nothing; a later waiter's timer still
  // finds its own entry although the queue moved under it.
  EXPECT_FALSE(q.Take(kKey, first).has_value());
  auto taken = q.Take(kKey, third);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->txn, 13u);
  EXPECT_FALSE(q.Take(kKey, third).has_value());
  EXPECT_FALSE(q.Take(kOther, second).has_value());  // wrong key
  EXPECT_EQ(WakeAll(q, kKey), (std::vector<TxnId>{12}));
  EXPECT_TRUE(q.empty());
}

TEST(KeyWaitQueueTest, GoneSkipDropsDeadWaitersAndReturnsTheNextLiveOne) {
  KeyWaitQueue q;
  int resumed = 0;
  q.Park(kKey, 1, 0, [&resumed] { resumed += 1; });
  q.Park(kKey, 2, 0, [&resumed] { resumed += 10; });
  q.Park(kKey, 3, 0, [&resumed] { resumed += 100; });
  const std::set<TxnId> dead = {1, 2};
  auto gone = [&dead](TxnId txn) { return dead.count(txn) > 0; };

  auto w = q.PopNext(kKey, gone);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->txn, 3u);
  w->resume();
  EXPECT_EQ(resumed, 100);  // the dead waiters were dropped, never resumed
  EXPECT_TRUE(q.empty());

  // Only dead waiters: the release wakes nobody and empties the queue.
  q.Park(kKey, 1, 0, Noop());
  q.Park(kKey, 2, 0, Noop());
  EXPECT_FALSE(q.PopNext(kKey, gone).has_value());
  EXPECT_TRUE(q.empty());
}

// A parked continuation may own a request slot of another node; dropping
// the waiter (a cleared queue, a skipped dead waiter) must free it.
TEST(KeyWaitQueueTest, DroppingWaitersDestroysTheirContinuations) {
  sim::SlotTable<int> table;
  KeyWaitQueue q;
  q.Park(kKey, 1, 0, [h = table.AcquireHandle()] {});
  q.Park(kOther, 2, 0, [h = table.AcquireHandle()] {});
  q.Park(kOther, 3, 0, [h = table.AcquireHandle()] {});
  EXPECT_EQ(table.live(), 3u);

  {
    auto w = q.PopNext(kOther, [](TxnId txn) { return txn == 2; });
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->txn, 3u);
    EXPECT_EQ(table.live(), 2u);  // the skipped waiter's slot is free
  }
  EXPECT_EQ(table.live(), 1u);  // so is the woken one's, with its continuation

  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(table.live(), 0u);
}

}  // namespace
}  // namespace xenic::txn
