// KeyWaitQueue: the lock-wait queue of one shard's lock table.
//
// Each shard's SmartNIC owns the shard's lock table and serves every lock
// request for it (paper section 4.2). A request denied a lock may wait for
// the holder instead of aborting: it gives back every lock it took at this
// shard and parks its continuation here, behind the denied key. When the
// holder releases the key, the lowest-ranked waiter wakes and re-attempts
// its whole lock set; ties go to the earlier arrival. The rank is the
// caller's: XenicNode ranks local waiters before remote ones under OCC and
// orders waiters by transaction age under 2PL.
//
// Every entry has an id, so a timeout can take its own entry out after
// wakes reordered the queue; a timer whose entry was already woken finds
// nothing. The queue only stores continuations and never runs one: the
// caller decides when (and in which event) a taken waiter resumes.

#ifndef SRC_TXN_KEY_WAIT_QUEUE_H_
#define SRC_TXN_KEY_WAIT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/sbo_callback.h"
#include "src/txn/types.h"

namespace xenic::txn {

class KeyWaitQueue {
 public:
  struct Waiter {
    uint64_t id = 0;
    TxnId txn = 0;
    uint64_t rank = 0;
    sim::SmallCallback resume;
  };

  // Park `resume` behind `key`. Returns the entry's id (never 0).
  uint64_t Park(const KeyRef& key, TxnId txn, uint64_t rank, sim::SmallCallback resume) {
    const uint64_t id = ++last_id_;
    queues_[key].push_back(Waiter{id, txn, rank, std::move(resume)});
    return id;
  }

  // Entries parked behind `key` with exactly `rank`.
  size_t Count(const KeyRef& key, uint64_t rank) const {
    auto it = queues_.find(key);
    if (it == queues_.end()) {
      return 0;
    }
    return static_cast<size_t>(std::count_if(it->second.begin(), it->second.end(),
                                             [rank](const Waiter& w) { return w.rank == rank; }));
  }

  // Take entry `id` out of `key`'s queue; nullopt if it is no longer there.
  std::optional<Waiter> Take(const KeyRef& key, uint64_t id) {
    auto it = queues_.find(key);
    if (it == queues_.end()) {
      return std::nullopt;
    }
    auto pos = std::find_if(it->second.begin(), it->second.end(),
                            [id](const Waiter& w) { return w.id == id; });
    if (pos == it->second.end()) {
      return std::nullopt;
    }
    return Remove(it, pos);
  }

  // Take the waiter a release of `key` wakes: the lowest rank, then the
  // earliest arrival. Waiters for which `gone(txn)` holds are dropped (their
  // continuations destroyed) and the next one is tried.
  template <typename Gone>
  std::optional<Waiter> PopNext(const KeyRef& key, Gone&& gone) {
    for (auto it = queues_.find(key); it != queues_.end(); it = queues_.find(key)) {
      // Entries sit in arrival order, and min_element returns the first
      // of equal ranks.
      auto pos = std::min_element(it->second.begin(), it->second.end(),
                                  [](const Waiter& a, const Waiter& b) { return a.rank < b.rank; });
      Waiter w = Remove(it, pos);
      if (!gone(w.txn)) {
        return w;
      }
    }
    return std::nullopt;
  }

  bool empty() const { return queues_.empty(); }

  // Destroy every parked continuation.
  void Clear() { queues_.clear(); }

 private:
  using Map = std::unordered_map<KeyRef, std::vector<Waiter>, KeyRefHash>;

  // Move the entry at `pos` out of `it`'s queue, dropping the queue once it
  // is empty so `empty()` stays exact.
  Waiter Remove(Map::iterator it, std::vector<Waiter>::iterator pos) {
    Waiter w = std::move(*pos);
    it->second.erase(pos);
    if (it->second.empty()) {
      queues_.erase(it);
    }
    return w;
  }

  Map queues_;
  uint64_t last_id_ = 0;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_KEY_WAIT_QUEUE_H_
