// Per-transaction marks, paged by coordinator and sequence number.
//
// A TxnId is built from its coordinator (bits 40 and up: node + 1 for
// MakeTxnId's ids) and that coordinator's sequence number (the low 40
// bits), which counts up from 1. So the marks a node keeps per
// transaction -- tombstones, stability, reported commits, applied LOG
// records -- lie densely along each coordinator's sequences. TxnPages
// keeps them in fixed-size pages of kTxnPageSeqs sequences, one set of
// pages per coordinator, each made zeroed on its first mark and kept for
// the run. A sparse sequence costs one page, not a table sized to reach
// it, and once a mark's page exists, setting the mark allocates nothing
// (in an AppliedIndex page, unless it opens a fifth shard plane).
// Nothing here is shared between instances: each cluster owns its marks,
// and sweep points run on parallel threads.
//
// Two page types use it: TxnSet, a bit per transaction, and AppliedIndex,
// a bit plane per shard and a byte of total_shards per transaction.
// Neither bounds its marks; ROADMAP item 2's reclaim watermark would.

#ifndef SRC_STORE_TXN_MARKS_H_
#define SRC_STORE_TXN_MARKS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/store/types.h"

namespace xenic::store {

// Sequences per page: 2 KiB of bits. Large enough that a loaded point
// makes few pages, small enough that a coordinator's last, partly used
// page wastes little.
inline constexpr uint64_t kTxnPageSeqs = 1 << 14;

template <typename Page>
class TxnPages {
 public:
  // Where `txn`'s marks lie in its page.
  static size_t Slot(TxnId txn) { return static_cast<size_t>(TxnSeq(txn) % kTxnPageSeqs); }

  // The page holding `txn`'s marks, or nullptr while it has none.
  const Page* Find(TxnId txn) const {
    const size_t c = CoordinatorOf(txn);
    if (c == coordinators_.size()) {
      return nullptr;
    }
    const Pages& pages = coordinators_[c].pages;
    const auto it = Lower(pages, Number(txn));
    return it != pages.end() && it->first == Number(txn) ? it->second.get() : nullptr;
  }

  // The page holding `txn`'s marks, made zeroed if it has none.
  Page& Get(TxnId txn) {
    const size_t c = CoordinatorOf(txn);
    if (c == coordinators_.size()) {
      coordinators_.push_back(Coordinator{txn >> 40, {}});
    }
    Pages& pages = coordinators_[c].pages;
    auto it = Lower(pages, Number(txn));
    if (it == pages.end() || it->first != Number(txn)) {
      it = pages.emplace(it, Number(txn), std::make_unique<Page>());
    }
    return *it->second;
  }

 private:
  // (page number, page), by page number.
  using Pages = std::vector<std::pair<uint64_t, std::unique_ptr<Page>>>;
  struct Coordinator {
    uint64_t id;  // the txn ids' bits 40 and up
    Pages pages;
  };

  static uint64_t Number(TxnId txn) { return TxnSeq(txn) / kTxnPageSeqs; }
  // The first of `pages` at or past page `number`. Sequences count up
  // from 1, so page i is usually entry i.
  template <typename P>
  static auto Lower(P& pages, uint64_t number) {
    if (number < pages.size() && pages[number].first == number) {
      return pages.begin() + static_cast<ptrdiff_t>(number);
    }
    return std::lower_bound(pages.begin(), pages.end(), number,
                            [](const auto& page, uint64_t n) { return page.first < n; });
  }
  // `txn`'s coordinator's place in coordinators_, or its size.
  size_t CoordinatorOf(TxnId txn) const {
    size_t c = 0;
    while (c < coordinators_.size() && coordinators_[c].id != txn >> 40) {
      ++c;
    }
    return c;
  }

  std::vector<Coordinator> coordinators_;  // in order of first mark
};

// One bit per page sequence.
using TxnPageBits = std::array<uint64_t, kTxnPageSeqs / 64>;

inline bool TestBit(const TxnPageBits& bits, size_t slot) {
  return (bits[slot / 64] >> (slot % 64) & 1) != 0;
}

// A set of transactions.
class TxnSet {
 public:
  // Adds `txn`; true if it was not in the set.
  bool Insert(TxnId txn);
  bool Contains(TxnId txn) const {
    const TxnPageBits* page = pages_.Find(txn);
    return page != nullptr && TestBit(*page, TxnPages<TxnPageBits>::Slot(txn));
  }

 private:
  TxnPages<TxnPageBits> pages_;
};

// Which shards' LOG records of a transaction a node applied, and the
// records' total_shards (Datastore::NoteLogApplied).
class AppliedIndex {
 public:
  // Notes `txn`'s record of `shard`. A repeated (txn, shard) keeps its
  // first total_shards.
  void Note(TxnId txn, NodeId shard, uint32_t total_shards);
  // The noted shards of `txn`, sorted. Raises `*total_shards`, if given, to
  // the largest of their first total_shards.
  std::vector<NodeId> ShardsOf(TxnId txn, uint32_t* total_shards) const;

 private:
  // A page's per-sequence total at and past which the total lives in
  // wide_totals_.
  static constexpr uint8_t kWideTotal = UINT8_MAX;
  struct Plane {
    NodeId shard = 0;
    TxnPageBits bits{};
  };
  struct Page {
    // A backup applies the records of a few shards, so a few planes live
    // in the page itself; more spill to `more`.
    static constexpr uint32_t kInlinePlanes = 4;

    // Per sequence: the largest first total_shards of its noted shards, or
    // kWideTotal.
    std::array<uint8_t, kTxnPageSeqs> totals{};
    uint32_t inline_planes = 0;
    std::array<Plane, kInlinePlanes> planes{};
    std::vector<Plane> more;

    template <typename F>
    void ForEachPlane(F&& f) const {
      std::for_each(planes.begin(), planes.begin() + inline_planes, f);
      std::for_each(more.begin(), more.end(), f);
    }
    // `shard`'s plane, opened if the page has none.
    TxnPageBits& PlaneOf(NodeId shard);
  };

  TxnPages<Page> pages_;
  // The largest first total_shards, for transactions with one of
  // kWideTotal or more.
  std::unordered_map<TxnId, uint32_t> wide_totals_;
};

}  // namespace xenic::store

#endif  // SRC_STORE_TXN_MARKS_H_
