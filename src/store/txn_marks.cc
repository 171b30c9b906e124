#include "src/store/txn_marks.h"

namespace xenic::store {

namespace {

// Sets `slot`'s bit; true if it was clear.
bool SetBit(TxnPageBits& bits, size_t slot) {
  const uint64_t bit = uint64_t{1} << (slot % 64);
  const bool was_clear = (bits[slot / 64] & bit) == 0;
  bits[slot / 64] |= bit;
  return was_clear;
}

}  // namespace

bool TxnSet::Insert(TxnId txn) { return SetBit(pages_.Get(txn), TxnPages<TxnPageBits>::Slot(txn)); }

TxnPageBits& AppliedIndex::Page::PlaneOf(NodeId shard) {
  for (uint32_t i = 0; i < inline_planes; ++i) {
    if (planes[i].shard == shard) {
      return planes[i].bits;
    }
  }
  for (Plane& p : more) {
    if (p.shard == shard) {
      return p.bits;
    }
  }
  if (inline_planes < kInlinePlanes) {
    planes[inline_planes].shard = shard;
    return planes[inline_planes++].bits;
  }
  return more.emplace_back(Plane{shard, {}}).bits;
}

void AppliedIndex::Note(TxnId txn, NodeId shard, uint32_t total_shards) {
  Page& page = pages_.Get(txn);
  const size_t slot = TxnPages<Page>::Slot(txn);
  if (!SetBit(page.PlaneOf(shard), slot)) {
    return;  // noted already: the first total_shards stands
  }
  uint8_t& total = page.totals[slot];
  total = std::max(total, static_cast<uint8_t>(std::min<uint32_t>(total_shards, kWideTotal)));
  if (total_shards >= kWideTotal) {
    uint32_t& wide = wide_totals_[txn];
    wide = std::max(wide, total_shards);
  }
}

std::vector<NodeId> AppliedIndex::ShardsOf(TxnId txn, uint32_t* total_shards) const {
  std::vector<NodeId> out;
  const Page* page = pages_.Find(txn);
  if (page == nullptr) {
    return out;
  }
  const size_t slot = TxnPages<Page>::Slot(txn);
  page->ForEachPlane([&out, slot](const Plane& p) {
    if (TestBit(p.bits, slot)) {
      out.push_back(p.shard);
    }
  });
  std::sort(out.begin(), out.end());
  if (total_shards != nullptr) {
    const uint8_t total = page->totals[slot];
    *total_shards =
        std::max(*total_shards, total == kWideTotal ? wide_totals_.at(txn) : uint32_t{total});
  }
  return out;
}

}  // namespace xenic::store
