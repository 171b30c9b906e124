#include "src/store/nic_index.h"

#include <algorithm>
#include <cassert>

namespace xenic::store {

NicIndex::NicIndex(const RobinhoodTable* host, const Options& options)
    : host_(host),
      options_(options),
      dm_(host->max_displacement()),
      entries_(host->num_segments()) {}

NicIndex::CachedObject* NicIndex::Find(Key key) {
  IndexEntry& entry = entries_[host_->SegmentOfKey(key)];
  for (auto& obj : entry.ways) {
    if (obj.valid && obj.key == key) {
      return &obj;
    }
  }
  for (auto& obj : entry.overflow) {
    if (obj.valid && obj.key == key) {
      return &obj;
    }
  }
  return nullptr;
}

const NicIndex::CachedObject* NicIndex::Find(Key key) const {
  return const_cast<NicIndex*>(this)->Find(key);
}

NicIndex::CachedObject* NicIndex::Ensure(Key key) {
  if (CachedObject* existing = Find(key)) {
    return existing;
  }
  // Make room first so the freshly created slot cannot evict itself.
  EvictUntilWithinBudget();
  IndexEntry& entry = entries_[host_->SegmentOfKey(key)];
  CachedObject* slot = nullptr;
  for (size_t i = 0; i < entry.positions(); ++i) {
    if (!entry.at(i).valid) {
      slot = &entry.at(i);
      break;
    }
  }
  if (slot == nullptr) {
    // Every position is taken: add an overflow position. The first one
    // reserves a page of kInlineWays positions, so a segment that outgrows
    // its ways allocates once.
    if (entry.overflow.empty()) {
      entry.overflow.reserve(kInlineWays);
    }
    slot = &entry.overflow.emplace_back();
  }
  *slot = CachedObject{};
  slot->key = key;
  slot->valid = true;
  cached_objects_++;
  cached_bytes_ += CostOf(*slot);
  return slot;
}

void NicIndex::Release(CachedObject& obj) {
  assert(obj.valid);
  cached_bytes_ -= CostOf(obj);
  cached_objects_--;
  obj = CachedObject{};
}

void NicIndex::EvictUntilWithinBudget() {
  if (options_.memory_budget == 0) {
    return;
  }
  size_t sweep = 0;
  const size_t max_sweep = 2 * entries_.size() + 16;
  while (cached_bytes_ > options_.memory_budget && sweep < max_sweep) {
    IndexEntry& entry = entries_[clock_segment_];
    if (clock_way_ >= entry.positions()) {
      clock_way_ = 0;
      clock_segment_ = (clock_segment_ + 1) % entries_.size();
      sweep++;
      continue;
    }
    CachedObject& obj = entry.at(clock_way_);
    clock_way_++;
    if (!obj.valid || obj.pin_count > 0 || obj.lock_owner != kNoTxn) {
      continue;
    }
    if (obj.ref) {
      obj.ref = false;  // second-chance
      continue;
    }
    Release(obj);
    evictions_++;
  }
}

std::optional<NicIndex::RemoteObject> NicIndex::LookupRemote(Key key, LookupStats* stats) {
  LookupStats local;
  LookupStats* st = stats != nullptr ? stats : &local;
  if (CachedObject* obj = Find(key); obj != nullptr && obj->has_value) {
    obj->ref = true;
    st->cache_hit = true;
    st->found = true;
    return RemoteObject{obj->value, obj->seq, obj->lock_owner, true};
  }
  return MissPath(key, /*want_value=*/true, st);
}

std::optional<NicIndex::RemoteObject> NicIndex::ReadMetadata(Key key, LookupStats* stats) {
  LookupStats local;
  LookupStats* st = stats != nullptr ? stats : &local;
  if (CachedObject* obj = Find(key); obj != nullptr && (obj->has_value || obj->seq != 0)) {
    obj->ref = true;
    st->cache_hit = true;
    st->found = true;
    return RemoteObject{Value{}, obj->seq, obj->lock_owner, true};
  }
  return MissPath(key, /*want_value=*/false, st);
}

std::optional<NicIndex::RemoteObject> NicIndex::MissPath(Key key, bool want_value,
                                                         LookupStats* st) {
  const size_t segment = host_->SegmentOfKey(key);
  IndexEntry& entry = entries_[segment];
  const size_t home = host_->HomeSlot(key);
  // Costs use the logical slot (RobinhoodTable::slot_size()), not the
  // bytes of the slots the read copies.
  const size_t slot_size = host_->slot_size();

  // First DMA read: displacement range [0, d_hint + k], capped at Dm - 1.
  const uint32_t first_span = std::min<uint32_t>(
      static_cast<uint32_t>(entry.d_hint) + options_.hint_slack + 1, dm_);
  host_->ReadRegion(home, first_span, region_buf_);
  st->dma_reads++;
  st->objects_read += first_span;
  st->bytes_read += first_span * slot_size;

  // Completes a lookup that located the key at displacement `disp`, with
  // `view` pointing at the slot inside the region just read.
  auto finish = [&](const SlotView& view, size_t disp) {
    RemoteObject out;
    out.seq = view.seq();
    if (want_value) {
      out.value = view.value();
      if (view.large_value()) {
        // Second hop: a single-object DMA read of the value the slot
        // points at.
        st->dma_reads++;
        st->bytes_read += out.value.size();
      }
    }
    entry.d_hint = std::max<uint16_t>(entry.d_hint, static_cast<uint16_t>(disp));
    if (CachedObject* meta = Find(key)) {
      out.lock_owner = meta->lock_owner;
    }
    if (options_.cache_values && want_value) {
      CachedObject* obj = Ensure(key);
      obj->seq = out.seq;
      obj->has_value = true;
      cached_bytes_ -= CostOf(*obj);
      obj->value = out.value;
      cached_bytes_ += CostOf(*obj);
      obj->ref = true;
      EvictUntilWithinBudget();
    }
    st->found = true;
    return out;
  };

  if (auto offset = host_->FindInRegion(region_buf_, home, key)) {
    return finish(RobinhoodTable::ViewInRegion(region_buf_, *offset), *offset);
  }
  // Stale-hint case: a concurrent host insert moved the key past
  // d_hint + k. With a displacement limit, one second adjacent read covers
  // the remaining range up to Dm; without a limit, read adjacent chunks
  // until the key or an empty slot (a Robinhood probe run cannot continue
  // past an empty slot) appears.
  auto region_has_empty = [&] {
    for (size_t i = 0; i < RobinhoodTable::RegionSlots(region_buf_); ++i) {
      if (!RobinhoodTable::ViewInRegion(region_buf_, i).occupied()) {
        return true;
      }
    }
    return false;
  };
  uint32_t scanned = first_span;
  bool hit_empty = region_has_empty();
  while (!hit_empty && scanned < dm_) {
    const uint32_t chunk =
        std::min<uint32_t>(dm_ - scanned, std::max<uint32_t>(first_span, 16));
    host_->ReadRegion(home + scanned, chunk, region_buf_);
    st->dma_reads++;
    st->objects_read += chunk;
    st->bytes_read += chunk * slot_size;
    if (auto off = host_->FindInRegion(region_buf_, home + scanned, key)) {
      return finish(RobinhoodTable::ViewInRegion(region_buf_, *off), *off + scanned);
    }
    hit_empty = region_has_empty();
    scanned += chunk;
  }

  // Not in the table region; consult the segment's overflow page when the
  // host side has one.
  if (entry.has_overflow || host_->SegmentHasOverflow(segment)) {
    const auto& bucket = host_->ReadOverflow(segment);
    st->dma_reads++;
    st->objects_read += static_cast<uint32_t>(bucket.size());
    for (const auto& e : bucket) {
      st->bytes_read += sizeof(SlotHeader) + e.value.size();
    }
    for (const auto& e : bucket) {
      if (e.key == key) {
        RemoteObject out;
        out.seq = e.seq;
        if (want_value) {
          out.value = e.value;
        }
        if (CachedObject* meta = Find(key)) {
          out.lock_owner = meta->lock_owner;
        }
        st->found = true;
        return out;
      }
    }
  }
  return std::nullopt;
}

void NicIndex::AdmitOnLoad(Key key, const Value& value, Seq seq) {
  if (!options_.cache_values || !options_.admit_on_load) {
    return;
  }
  CachedObject* obj = Ensure(key);
  cached_bytes_ -= CostOf(*obj);
  obj->value = value;
  cached_bytes_ += CostOf(*obj);
  obj->has_value = true;
  obj->seq = seq;
  EvictUntilWithinBudget();
}

Status NicIndex::AcquireLock(Key key, TxnId txn) {
  CachedObject* obj = Ensure(key);
  if (obj->lock_owner != kNoTxn && obj->lock_owner != txn) {
    return Status::Aborted("lock held");
  }
  obj->lock_owner = txn;
  return Status::Ok();
}

void NicIndex::ReleaseLock(Key key, TxnId txn) {
  if (CachedObject* obj = Find(key)) {
    if (obj->lock_owner == txn) {
      obj->lock_owner = kNoTxn;
    }
  }
}

bool NicIndex::IsLocked(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr && obj->lock_owner != kNoTxn;
}

TxnId NicIndex::LockOwner(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr ? obj->lock_owner : kNoTxn;
}

void NicIndex::ApplyCommit(Key key, const Value& value, Seq seq) {
  CachedObject* obj = Ensure(key);
  cached_bytes_ -= CostOf(*obj);
  obj->value = value;
  cached_bytes_ += CostOf(*obj);
  obj->has_value = true;
  obj->seq = seq;
  obj->ref = true;
  if (obj->pin_count == 0) {
    pinned_objects_++;
  }
  obj->pin_count++;
}

void NicIndex::OnHostApplied(Key key, uint16_t segment_disp, bool has_overflow) {
  if (CachedObject* obj = Find(key)) {
    if (obj->pin_count > 0) {
      obj->pin_count--;
      if (obj->pin_count == 0) {
        pinned_objects_--;
      }
    }
  }
  UpdateHint(host_->SegmentOfKey(key), segment_disp, has_overflow);
  EvictUntilWithinBudget();
}

void NicIndex::UpdateHint(size_t segment, uint16_t disp, bool has_overflow) {
  IndexEntry& entry = entries_[segment];
  entry.d_hint = std::max(entry.d_hint, std::min<uint16_t>(disp, dm_));
  entry.has_overflow = entry.has_overflow || has_overflow;
}

void NicIndex::Prefetch(Key key) const {
  const auto* bytes = reinterpret_cast<const char*>(&entries_[host_->SegmentOfKey(key)]);
  for (size_t off = 0; off < sizeof(IndexEntry); off += 64) {
    __builtin_prefetch(bytes + off);
  }
  __builtin_prefetch(bytes + sizeof(IndexEntry) - 1);
}

void NicIndex::SyncHintsFromHost() {
  for (size_t seg = 0; seg < entries_.size(); ++seg) {
    entries_[seg].d_hint = std::min<uint16_t>(host_->SegmentMaxDisp(seg), dm_);
    entries_[seg].has_overflow = host_->SegmentHasOverflow(seg);
  }
}

bool NicIndex::IsCached(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr && obj->has_value;
}

void NicIndex::Invalidate(Key key) {
  if (CachedObject* obj = Find(key)) {
    if (obj->pin_count > 0) {
      // A pinned object is a committed value the host has not applied yet:
      // the NIC copy is the only fresh one, so it must survive every form
      // of eviction (the miss path DMA-reads the stale host table).
      return;
    }
    if (obj->has_value) {
      cached_bytes_ -= CostOf(*obj);
      obj->value = Value();
      obj->has_value = false;
      obj->seq = 0;
      cached_bytes_ += CostOf(*obj);
    }
    if (obj->lock_owner == kNoTxn && obj->pin_count == 0) {
      Release(*obj);
    }
  }
}

std::vector<NicIndex::CachedEntry> NicIndex::CachedEntries() const {
  std::vector<CachedEntry> out;
  for (const auto& entry : entries_) {
    for (size_t i = 0; i < entry.positions(); ++i) {
      const CachedObject& obj = entry.at(i);
      if (obj.valid && obj.has_value) {
        out.push_back(CachedEntry{obj.key, obj.seq, &obj.value, obj.pin_count > 0,
                                  obj.lock_owner != kNoTxn});
      }
    }
  }
  return out;
}

std::vector<NicIndex::LockedKey> NicIndex::LockedKeys() const {
  std::vector<LockedKey> out;
  for (const auto& entry : entries_) {
    for (size_t i = 0; i < entry.positions(); ++i) {
      const CachedObject& obj = entry.at(i);
      if (obj.valid && obj.lock_owner != kNoTxn) {
        out.push_back(LockedKey{obj.key, obj.lock_owner});
      }
    }
  }
  return out;
}

std::optional<Seq> NicIndex::CachedSeq(Key key) const {
  const CachedObject* obj = Find(key);
  if (obj == nullptr || (!obj->has_value && obj->seq == 0)) {
    return std::nullopt;
  }
  return obj->seq;
}

}  // namespace xenic::store
