#include "src/store/robinhood_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xenic::store {

namespace {
// Dm = 0 means "unlimited": displacement is then bounded only by the uint16
// field; real occupancies keep probes in the tens of slots.
constexpr uint16_t kUnlimitedDisp = 0xFFFF;
}  // namespace

RobinhoodTable::RobinhoodTable(const Options& options)
    : capacity_(size_t{1} << options.capacity_log2),
      mask_(capacity_ - 1),
      value_size_(options.value_size),
      large_values_(options.value_size > kInlineValueLimit),
      // A large value's logical slot holds an 8-byte pointer to it.
      slot_size_(sizeof(SlotHeader) + (large_values_ ? sizeof(uint64_t) : options.value_size)),
      max_displacement_(options.max_displacement == 0 ? kUnlimitedDisp : options.max_displacement),
      segment_slots_(options.segment_slots),
      num_segments_((capacity_ + options.segment_slots - 1) / options.segment_slots),
      slots_(new Slot[capacity_]()),
      seg_max_disp_(num_segments_, 0) {
  assert(options.segment_slots > 0);
}

void RobinhoodTable::StoreSlot(size_t slot, Slot from, uint16_t disp) {
  from.header.disp = disp;
  NoteDisp(from.header.key, disp);
  slots_[slot] = std::move(from);
  if (swap_step_hook_) {
    swap_step_hook_();
  }
}

Slot RobinhoodTable::NewSlot(Key key, Seq seq, Value value) const {
  const uint16_t flags = kSlotOccupied | (large_values_ ? kSlotLargeValue : 0);
  return Slot{SlotHeader{key, 0, flags, seq}, std::move(value)};
}

Value RobinhoodTable::Stored(const Value& value) const {
  if (large_values_ || value.size() == value_size_) {
    return value;
  }
  Value out(value_size_, 0);
  std::copy_n(value.data(), std::min(value.size(), value_size_), out.mutable_data());
  return out;
}

void RobinhoodTable::NoteDisp(Key key, uint16_t disp) {
  const size_t seg = SegmentOfKey(key);
  seg_max_disp_[seg] = std::max(seg_max_disp_[seg], disp);
}

std::optional<size_t> RobinhoodTable::FindSlot(Key key) const {
  const size_t home = HomeSlot(key);
  size_t pos = home;
  for (uint16_t d = 0; d < max_displacement_; ++d) {
    const SlotHeader& h = slots_[pos].header;
    if ((h.flags & kSlotOccupied) == 0) {
      return std::nullopt;
    }
    if (h.key == key) {
      return pos;
    }
    pos = Advance(pos);
    if (pos == home) {
      break;  // wrapped the whole table
    }
  }
  return std::nullopt;
}

const RobinhoodTable::OverflowEntry* RobinhoodTable::FindOverflow(Key key) const {
  if (size_overflow_ == 0) {
    return nullptr;  // skips the bucket map
  }
  for (const OverflowEntry& e : ReadOverflow(SegmentOfKey(key))) {
    if (e.key == key) {
      return &e;
    }
  }
  return nullptr;
}

const std::vector<RobinhoodTable::OverflowEntry>& RobinhoodTable::ReadOverflow(
    size_t segment) const {
  static const std::vector<OverflowEntry> kNone;
  const auto it = overflow_.find(segment);
  return it != overflow_.end() ? it->second : kNone;
}

void RobinhoodTable::RemoveOverflow(const OverflowEntry* e) {
  const auto it = overflow_.find(SegmentOfKey(e->key));  // filed under its home segment
  assert(it != overflow_.end());
  auto& bucket = it->second;
  bucket.erase(bucket.begin() + (e - bucket.data()));
  if (bucket.empty()) {
    overflow_.erase(it);
  }
  size_overflow_--;
}

std::optional<LookupResult> RobinhoodTable::Lookup(Key key) const {
  if (auto slot = FindSlot(key)) {
    return LookupResult{slots_[*slot].value, slots_[*slot].header.seq};
  }
  if (const OverflowEntry* e = FindOverflow(key)) {
    return LookupResult{e->value, e->seq};
  }
  return std::nullopt;
}

bool RobinhoodTable::Contains(Key key) const {
  return FindSlot(key).has_value() || FindOverflow(key) != nullptr;
}

std::optional<Seq> RobinhoodTable::GetSeq(Key key) const {
  if (auto slot = FindSlot(key)) {
    return slots_[*slot].header.seq;
  }
  if (const OverflowEntry* e = FindOverflow(key)) {
    return e->seq;
  }
  return std::nullopt;
}

std::vector<Key> RobinhoodTable::Keys() const {
  std::vector<Key> out;
  out.reserve(size());
  for (size_t s = 0; s < capacity_; ++s) {
    if ((slots_[s].header.flags & kSlotOccupied) != 0) {
      out.push_back(slots_[s].header.key);
    }
  }
  for (const auto& bucket : overflow_) {
    for (const auto& e : bucket.second) {
      out.push_back(e.key);
    }
  }
  return out;
}

Status RobinhoodTable::Insert(Key key, const Value& value, Seq seq) {
  if (Contains(key)) {
    return Status::AlreadyExists();
  }
  return InsertInternal(key, value, seq);
}

Status RobinhoodTable::InsertInternal(Key key, const Value& value, Seq seq) {
  if (size_table_ == capacity_ && max_displacement_ == kUnlimitedDisp) {
    return Status::Capacity("table full");
  }

  const size_t home = HomeSlot(key);

  // Phase 1: read-only probe collecting the swap chain. `carried_home`
  // tracks the home of the element currently being carried so the overflow
  // terminal files it under the right segment.
  chain_.clear();
  size_t pos = home;
  size_t carried_home = home;
  uint16_t carried_disp = 0;
  bool to_overflow = false;
  size_t probes = 0;

  while (true) {
    if (carried_disp >= max_displacement_) {
      to_overflow = true;
      break;
    }
    const SlotHeader& h = slots_[pos].header;
    ++probes;
    if ((h.flags & kSlotOccupied) == 0) {
      break;  // empty terminal at pos
    }
    if (h.disp < carried_disp) {
      chain_.push_back(pos);
      carried_home = (pos - h.disp) & mask_;
      carried_disp = h.disp;
    }
    pos = Advance(pos);
    ++carried_disp;
  }
  total_probe_slots_ += probes;
  total_swaps_ += chain_.size();

  if (to_overflow && chain_.empty()) {
    // No resident is less displaced: the new element itself overflows.
    overflow_[SegmentOfSlot(home)].push_back(OverflowEntry{key, seq, Stored(value)});
    size_overflow_++;
    if (swap_step_hook_) {
      swap_step_hook_();
    }
    return Status::Ok();
  }

  // Build the new element in the scratch slot.
  Slot scratch = NewSlot(key, seq, Stored(value));

  // Phase 2: apply from the terminal backwards (the copy list). Each move
  // writes the destination before the source slot is overwritten by the
  // previous element in the chain, so a concurrent DMA region read always
  // finds every committed key (paper: DMA-consistent swapping).
  size_t dest = pos;
  if (to_overflow) {
    // The last displaced resident goes to its home segment's overflow.
    const size_t last = chain_.back();
    const Slot& displaced = slots_[last];
    overflow_[SegmentOfSlot(carried_home)].push_back(
        OverflowEntry{displaced.header.key, displaced.header.seq, displaced.value});
    size_overflow_++;
    if (swap_step_hook_) {
      swap_step_hook_();
    }
    // The rest of the chain shifts into the freed slot; size_table_ is
    // unchanged (one element entered the table, one left to overflow).
    dest = last;
    chain_.pop_back();
  }
  for (size_t i = chain_.size(); i > 0; --i) {
    const size_t from = chain_[i - 1];
    const size_t moving_home = (from - slots_[from].header.disp) & mask_;
    StoreSlot(dest, slots_[from], static_cast<uint16_t>((dest - moving_home) & mask_));
    dest = from;
  }
  StoreSlot(dest, std::move(scratch), static_cast<uint16_t>((dest - home) & mask_));
  if (!to_overflow) {
    size_table_++;
  }
  return Status::Ok();
}

Seq* RobinhoodTable::Overwrite(Key key, const Value& value) {
  if (auto slot = FindSlot(key)) {
    slots_[*slot].value = Stored(value);
    return &slots_[*slot].header.seq;
  }
  if (auto* e = const_cast<OverflowEntry*>(FindOverflow(key))) {
    e->value = Stored(value);
    return &e->seq;
  }
  return nullptr;
}

Status RobinhoodTable::Update(Key key, const Value& value) {
  Seq* seq = Overwrite(key, value);
  if (seq == nullptr) {
    return Status::NotFound();
  }
  ++*seq;
  return Status::Ok();
}

Status RobinhoodTable::Apply(Key key, const Value& value, Seq seq) {
  if (Seq* stored = Overwrite(key, value)) {
    *stored = seq;
    return Status::Ok();
  }
  return InsertInternal(key, value, seq);
}

Status RobinhoodTable::Erase(Key key) {
  if (const OverflowEntry* e = FindOverflow(key)) {
    RemoveOverflow(e);
    return Status::Ok();
  }
  auto slot = FindSlot(key);
  if (!slot) {
    return Status::NotFound();
  }
  const size_t s = *slot;
  const uint16_t old_disp = slots_[s].header.disp;
  slots_[s] = Slot{};
  size_table_--;

  // Try to pull a qualifying overflow element over the hole. An element
  // with home h qualifies when (a) its displacement at s stays within Dm,
  // (b) it is at least as displaced as the deleted element was (so other
  // keys' probe-path invariants cannot weaken), and (c) every slot on its
  // probe path [h, s) is occupied with disp(t) >= t - h (so the element
  // itself stays findable and future backward shifts stay safe).
  const size_t span = std::min<size_t>(max_displacement_, capacity_);
  const size_t first_seg = SegmentOfSlot((s - (span - 1)) & mask_);
  const size_t seg_count =
      size_overflow_ == 0 ? 0 : (span + segment_slots_ - 1) / segment_slots_ + 1;
  for (size_t k = 0; k < seg_count; ++k) {
    const auto& bucket = ReadOverflow((first_seg + k) % num_segments_);
    for (size_t i = 0; i < bucket.size(); ++i) {
      const size_t h = HomeSlot(bucket[i].key);
      const auto d = static_cast<uint16_t>((s - h) & mask_);
      if (d >= max_displacement_ || d < old_disp) {
        continue;
      }
      bool path_ok = true;
      size_t t = h;
      for (uint16_t pd = 0; pd < d; ++pd, t = Advance(t)) {
        const SlotHeader& th = slots_[t].header;
        if ((th.flags & kSlotOccupied) == 0 || th.disp < pd) {
          path_ok = false;
          break;
        }
      }
      if (!path_ok) {
        continue;
      }
      // Re-insert the overflow entry at the hole; the entry keeps its
      // value until it leaves the bucket.
      StoreSlot(s, NewSlot(bucket[i].key, bucket[i].seq, bucket[i].value), d);
      RemoveOverflow(&bucket[i]);
      size_table_++;
      return Status::Ok();
    }
  }

  // Backward shift: move each following displaced element one slot closer
  // to its home until an empty slot or a disp-0 element ends the run.
  size_t hole = s;
  size_t t = Advance(s);
  while (t != s) {
    const SlotHeader& th = slots_[t].header;
    if ((th.flags & kSlotOccupied) == 0 || th.disp == 0) {
      break;
    }
    StoreSlot(hole, slots_[t], static_cast<uint16_t>(th.disp - 1));
    slots_[t] = Slot{};
    hole = t;
    t = Advance(t);
  }
  return Status::Ok();
}

void RobinhoodTable::TightenHints() {
  std::fill(seg_max_disp_.begin(), seg_max_disp_.end(), 0);
  for (size_t slot = 0; slot < capacity_; ++slot) {
    const SlotHeader& h = slots_[slot].header;
    if ((h.flags & kSlotOccupied) != 0) {
      const size_t home = (slot - h.disp) & mask_;
      const size_t seg = SegmentOfSlot(home);
      seg_max_disp_[seg] = std::max(seg_max_disp_[seg], h.disp);
    }
  }
}

void RobinhoodTable::ReadRegion(size_t start_slot, size_t count, std::vector<uint8_t>& out) const {
  count = std::min(count, capacity_);
  out.resize(count * sizeof(Slot));
  const size_t first = std::min(count, capacity_ - (start_slot & mask_));
  // A byte copy of the slots: the handles' bits, taking no reference.
  std::memcpy(out.data(), static_cast<const void*>(&slots_[start_slot & mask_]),
              first * sizeof(Slot));
  if (first < count) {
    std::memcpy(out.data() + first * sizeof(Slot), static_cast<const void*>(&slots_[0]),
                (count - first) * sizeof(Slot));
  }
}

std::optional<size_t> RobinhoodTable::FindInRegion(const std::vector<uint8_t>& region,
                                                   size_t region_start, Key key) const {
  (void)region_start;
  for (size_t i = 0; i < RegionSlots(region); ++i) {
    const SlotView view = ViewInRegion(region, i);
    if (view.occupied() && view.key() == key) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace xenic::store
