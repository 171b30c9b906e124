#include "src/store/alt_hash.h"

#include <cassert>

namespace xenic::store {

HopscotchTable::HopscotchTable(const Options& options)
    : capacity_(size_t{1} << options.capacity_log2),
      mask_(capacity_ - 1),
      neighborhood_(options.neighborhood),
      object_size_(options.object_size),
      slots_(capacity_),
      hop_info_(capacity_, 0),
      overflow_(capacity_) {
  assert(neighborhood_ > 0 && neighborhood_ <= 32);
}

Status HopscotchTable::Insert(Key key, Seq seq) {
  if (Contains(key)) {
    return Status::AlreadyExists();
  }
  const size_t home = Home(key);

  // Linear probe for a free slot.
  size_t free = home;
  size_t dist = 0;
  while (dist < capacity_ && slots_[free].occupied) {
    free = (free + 1) & mask_;
    ++dist;
  }
  if (dist >= capacity_) {
    return Status::Capacity("table full");
  }

  // Hopscotch displacement: while the free slot is outside the home
  // neighborhood, move it closer by relocating an earlier key that is
  // still within its own neighborhood after the move.
  while (dist >= neighborhood_) {
    bool moved = false;
    // Consider candidate slots up to H-1 before the free slot.
    for (size_t back = neighborhood_ - 1; back >= 1; --back) {
      const size_t cand = (free - back) & mask_;
      if (!slots_[cand].occupied) {
        continue;
      }
      const size_t cand_home = Home(slots_[cand].key);
      const size_t new_dist = (free - cand_home) & mask_;
      if (new_dist < neighborhood_) {
        // Relocate candidate into the free slot.
        slots_[free] = slots_[cand];
        slots_[cand].occupied = false;
        const size_t old_dist = (cand - cand_home) & mask_;
        hop_info_[cand_home] &= ~(1u << old_dist);
        hop_info_[cand_home] |= 1u << new_dist;
        free = cand;
        dist = (free - home) & mask_;
        moved = true;
        break;
      }
    }
    if (!moved) {
      // Stuck: spill to the home bucket's overflow chain (FaRM's second-
      // roundtrip case).
      overflow_[home].push_back(Slot{key, seq, true});
      overflow_count_++;
      size_++;
      return Status::Ok();
    }
  }

  slots_[free] = Slot{key, seq, true};
  hop_info_[home] |= 1u << dist;
  size_++;
  return Status::Ok();
}

bool HopscotchTable::Contains(Key key) const {
  RemoteLookupStats st;
  return RemoteLookup(key, &st).has_value();
}

std::optional<Seq> HopscotchTable::RemoteLookup(Key key, RemoteLookupStats* stats) const {
  const size_t home = Home(key);
  stats->roundtrips++;
  stats->objects_read += neighborhood_;
  stats->bytes_read += static_cast<uint64_t>(neighborhood_) * object_size_;
  for (size_t i = 0; i < neighborhood_; ++i) {
    const Slot& s = slots_[(home + i) & mask_];
    if (s.occupied && s.key == key) {
      stats->found = true;
      return s.seq;
    }
  }
  if (!overflow_[home].empty()) {
    stats->roundtrips++;
    stats->objects_read += static_cast<uint32_t>(overflow_[home].size());
    stats->bytes_read += overflow_[home].size() * object_size_;
    for (const Slot& s : overflow_[home]) {
      if (s.key == key) {
        stats->found = true;
        return s.seq;
      }
    }
  }
  return std::nullopt;
}

}  // namespace xenic::store
