#include "src/store/pending_index.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace xenic::store {

size_t PendingIndex::Home(uint64_t key) const {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

size_t PendingIndex::Probe(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].used && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

const PendingIndex::Write* PendingIndex::Newest(uint64_t key) const {
  if (size_ == 0) {
    return nullptr;
  }
  const Slot& s = slots_[Probe(key)];
  if (!s.used) {
    return nullptr;
  }
  return s.later.empty() ? &s.first : &s.later.back();
}

void PendingIndex::Push(uint64_t key, Write w) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  Slot& s = slots_[Probe(key)];
  if (s.used) {
    s.later.push_back(std::move(w));
    return;
  }
  s.used = true;
  s.key = key;
  s.first = std::move(w);
  size_++;
}

void PendingIndex::Erase(uint64_t key, uint64_t lsn) {
  if (size_ == 0) {
    return;
  }
  const size_t i = Probe(key);
  Slot& s = slots_[i];
  if (!s.used) {
    return;
  }
  auto of_record = [lsn](const Write& w) { return w.lsn == lsn; };
  s.later.erase(std::remove_if(s.later.begin(), s.later.end(), of_record), s.later.end());
  if (!of_record(s.first)) {
    return;
  }
  if (s.later.empty()) {
    EraseSlot(i);
    return;
  }
  s.first = std::move(s.later.front());
  s.later.erase(s.later.begin());
}

void PendingIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t n = old.empty() ? 64 : 2 * old.size();
  slots_ = std::vector<Slot>(n);
  shift_ = 64 - static_cast<uint32_t>(std::countr_zero(n));
  for (Slot& s : old) {
    if (s.used) {
      slots_[Probe(s.key)] = std::move(s);
    }
  }
}

void PendingIndex::EraseSlot(size_t slot) {
  // Backward-shift deletion: walk the probe run after the hole and move
  // back every entry whose home is not between the hole and where it sits,
  // so each remaining key stays reachable from its home.
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t j = (slot + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      std::swap(slots_[hole], slots_[j]);
      hole = j;
    }
  }
  Slot& s = slots_[hole];
  s.used = false;
  s.first = Write{};
  s.later.clear();
  size_--;
}

}  // namespace xenic::store
