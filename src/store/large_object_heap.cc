#include "src/store/large_object_heap.h"

#include <cassert>

namespace xenic::store {

LargeObjectHeap::Handle LargeObjectHeap::Alloc(Value value) {
  live_++;
  live_bytes_ += value.size();
  if (!free_list_.empty()) {
    Handle h = free_list_.back();
    free_list_.pop_back();
    slots_[h].value = std::move(value);
    slots_[h].live = true;
    return h;
  }
  slots_.push_back(Slot{std::move(value), true});
  return slots_.size() - 1;
}

void LargeObjectHeap::Free(Handle h) {
  assert(Valid(h));
  live_--;
  live_bytes_ -= slots_[h].value.size();
  slots_[h].live = false;
  slots_[h].value = Value();
  free_list_.push_back(h);
}

void LargeObjectHeap::Update(Handle h, Value value) {
  assert(Valid(h));
  live_bytes_ -= slots_[h].value.size();
  live_bytes_ += value.size();
  slots_[h].value = std::move(value);
}

const Value& LargeObjectHeap::Get(Handle h) const {
  assert(Valid(h));
  return slots_[h].value;
}

bool LargeObjectHeap::Valid(Handle h) const { return h < slots_.size() && slots_[h].live; }

}  // namespace xenic::store
