// SlotTable: owner-held parking for in-flight continuations.
//
// A component whose work crosses several events (a resource grant, a DMA's
// three stages, an RDMA verb's initiator/target/initiator hops) would
// otherwise carry the work's state -- the caller's continuation plus a few
// scalars -- inside each event lambda. A lambda that captures another
// SmallCallback (64 B) no longer fits SmallCallback's 48-byte inline buffer,
// so every such hop would heap-allocate. Instead the component parks that
// state in a slot it owns, and each event captures only {this, slot}.
//
// The table is a vector plus a free list: Put reuses a freed slot when one
// exists, so once the table has grown to the peak number of entries in
// flight, neither Put nor Take allocates. Slot indices are internal: which
// index an entry gets never influences the simulation.
//
// Owner rule: move what a slot holds out of the table (Take, or a move of
// the one member needed) before calling anything that can Put into the same
// table -- a completion callback, a handler, another Submit -- because a
// Put may grow the vector and invalidate every reference into it.
//
// An event that never runs -- a delivery a channel fault hook drops -- leaves
// its slot parked until the table is destroyed. The chaos injector models
// loss as a retransmission and never drops a NIC's deliveries.
//
// Entries that own buffers (a request's key and result vectors) use
// in-place reuse instead: AcquireHandle hands out a free slot as its last
// user left it, so the vectors inside keep their capacity and the caller
// clears the fields it uses. The Handle claims the slot and frees it,
// without moving anything out, when reset or destroyed, so a continuation
// that is dropped without running (a send from a crashed node, a parked
// request cleared with its queue) cannot leak the slot. A Handle
// re-indexes the table on every access, so it stays valid across an
// acquire that grows the table; references taken through it do not. Every
// Handle must be destroyed before its table.

#ifndef SRC_SIM_SLOT_TABLE_H_
#define SRC_SIM_SLOT_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/sbo_callback.h"

namespace xenic::sim {

template <typename T>
class SlotTable {
 public:
  // Park `value` and return its slot.
  uint32_t Put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  // Move the entry out of `slot` and free the slot.
  T Take(uint32_t slot) {
    assert(slot < slots_.size());
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

  // The entry parked in `slot`. Valid until the next Put or AcquireHandle.
  T& operator[](uint32_t slot) {
    assert(slot < slots_.size());
    return slots_[slot];
  }

  // Entries parked now: Put or acquired, and not yet taken or released.
  size_t live() const { return slots_.size() - free_.size(); }

  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : table_(std::exchange(other.table_, nullptr)), slot_(other.slot_) {}
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Reset();
        table_ = std::exchange(other.table_, nullptr);
        slot_ = other.slot_;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Reset(); }

    explicit operator bool() const { return table_ != nullptr; }
    T& operator*() const { return (*table_)[slot_]; }
    T* operator->() const { return &(*table_)[slot_]; }

    // Free the slot now.
    void Reset() {
      if (table_ != nullptr) {
        std::exchange(table_, nullptr)->Release(slot_);
      }
    }

   private:
    friend class SlotTable;
    Handle(SlotTable* table, uint32_t slot) : table_(table), slot_(slot) {}

    SlotTable* table_ = nullptr;
    uint32_t slot_ = 0;
  };

  // A free slot under a Handle, its entry as the slot's last user left it.
  Handle AcquireHandle() { return Handle(this, Acquire()); }

 private:
  uint32_t Acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  // Free `slot` and leave its entry in place for the next Acquire.
  void Release(uint32_t slot) {
    assert(slot < slots_.size());
    free_.push_back(slot);
  }

  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

// An event continuation that must stay inline in a SmallCallback. A capture
// that outgrows the inline buffer (anything beyond {this, slot} and a few
// scalars) fails to compile here instead of silently heap-allocating on
// every hop.
template <typename Fn>
SmallCallback InlineCallback(Fn&& fn) {
  static_assert(sizeof(std::decay_t<Fn>) <= SmallCallback::kInlineSize,
                "parked continuation outgrew SmallCallback's inline buffer");
  return SmallCallback(std::forward<Fn>(fn));
}

}  // namespace xenic::sim

#endif  // SRC_SIM_SLOT_TABLE_H_
