// PendingIndex: the Datastore's pending-read index (Datastore::FreshLookup).
// For each (table, key) with COMMIT writes that are appended to the host
// log but not yet applied, those writes in log order.
//
// A flat open-addressing table: linear probing from a multiplicative hash,
// at most three quarters full, and erase by shifting the rest of the probe
// run back, so no tombstones build up. A slot holds its key's oldest
// pending write inline; only a second write to the same key spills to the
// slot's vector, which keeps its capacity when the slot is reused. So a
// key new to the index costs no allocation, even while the log grows
// faster than its workers apply it; the table itself allocates only when
// it doubles. The index is only ever looked up, never iterated, so the
// slot order cannot reach a schedule.

#ifndef SRC_STORE_PENDING_INDEX_H_
#define SRC_STORE_PENDING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/store/types.h"

namespace xenic::store {

class PendingIndex {
 public:
  struct Write {
    uint64_t lsn = 0;  // of the COMMIT record that carries it
    Seq seq = 0;
    Value value;
    bool is_delete = false;
  };

  // The newest pending write of `key`, or nullptr. Valid until the next
  // Push or Erase.
  const Write* Newest(uint64_t key) const;
  // Adds `w` as `key`'s newest pending write.
  void Push(uint64_t key, Write w);
  // Drops `key`'s writes from record `lsn`; the key leaves the index with
  // its last write.
  void Erase(uint64_t key, uint64_t lsn);
  // Keys with pending writes.
  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    bool used = false;
    Write first;               // the oldest pending write
    std::vector<Write> later;  // the rest, oldest first
  };

  size_t Home(uint64_t key) const;
  // The slot holding `key`, or the free slot that ends its probe run.
  size_t Probe(uint64_t key) const;
  void Grow();
  void EraseSlot(size_t slot);

  std::vector<Slot> slots_;  // a power of two in size, or empty
  uint32_t shift_ = 64;      // 64 - log2(slots_.size())
  size_t size_ = 0;
};

}  // namespace xenic::store

#endif  // SRC_STORE_PENDING_INDEX_H_
