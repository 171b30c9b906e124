// Xenic's host-side Robinhood hash table (paper section 4.1.2).
//
// A closed hash table with linear probing and Robinhood displacement
// balancing, modified for the SmartNIC context:
//
//  * Global displacement limit Dm. An insertion whose displacement would
//    reach Dm goes to its segment's overflow bucket instead.
//  * Fixed-size segments; per-segment displacement bookkeeping backs the
//    NIC index's d_i location hints.
//  * DMA-consistent swapping: Robinhood insertion displaces existing
//    elements; the copy list is applied starting from the final (free)
//    position so a concurrent DMA region read never misses a committed key.
//    A hook runs between the individual copy steps so tests can interleave
//    reads at every intermediate state.
//  * Deletion pulls a qualifying overflow element over the hole when one
//    exists, otherwise performs a bounded backward shift (no tombstones).
//
// A slot is a 16-byte header and an 8-byte store::Value handle that owns
// one reference to the object's shared block, the block the workload's
// row, the LOG record and the NIC cache hold too. The paper keeps objects
// inline so one DMA read of d_i + k slots returns them; slot_size() is
// that logical slot (header + value_size, or header + an 8-byte pointer
// for values above kInlineValueLimit, which cost the NIC a second DMA
// read), and every modeled DMA cost reads it. ReadRegion() copies the
// 24-byte slots themselves, as the SmartNIC's DMA engine copies host
// DRAM, and the NIC index parses the copy.

#ifndef SRC_STORE_ROBINHOOD_TABLE_H_
#define SRC_STORE_ROBINHOOD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/store/types.h"

namespace xenic::store {

// Slot header layout. Field order matters: the NIC parses the headers of
// a DMA region read via SlotView.
struct SlotHeader {
  Key key;        // 8 B
  uint16_t disp;  // displacement from home slot
  uint16_t flags; // kSlotOccupied | kSlotLargeValue
  Seq seq;        // version counter
};
static_assert(sizeof(SlotHeader) == 16);

constexpr uint16_t kSlotOccupied = 1u << 0;
// The slot stands for a pointer to the value: the NIC pays a second DMA
// read for the object.
constexpr uint16_t kSlotLargeValue = 1u << 1;

constexpr size_t kInlineValueLimit = 256;

// One table slot in host DRAM.
struct Slot {
  SlotHeader header;
  Value value;  // one reference to the object's block; empty when free
};
static_assert(sizeof(Slot) == 24);

// Read-only view over one slot of a region that ReadRegion copied. The
// copied handle took no reference, so value() may be called only until
// the table's next write, which may release the block (as CommitLog::
// Peek's record is valid only until the next append); the Value it
// returns holds its own reference.
class SlotView {
 public:
  explicit SlotView(const uint8_t* bytes) : bytes_(bytes) {}

  SlotHeader header() const {
    SlotHeader h;
    std::memcpy(&h, bytes_, sizeof(h));
    return h;
  }
  bool occupied() const { return (header().flags & kSlotOccupied) != 0; }
  bool large_value() const { return (header().flags & kSlotLargeValue) != 0; }
  Key key() const { return header().key; }
  Seq seq() const { return header().seq; }
  uint16_t disp() const { return header().disp; }
  // The slot's value, sharing the table's block.
  Value value() const { return Value::FromImage(bytes_ + offsetof(Slot, value)); }

 private:
  const uint8_t* bytes_;
};

// Result of a host-local lookup.
struct LookupResult {
  Value value;
  Seq seq = 0;
};

class RobinhoodTable {
 public:
  struct Options {
    size_t capacity_log2 = 16;  // 2^n slots
    size_t value_size = 64;     // logical object size in bytes
    uint16_t max_displacement = 16;   // Dm; 0 means unlimited
    uint16_t segment_slots = 8;       // slots per segment (NIC index granularity)
  };

  explicit RobinhoodTable(const Options& options);

  // --- Host-local operations (used by local transactions and the
  // Robinhood worker threads applying committed write sets). ---
  //
  // An inline table (value_size() up to kInlineValueLimit) stores a value
  // of value_size() bytes by sharing its block, and any other value
  // zero-padded or truncated to value_size(), in table slots and overflow
  // entries alike. A large-value table shares every value as given.

  // Insert a new key. kAlreadyExists if present; kCapacity if full.
  Status Insert(Key key, const Value& value, Seq seq = 1);
  // Update an existing key in place and bump its version.
  Status Update(Key key, const Value& value);
  // Apply a committed write with an explicit version (log replay path).
  // Inserts the key if absent.
  Status Apply(Key key, const Value& value, Seq seq);
  // Remove a key (table slot or overflow).
  Status Erase(Key key);

  // The stored value shares the table's block.
  std::optional<LookupResult> Lookup(Key key) const;
  bool Contains(Key key) const;
  std::optional<Seq> GetSeq(Key key) const;

  // Every stored key, table slots in slot order then overflow buckets in
  // segment order (a deterministic full scan). Used by the failover state
  // transfer to enumerate a shard's entries; not on any hot path.
  std::vector<Key> Keys() const;

  // --- Geometry, used by the NIC index to plan DMA reads. ---

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_table_ + size_overflow_; }
  size_t overflow_size() const { return size_overflow_; }
  double Occupancy() const { return static_cast<double>(size_table_) / capacity_; }
  // The logical slot a DMA read moves (see the file comment).
  size_t slot_size() const { return slot_size_; }
  size_t value_size() const { return value_size_; }
  bool large_values() const { return large_values_; }
  uint16_t max_displacement() const { return max_displacement_; }
  uint16_t segment_slots() const { return segment_slots_; }
  size_t num_segments() const { return num_segments_; }

  size_t HomeSlot(Key key) const { return HashKey(key) & mask_; }
  size_t SegmentOfSlot(size_t slot) const { return slot / segment_slots_; }
  size_t SegmentOfKey(Key key) const { return SegmentOfSlot(HomeSlot(key)); }

  // Host-tracked upper bound on the displacement of keys homed in `segment`.
  // Monotone under inserts; Erase leaves it stale-high (the NIC pays a
  // slightly larger read, never a missed key).
  uint16_t SegmentMaxDisp(size_t segment) const { return seg_max_disp_[segment]; }
  bool SegmentHasOverflow(size_t segment) const {
    return size_overflow_ != 0 && overflow_.contains(segment);
  }
  // Recompute exact per-segment displacement bounds (maintenance sweep).
  void TightenHints();

  // Start fetching the cache lines an insert of `key` touches first: its
  // home slot and its segment's displacement bound. No state changes.
  void Prefetch(Key key) const {
    const size_t home = HomeSlot(key);
    __builtin_prefetch(&slots_[home]);
    __builtin_prefetch(&seg_max_disp_[SegmentOfSlot(home)]);
  }

  // --- DMA-visible surface. ---

  // Copy `count` slots starting at `start_slot` (wrapping) into `out`,
  // sizeof(Slot) bytes each. This is what a SmartNIC DMA read of the table
  // region returns; its handles take no reference (see SlotView).
  void ReadRegion(size_t start_slot, size_t count, std::vector<uint8_t>& out) const;
  static size_t RegionSlots(const std::vector<uint8_t>& region) {
    return region.size() / sizeof(Slot);
  }

  // Parse a raw region (as returned by ReadRegion) searching for `key`.
  // `region_start` is the slot index of the first byte. Returns the offset
  // (in slots) of the match, or nullopt.
  std::optional<size_t> FindInRegion(const std::vector<uint8_t>& region, size_t region_start,
                                     Key key) const;
  static SlotView ViewInRegion(const std::vector<uint8_t>& region, size_t slot_offset) {
    return SlotView(region.data() + slot_offset * sizeof(Slot));
  }

  struct OverflowEntry {
    Key key;
    Seq seq;
    Value value;
  };
  // A segment's overflow bucket, read in place (what a DMA read of the
  // overflow page returns); empty for a segment that never overflowed.
  const std::vector<OverflowEntry>& ReadOverflow(size_t segment) const;

  // Test hook: runs between individual copy steps of a Robinhood insert so
  // tests can interleave DMA reads at every intermediate table state.
  void set_swap_step_hook(std::function<void()> hook) { swap_step_hook_ = std::move(hook); }

  // --- Stats ---
  uint64_t total_swaps() const { return total_swaps_; }
  uint64_t total_probe_slots() const { return total_probe_slots_; }

 private:
  size_t Advance(size_t slot) const { return (slot + 1) & mask_; }

  // One copy step: move `from` (a copy of another slot, or a new element)
  // into `slot` with displacement `disp`. A copied source keeps its
  // reference until a later step overwrites it.
  void StoreSlot(size_t slot, Slot from, uint16_t disp);
  // A new element's slot image.
  Slot NewSlot(Key key, Seq seq, Value value) const;
  // The value a slot or overflow entry stores (see the size rule above).
  Value Stored(const Value& value) const;

  // Find the table slot holding `key`, if any.
  std::optional<size_t> FindSlot(Key key) const;
  const OverflowEntry* FindOverflow(Key key) const;
  // Point `key`'s slot or overflow entry at `value`; returns its version
  // for the caller to set, or null when the key is absent.
  Seq* Overwrite(Key key, const Value& value);
  // Remove `e` from its bucket, and the bucket once empty.
  void RemoveOverflow(const OverflowEntry* e);

  void NoteDisp(Key key, uint16_t disp);

  Status InsertInternal(Key key, const Value& value, Seq seq);

  size_t capacity_;
  size_t mask_;
  size_t value_size_;
  bool large_values_;
  size_t slot_size_;
  uint16_t max_displacement_;
  uint16_t segment_slots_;
  size_t num_segments_;

  std::unique_ptr<Slot[]> slots_;
  // The insert's swap chain, reused by every insert.
  std::vector<size_t> chain_;
  // Overflow buckets by segment; a segment has one only while it holds an
  // entry, so most tables keep none.
  std::map<size_t, std::vector<OverflowEntry>> overflow_;
  std::vector<uint16_t> seg_max_disp_;

  size_t size_table_ = 0;
  size_t size_overflow_ = 0;
  uint64_t total_swaps_ = 0;
  uint64_t total_probe_slots_ = 0;
  std::function<void()> swap_step_hook_;
};

}  // namespace xenic::store

#endif  // SRC_STORE_ROBINHOOD_TABLE_H_
