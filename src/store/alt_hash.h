// FaRM's remote-access hash design (paper section 4.1.4, Table 2).
//
// HopscotchTable: any key lives within a fixed neighborhood of H slots from
// its home; a remote lookup reads the H-slot neighborhood in one roundtrip
// and falls back to an overflow chain read (a second roundtrip) when the
// key spilled. It reports the same remote-lookup cost receipt as NicIndex
// so the Table 2 bench compares the designs on equal footing, and holds
// keys and versions only (object payloads are irrelevant to the
// lookup-cost comparison; byte counts use a configurable object size).
// DrTM+H's chained buckets are the baselines' own store,
// baseline::ChainedStore, whose PlanLookup counts the same roundtrips.

#ifndef SRC_STORE_ALT_HASH_H_
#define SRC_STORE_ALT_HASH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/store/types.h"

namespace xenic::store {

struct RemoteLookupStats {
  uint32_t roundtrips = 0;
  uint32_t objects_read = 0;
  uint64_t bytes_read = 0;
  bool found = false;
};

// FaRM-style Hopscotch hash table.
class HopscotchTable {
 public:
  struct Options {
    size_t capacity_log2 = 16;
    uint32_t neighborhood = 8;  // H
    size_t object_size = 32;    // bytes per object for byte accounting
  };

  explicit HopscotchTable(const Options& options);

  Status Insert(Key key, Seq seq = 1);
  bool Contains(Key key) const;

  // Remote lookup: one READ of the H-slot neighborhood; a second READ of
  // the home bucket's overflow chain if not found inline.
  std::optional<Seq> RemoteLookup(Key key, RemoteLookupStats* stats) const;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t overflow_size() const { return overflow_count_; }

 private:
  struct Slot {
    Key key = 0;
    Seq seq = 0;
    bool occupied = false;
  };

  size_t Home(Key key) const { return HashKey(key) & mask_; }

  size_t capacity_;
  size_t mask_;
  uint32_t neighborhood_;
  size_t object_size_;
  std::vector<Slot> slots_;
  // hop bitmap per home bucket: bit i set => slot home+i holds a key homed here
  std::vector<uint32_t> hop_info_;
  std::vector<std::vector<Slot>> overflow_;
  size_t size_ = 0;
  size_t overflow_count_ = 0;
};

}  // namespace xenic::store

#endif  // SRC_STORE_ALT_HASH_H_
