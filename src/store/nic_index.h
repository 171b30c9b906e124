// SmartNIC caching index over the host Robinhood table (paper section 4.1.3).
//
// NIC DRAM holds, per host-table segment, an index entry containing:
//   * a small cache of objects homed in that segment: four fixed ways
//     stored in the entry, then overflow positions allocated only when a
//     segment outgrows them (the entry's chained overflow pages),
//   * transaction metadata (lock owner, version) for objects touched by
//     ongoing transactions,
//   * the highest known displacement d_i of keys homed in the segment and
//     an overflow flag, which turn cache-miss lookups into a single bounded
//     DMA region read in the common case.
//
// The index is a pure data structure: every remote lookup executes
// synchronously against the host table's DMA-visible surface (ReadRegion /
// ReadOverflow) and returns a cost receipt (DMA reads issued, slots and
// bytes read, cache hit or miss). A hit and a miss both serve the object's
// shared block, the one the host slot holds; the receipt prices a miss by
// the table's logical slot_size() and, for a large-value table, a second
// single-object read. The NIC runtime converts receipts into simulated DMA
// latency and batching behaviour; benches aggregate them directly for
// Table 2.

#ifndef SRC_STORE_NIC_INDEX_H_
#define SRC_STORE_NIC_INDEX_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/store/robinhood_table.h"
#include "src/store/types.h"

namespace xenic::store {

class NicIndex {
 public:
  struct Options {
    uint16_t hint_slack = 1;     // k: slots read beyond d_i (paper picks 1)
    uint64_t memory_budget = 0;  // bytes of NIC DRAM for cached objects; 0 = unlimited
    bool cache_values = true;    // admit looked-up values (Table 2 turns this off)
    // Admit keys into the cache at bulk-load time (models the steady-state
    // warm cache of a long-running deployment; the LiquidIO's 16 GB DRAM
    // comfortably holds the benchmarks' hot tables).
    bool admit_on_load = true;
  };

  // Cost receipt for one remote operation.
  struct LookupStats {
    uint32_t dma_reads = 0;      // region + overflow + large-value reads
    uint32_t objects_read = 0;   // host slots / overflow entries scanned
    uint64_t bytes_read = 0;     // DMA payload bytes
    bool cache_hit = false;
    bool found = false;
  };

  struct RemoteObject {
    Value value;
    Seq seq = 0;
    TxnId lock_owner = kNoTxn;
    bool from_cache = false;
  };

  NicIndex(const RobinhoodTable* host, const Options& options);

  // --- Remote data path (server-side NIC handlers). ---

  // Full remote lookup: cache first, then planned DMA reads against the
  // host table. Admits the object into the cache when cache_values is on.
  std::optional<RemoteObject> LookupRemote(Key key, LookupStats* stats);

  // Version/lock probe for VALIDATE: same read path, value decode skipped.
  std::optional<RemoteObject> ReadMetadata(Key key, LookupStats* stats);

  // --- Transaction metadata (locks live only in NIC memory). ---

  // Acquire the write lock for `txn`. Fails with kAborted when another
  // transaction holds it. Creates a metadata-only entry if needed.
  Status AcquireLock(Key key, TxnId txn);
  void ReleaseLock(Key key, TxnId txn);
  bool IsLocked(Key key) const;
  TxnId LockOwner(Key key) const;

  // --- Commit path. ---

  // Apply a committed write to the cached copy and pin it until the host
  // worker has applied the log record (lookups must not read a stale host
  // slot). Creates the cached entry if absent.
  void ApplyCommit(Key key, const Value& value, Seq seq);

  // Host worker finished applying this key's write; unpin and refresh the
  // location hint (the ack piggybacks the segment's current displacement
  // bound and overflow state on host-to-NIC traffic).
  void OnHostApplied(Key key, uint16_t segment_disp, bool has_overflow);

  // Bulk-load admission (no cost receipt; see Options::admit_on_load).
  void AdmitOnLoad(Key key, const Value& value, Seq seq);

  // --- Hint maintenance. ---

  void UpdateHint(size_t segment, uint16_t disp, bool has_overflow);
  // Start fetching `key`'s index entry (a bulk load's next touch). No
  // state changes.
  void Prefetch(Key key) const;
  // Bootstrap all hints from the host table (rack bring-up / recovery).
  void SyncHintsFromHost();
  uint16_t HintOf(size_t segment) const { return entries_[segment].d_hint; }

  // --- Introspection. ---

  bool IsCached(Key key) const;
  std::optional<Seq> CachedSeq(Key key) const;
  // Audit surface: every cached object with a value, as (key, seq, value).
  // Used by coherence checks (cache must agree with the host table once
  // the system quiesces).
  struct CachedEntry {
    Key key;
    Seq seq;
    const Value* value;
    bool pinned;
    bool locked;
  };
  std::vector<CachedEntry> CachedEntries() const;

  // Audit/recovery surface: every key whose NIC-resident lock word is held,
  // with its owner. Includes metadata-only entries (no cached value), which
  // CachedEntries() skips -- locks live only in NIC memory, so this is the
  // authoritative lock table for leak audits and coordinator-crash sweeps.
  struct LockedKey {
    Key key;
    TxnId owner;
  };
  std::vector<LockedKey> LockedKeys() const;

  // Drop a key's cached value (metadata/locks survive); used when a backup
  // is promoted to primary: its cache was never maintained by the commit
  // protocol and must refill from the (recovered) host table.
  void Invalidate(Key key);
  uint64_t cached_objects() const { return cached_objects_; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t pinned_objects() const { return pinned_objects_; }

 private:
  struct CachedObject {
    Key key = 0;
    TxnId lock_owner = kNoTxn;
    Value value;
    Seq seq = 0;
    uint16_t pin_count = 0;
    bool ref : 1 = false;  // CLOCK reference bit
    bool valid : 1 = false;
    bool has_value : 1 = false;
  };
  static_assert(sizeof(CachedObject) == 32);

  // An entry's cache positions in order: the inline ways, then the
  // overflow positions. Positions are never removed, so a position index
  // is stable; Ensure reuses the first free one.
  static constexpr size_t kInlineWays = 4;
  struct IndexEntry {
    std::array<CachedObject, kInlineWays> ways;
    std::vector<CachedObject> overflow;
    uint16_t d_hint = 0;
    bool has_overflow = false;

    size_t positions() const { return kInlineWays + overflow.size(); }
    CachedObject& at(size_t i) { return i < kInlineWays ? ways[i] : overflow[i - kInlineWays]; }
    const CachedObject& at(size_t i) const {
      return i < kInlineWays ? ways[i] : overflow[i - kInlineWays];
    }
  };

  CachedObject* Find(Key key);
  const CachedObject* Find(Key key) const;
  // Find-or-create a cache slot for `key` (evicting if over budget).
  CachedObject* Ensure(Key key);
  void Release(CachedObject& obj);
  uint64_t CostOf(const CachedObject& obj) const { return 48 + obj.value.size(); }
  void EvictUntilWithinBudget();

  // Shared miss path; when want_value is false a large value's second
  // read is skipped (VALIDATE only needs the version).
  std::optional<RemoteObject> MissPath(Key key, bool want_value, LookupStats* stats);

  const RobinhoodTable* host_;
  Options options_;
  uint16_t dm_;  // host displacement limit (probe cap)
  std::vector<IndexEntry> entries_;
  uint64_t cached_objects_ = 0;
  uint64_t cached_bytes_ = 0;
  uint64_t pinned_objects_ = 0;
  uint64_t evictions_ = 0;
  size_t clock_segment_ = 0;
  size_t clock_way_ = 0;
  std::vector<uint8_t> region_buf_;  // scratch for DMA region reads
};

}  // namespace xenic::store

#endif  // SRC_STORE_NIC_INDEX_H_
