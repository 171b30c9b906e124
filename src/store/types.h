// Core identifier and value types shared by the data store and protocols.

#ifndef SRC_STORE_TYPES_H_
#define SRC_STORE_TYPES_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/rng.h"

namespace xenic::store {

using Key = uint64_t;
using Seq = uint32_t;    // per-object version counter
using TableId = uint16_t;
using NodeId = uint32_t;
using TxnId = uint64_t;  // (node index << 40) | sequence number

constexpr TxnId kNoTxn = 0;

// Value bytes: an 8-byte copy-on-write handle to one heap block holding
// the size and the bytes. Values are small (4-660 B in the paper's
// workloads) but travel far: one loaded row sits in three replicas' host
// tables and NIC caches, and one written value rides the coordinator's
// write set, every LOG and COMMIT record and the pending-read index. A
// copy shares the block and reads never change it; mutable_data(), the
// only writer, first detaches a shared block, so a write through one copy
// never shows through another. Wire and DMA sizes are computed from
// size(), so sharing moves no modeled number. The reference count is
// atomic, as in std::shared_ptr, because sweep points run on parallel
// threads. An empty value holds no block.
class Value {
 public:
  Value() noexcept = default;
  Value(size_t size, uint8_t fill) : block_(Block::Make(size)) {
    if (block_ != nullptr) {
      std::memset(block_->bytes(), fill, size);
    }
  }
  template <std::forward_iterator It>
  Value(It first, It last) : block_(Block::Make(static_cast<size_t>(std::distance(first, last)))) {
    if (block_ != nullptr) {
      std::copy(first, last, block_->bytes());
    }
  }
  Value(const Value& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      ++block_->refs;
    }
  }
  Value(Value&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  Value& operator=(const Value& other) noexcept {
    Value(other).swap(*this);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value(std::move(other)).swap(*this);
    return *this;
  }
  ~Value() { Release(block_); }

  void swap(Value& other) noexcept { std::swap(block_, other.block_); }

  const uint8_t* data() const { return block_ != nullptr ? block_->bytes() : nullptr; }
  size_t size() const { return block_ != nullptr ? block_->size : 0; }
  bool empty() const { return block_ == nullptr; }
  uint8_t operator[](size_t i) const {
    assert(i < size());
    return data()[i];
  }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }
  // Handles sharing this value's block (0 when empty).
  uint32_t use_count() const {
    return block_ != nullptr ? block_->refs.load() : 0;
  }

  // A handle read back from `image`, a byte copy of a live Value (a
  // table slot's DMA image, RobinhoodTable::ReadRegion). The copy took no
  // reference; the returned handle shares the block, which the copied
  // Value must still hold.
  static Value FromImage(const uint8_t* image) {
    Value v;
    std::memcpy(&v.block_, image, sizeof(v.block_));
    if (v.block_ != nullptr) {
      ++v.block_->refs;
    }
    return v;
  }

  // The one writer: detaches a shared block (copying its bytes) so the
  // caller owns the bytes it is about to change.
  uint8_t* mutable_data() {
    if (block_ != nullptr && block_->refs.load() != 1) {
      Value(begin(), end()).swap(*this);
    }
    return block_ != nullptr ? block_->bytes() : nullptr;
  }

  friend bool operator==(const Value& a, const Value& b) {
    return a.block_ == b.block_ ||
           (a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

 private:
  struct Block {
    std::atomic<uint32_t> refs;
    uint32_t size;
    uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }

    static Block* Make(size_t size) {
      if (size == 0) {
        return nullptr;
      }
      assert(size <= UINT32_MAX);
      return new (::operator new(sizeof(Block) + size)) Block{{1}, static_cast<uint32_t>(size)};
    }
  };
  static_assert(sizeof(Block) == 8);

  static void Release(Block* b) {
    if (b != nullptr && --b->refs == 0) {
      b->~Block();
      ::operator delete(b);
    }
  }

  Block* block_ = nullptr;
};
static_assert(sizeof(Value) == 8 && std::is_standard_layout_v<Value>);  // bytes == block_

inline Value MakeValue(size_t size, uint8_t fill) { return Value(size, fill); }

// Encode a uint64 into the first 8 bytes of a value (workload payloads).
inline void PutU64(Value& v, size_t offset, uint64_t x) {
  assert(offset + sizeof(x) <= v.size());
  std::memcpy(v.mutable_data() + offset, &x, sizeof(x));
}
inline uint64_t GetU64(const Value& v, size_t offset) {
  uint64_t x = 0;
  std::memcpy(&x, v.data() + offset, sizeof(x));
  return x;
}
inline void PutI64(Value& v, size_t offset, int64_t x) {
  PutU64(v, offset, static_cast<uint64_t>(x));
}
inline int64_t GetI64(const Value& v, size_t offset) {
  return static_cast<int64_t>(GetU64(v, offset));
}

// Hash used for table placement. Must match between the host table and the
// NIC index (the NIC plans DMA reads from the key's home slot).
inline uint64_t HashKey(Key key) { return ScrambleKey(key); }

// Build a transaction id from node index and per-node sequence.
inline TxnId MakeTxnId(NodeId node, uint64_t seq) {
  return (static_cast<TxnId>(node + 1) << 40) | (seq & ((1ull << 40) - 1));
}
inline NodeId TxnNode(TxnId id) { return static_cast<NodeId>(id >> 40) - 1; }
inline uint64_t TxnSeq(TxnId id) { return id & ((1ull << 40) - 1); }

}  // namespace xenic::store

#endif  // SRC_STORE_TYPES_H_
