#include "src/store/commit_log.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <utility>

namespace xenic::store {

namespace {

// The write store's first size: a few records' worth.
constexpr size_t kMinWrites = 64;

}  // namespace

CommitLog::~CommitLog() {
  for (size_t i = 0; i < size_; ++i) {
    const LogRecordView& rec = At(i);
    if (!rec.writes.empty()) {
      std::destroy_n(writes_ + Offset(rec), rec.writes.size());
    }
  }
  std::allocator<LogWrite>().deallocate(writes_, writes_cap_);
}

Result<uint64_t> CommitLog::Append(const LogHeader& header, std::vector<LogWrite>* writes) {
  if (Full()) {
    return Status::Capacity("log ring full");
  }
  std::uninitialized_move(writes->begin(), writes->end(), Push(header, writes->size()));
  writes->clear();
  return next_lsn_ - 1;
}

Result<uint64_t> CommitLog::AppendCopy(const LogHeader& header,
                                       std::span<const LogWrite> writes) {
  if (Full()) {
    return Status::Capacity("log ring full");
  }
  std::uninitialized_copy(writes.begin(), writes.end(), Push(header, writes.size()));
  return next_lsn_ - 1;
}

LogWrite* CommitLog::Push(const LogHeader& header, size_t n) {
  if (size_ == ring_.size()) {
    Grow();
  }
  LogWrite* writes = n > 0 ? PlaceWrites(n) : nullptr;
  LogRecordView& rec = At(size_++);
  rec = LogRecordView(header, {writes, n});
  rec.lsn = next_lsn_++;
  return writes;
}

LogWrite* CommitLog::PlaceWrites(size_t n) {
  for (;;) {
    const size_t gap = writes_tail_ + n <= writes_cap_ ? 0 : writes_cap_ - writes_tail_;
    if (writes_used_ + gap + n <= writes_cap_) {
      const size_t at = gap == 0 ? writes_tail_ : 0;
      writes_used_ += gap + n;
      writes_tail_ = (at + n) & (writes_cap_ - 1);
      return writes_ + at;
    }
    GrowWrites(n);
  }
}

void CommitLog::GrowWrites(size_t n) {
  size_t live = 0;
  for (size_t i = 0; i < size_; ++i) {
    live += At(i).writes.size();
  }
  size_t cap = std::max(kMinWrites, writes_cap_ * 2);
  while (cap < live + n) {
    cap *= 2;
  }
  LogWrite* grown = std::allocator<LogWrite>().allocate(cap);
  size_t tail = 0;
  for (size_t i = 0; i < size_; ++i) {
    LogRecordView& rec = At(i);
    if (rec.writes.empty()) {
      continue;
    }
    LogWrite* from = writes_ + Offset(rec);
    std::uninitialized_move_n(from, rec.writes.size(), grown + tail);
    std::destroy_n(from, rec.writes.size());
    rec.writes = {grown + tail, rec.writes.size()};
    tail += rec.writes.size();
  }
  std::allocator<LogWrite>().deallocate(writes_, writes_cap_);
  writes_ = grown;
  writes_cap_ = cap;
  writes_head_ = 0;
  writes_tail_ = tail;
  writes_used_ = tail;
}

void CommitLog::Grow() {
  const size_t slots = std::min(std::max<size_t>(16, ring_.size() * 2), std::bit_ceil(capacity_));
  std::vector<LogRecordView> grown(slots);
  for (size_t i = 0; i < size_; ++i) {
    grown[i] = At(i);
  }
  ring_ = std::move(grown);
  head_ = 0;
}

const LogRecordView* CommitLog::Peek() const {
  if (applied_ >= size_) {
    return nullptr;
  }
  return &At(applied_);
}

void CommitLog::PopApplied() {
  assert(applied_ < size_);
  applied_++;
}

void CommitLog::Reclaim(uint64_t upto) {
  while (size_ > 0 && At(0).lsn < upto) {
    assert(applied_ > 0 && "reclaiming a record the host has not applied");
    const LogRecordView& rec = At(0);
    if (!rec.writes.empty()) {
      // Free the store from its head through the record's last write,
      // with the gap skipped before the record if it wrapped.
      const size_t at = Offset(rec);
      const size_t end = at + rec.writes.size();
      std::destroy_n(writes_ + at, rec.writes.size());
      writes_used_ -= at >= writes_head_ ? end - writes_head_ : writes_cap_ - writes_head_ + end;
      writes_head_ = end & (writes_cap_ - 1);
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    size_--;
    applied_--;
  }
}

}  // namespace xenic::store
