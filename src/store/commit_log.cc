#include "src/store/commit_log.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace xenic::store {

Result<uint64_t> CommitLog::Append(LogRecord record) {
  if (size_ >= capacity_) {
    return Status::Capacity("log ring full");
  }
  if (size_ == ring_.size()) {
    Grow();
  }
  record.lsn = next_lsn_++;
  const uint64_t lsn = record.lsn;
  At(size_++) = std::move(record);
  return lsn;
}

void CommitLog::Grow() {
  const size_t slots = std::min(std::max<size_t>(16, ring_.size() * 2), std::bit_ceil(capacity_));
  std::vector<LogRecord> grown(slots);
  for (size_t i = 0; i < size_; ++i) {
    grown[i] = std::move(At(i));
  }
  ring_ = std::move(grown);
  head_ = 0;
}

const LogRecord* CommitLog::Peek() const {
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
    LogRecord& rec = At(0);
    if (spare_writes_.size() < kSpareWrites && rec.writes.capacity() > 0) {
      rec.writes.clear();
      spare_writes_.push_back(std::move(rec.writes));
    }
    rec = LogRecord{};  // drops what the record still holds
    head_ = (head_ + 1) & (ring_.size() - 1);
    size_--;
    applied_--;
  }
}

std::vector<LogRecord> CommitLog::Snapshot() const {
  std::vector<LogRecord> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(At(i));
  }
  return out;
}

}  // namespace xenic::store
