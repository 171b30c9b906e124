#include "src/store/commit_log.h"

#include <cassert>

namespace xenic::store {

Result<uint64_t> CommitLog::Append(LogRecord record) {
  if (records_.size() >= capacity_) {
    return Status::Capacity("log ring full");
  }
  record.lsn = next_lsn_++;
  const uint64_t lsn = record.lsn;
  records_.push_back(std::move(record));
  return lsn;
}

const LogRecord* CommitLog::Peek() const {
  if (applied_ >= records_.size()) {
    return nullptr;
  }
  return &records_[applied_];
}

void CommitLog::PopApplied() {
  assert(applied_ < records_.size());
  applied_++;
}

void CommitLog::Reclaim(uint64_t upto) {
  while (!records_.empty() && records_.front().lsn < upto) {
    assert(applied_ > 0 && "reclaiming a record the host has not applied");
    std::vector<LogWrite>& writes = records_.front().writes;
    if (spare_writes_.size() < kSpareWrites && writes.capacity() > 0) {
      writes.clear();
      spare_writes_.push_back(std::move(writes));
    }
    records_.pop_front();
    applied_--;
    base_lsn_++;
  }
}

}  // namespace xenic::store
