#include "src/baseline/baseline_store.h"

#include <cassert>

namespace xenic::baseline {

ChainedStore::ChainedStore(const Options& options)
    : num_buckets_(1), mask_(0), bucket_slots_(options.bucket_slots),
      value_size_(options.value_size) {
  const size_t target = (size_t{1} << options.capacity_log2) / options.bucket_slots;
  while (num_buckets_ * 2 <= target) {
    num_buckets_ *= 2;
  }
  mask_ = num_buckets_ - 1;
  buckets_.resize(num_buckets_);
  for (auto& b : buckets_) {
    b.slots.resize(bucket_slots_);
  }
}

const ChainedStore::Object* ChainedStore::Lookup(Key key) const {
  const Bucket* b = &buckets_[HomeBucket(key)];
  while (b != nullptr) {
    for (const auto& s : b->slots) {
      if (s.occupied && s.key == key) {
        return &s;
      }
    }
    b = NextBucket(*b);
  }
  return nullptr;
}

ChainedStore::Object* ChainedStore::LookupMutable(Key key) {
  return const_cast<Object*>(Lookup(key));
}

xenic::Status ChainedStore::Insert(Key key, const Value& value, Seq seq) {
  if (Lookup(key) != nullptr) {
    return xenic::Status::AlreadyExists();
  }
  bool in_main = true;
  size_t idx = HomeBucket(key);
  while (true) {
    Bucket& b = in_main ? buckets_[idx] : chain_pool_[idx];
    for (auto& s : b.slots) {
      if (!s.occupied) {
        s = Object{key, seq, store::kNoTxn, value, true};
        size_++;
        return xenic::Status::Ok();
      }
    }
    if (b.next < 0) {
      const auto new_idx = static_cast<int32_t>(chain_pool_.size());
      chain_pool_.emplace_back();
      chain_pool_.back().slots.resize(bucket_slots_);
      chain_pool_.back().slots[0] = Object{key, seq, store::kNoTxn, value, true};
      size_++;
      Bucket& prev = in_main ? buckets_[idx] : chain_pool_[idx];
      prev.next = new_idx;
      return xenic::Status::Ok();
    }
    in_main = false;
    idx = static_cast<size_t>(b.next);
  }
}

xenic::Status ChainedStore::Apply(Key key, const Value& value, Seq seq) {
  if (Object* o = LookupMutable(key)) {
    o->value = value;
    o->seq = seq;
    return xenic::Status::Ok();
  }
  return Insert(key, value, seq);
}

xenic::Status ChainedStore::Erase(Key key) {
  if (Object* o = LookupMutable(key)) {
    *o = Object{};
    size_--;
    return xenic::Status::Ok();
  }
  return xenic::Status::NotFound();
}

bool ChainedStore::TryLock(Key key, TxnId txn) {
  Object* o = LookupMutable(key);
  if (o == nullptr) {
    // Insert a placeholder so the lock word exists (insert-locking).
    xenic::Status s = Insert(key, Value(), 0);
    assert(s.ok());
    (void)s;
    o = LookupMutable(key);
  }
  if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
    return false;
  }
  o->lock_owner = txn;
  return true;
}

void ChainedStore::Unlock(Key key, TxnId txn) {
  if (Object* o = LookupMutable(key)) {
    if (o->lock_owner == txn) {
      o->lock_owner = store::kNoTxn;
      // Placeholder inserted by insert-locking with no committed value:
      // remove it again.
      if (o->seq == 0 && o->value.empty()) {
        *o = Object{};
        size_--;
      }
    }
  }
}

ChainedStore::LookupPlan ChainedStore::PlanLookup(Key key) const {
  LookupPlan plan;
  plan.roundtrips = 0;
  const Bucket* b = &buckets_[HomeBucket(key)];
  while (b != nullptr) {
    plan.roundtrips++;
    plan.bytes += static_cast<uint64_t>(bucket_slots_) * object_bytes();
    for (const auto& s : b->slots) {
      if (s.occupied && s.key == key) {
        plan.found = true;
        return plan;
      }
    }
    b = NextBucket(*b);
  }
  return plan;
}

BaselineStore::BaselineStore(const std::vector<TableSpec>& specs) {
  tables_.resize(specs.size());
  for (const auto& spec : specs) {
    assert(spec.id < specs.size());
    ChainedStore::Options o;
    o.capacity_log2 = spec.capacity_log2;
    o.value_size = spec.value_size;
    tables_[spec.id] = std::make_unique<ChainedStore>(o);
  }
}

store::ApplyOutcome BaselineStore::ApplyLogRecord(const store::LogRecord& record,
                                                  bool /*stability_gate*/) {
  for (const auto& w : record.writes) {
    if (w.table < tables_.size()) {  // else workload-managed: the drain's apply hook takes it
      ApplyWrite(w);
    }
  }
  return store::ApplyOutcome::kApplied;
}

void BaselineStore::ApplyWrite(const store::LogWrite& w) {
  if (w.is_delete) {
    tables_[w.table]->Erase(w.key);
  } else {
    tables_[w.table]->Apply(w.key, w.value, w.seq);
  }
}

}  // namespace xenic::baseline
