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
  slots_.resize(num_buckets_ * bucket_slots_);
  next_.assign(num_buckets_, kNoBucket);
}

const ChainedStore::Object* ChainedStore::Lookup(Key key) const {
  for (size_t b = HomeBucket(key); b != kNoBucket; b = next_[b]) {
    const Object* slots = Slots(b);
    for (uint32_t i = 0; i < bucket_slots_; ++i) {
      if (slots[i].occupied && slots[i].key == key) {
        return &slots[i];
      }
    }
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
  size_t b = HomeBucket(key);
  while (true) {
    Object* slots = Slots(b);
    for (uint32_t i = 0; i < bucket_slots_; ++i) {
      if (!slots[i].occupied) {
        slots[i] = Object{key, store::kNoTxn, value, seq, true};
        size_++;
        return xenic::Status::Ok();
      }
    }
    if (next_[b] == kNoBucket) {
      // Chain a fresh bucket and take its first slot.
      const auto chained = static_cast<uint32_t>(next_.size());
      next_.push_back(kNoBucket);
      chain_slots_.resize(chain_slots_.size() + bucket_slots_);
      next_[b] = chained;
      Slots(chained)[0] = Object{key, store::kNoTxn, value, seq, true};
      size_++;
      return xenic::Status::Ok();
    }
    b = next_[b];
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
  for (size_t b = HomeBucket(key); b != kNoBucket; b = next_[b]) {
    plan.roundtrips++;
    plan.bytes += static_cast<uint64_t>(bucket_slots_) * object_bytes();
    const Object* slots = Slots(b);
    for (uint32_t i = 0; i < bucket_slots_; ++i) {
      if (slots[i].occupied && slots[i].key == key) {
        plan.found = true;
        return plan;
      }
    }
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

store::ApplyOutcome BaselineStore::ApplyLogRecord(const store::LogRecordView& record,
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
