#include "src/workload/retwis.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace xenic::workload {

namespace {

store::Value Payload(uint64_t stamp) {
  store::Value v(Retwis::kValueSize, 0);
  store::PutU64(v, 0, stamp);
  return v;
}

}  // namespace

Retwis::Retwis(const Options& options)
    : options_(options),
      total_keys_(options.keys_per_node * options.num_nodes),
      part_(options.num_nodes),
      zipf_(total_keys_, options.zipf_alpha) {}

std::vector<TableDef> Retwis::Tables() const {
  // Per-node share (own shard + backed-up shards) with headroom; see the
  // sizing note in smallbank.cc.
  size_t cap = 1;
  size_t log2 = 0;
  const auto need = static_cast<size_t>(static_cast<double>(total_keys_) * 0.8);
  while (cap < need) {
    cap <<= 1;
    log2++;
  }
  return {TableDef{kStore, "kv", log2, kValueSize, 8}};
}

void Retwis::Load(const LoadFn& load) {
  for (uint64_t k = 0; k < total_keys_; ++k) {
    load(kStore, k, Payload(k));
  }
}

void Retwis::NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) {
  (void)coordinator;
  const auto type = static_cast<TxnType>(rng.NextWeighted(options_.mix));

  TxnRequest& req = *out;
  req.Clear();
  req.tag = type;
  req.exec_cost = 80;  // minimal coordinator-side computation
  req.external_bytes = 8;
  req.allow_ship = true;

  // Distinct keys, drawn in order into fixed scratch.
  std::array<Key, kMaxKeys> keys{};
  size_t n = 0;
  auto pick_distinct = [&](size_t count) {
    assert(count <= kMaxKeys);
    n = 0;
    while (n < count) {
      const Key k = PickKey(rng);
      if (std::find(keys.begin(), keys.begin() + n, k) == keys.begin() + n) {
        keys[n++] = k;
      }
    }
  };
  auto add = [&](std::vector<txn::KeyRef>* set, size_t from, size_t to) {
    set->reserve(to - from);
    for (size_t i = from; i < to; ++i) {
      set->push_back({kStore, keys[i]});
    }
  };
  const uint64_t stamp = rng.Next();

  switch (type) {
    case kAddUser:
      pick_distinct(3);
      add(&req.reads, 0, 1);
      add(&req.writes, 0, n);
      break;
    case kFollow:
      pick_distinct(2);
      add(&req.reads, 0, n);
      add(&req.writes, 0, n);
      break;
    case kPostTweet:
      pick_distinct(5);
      add(&req.reads, 0, 3);
      add(&req.writes, 0, n);
      break;
    case kGetTimeline:
      pick_distinct(rng.NextRange(1, kMaxKeys));
      add(&req.reads, 0, n);
      break;
    default:
      break;
  }

  const size_t n_writes = req.writes.size();
  req.execute = [stamp, n_writes](txn::ExecRound& er) {
    for (size_t i = 0; i < n_writes; ++i) {
      (*er.writes)[i].value = Payload(stamp + i);
    }
  };
}

}  // namespace xenic::workload
