#include "src/workload/ycsb.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace xenic::workload {

namespace {

store::Value Payload(size_t size, int64_t counter) {
  store::Value v(size, 0);
  store::PutI64(v, 0, counter);
  return v;
}

}  // namespace

Ycsb::Ycsb(const Options& options)
    : options_(options),
      total_keys_(options.keys_per_node * options.num_nodes),
      part_(options.num_nodes),
      zipf_(total_keys_, options.zipf_theta) {
  assert(options.ops_per_txn <= kMaxOpsPerTxn);
}

std::vector<TableDef> Ycsb::Tables() const {
  // Per-node share (own shard + backed-up shards) with headroom; see the
  // sizing note in smallbank.cc.
  size_t cap = 1;
  size_t log2 = 0;
  const auto need = static_cast<size_t>(static_cast<double>(total_keys_) * 0.8);
  while (cap < need) {
    cap <<= 1;
    log2++;
  }
  return {TableDef{kMain, "usertable", log2, options_.value_size, 8}};
}

void Ycsb::Load(const LoadFn& load) {
  const Value initial = Payload(options_.value_size, 0);  // shared by every key
  for (uint64_t k = 0; k < total_keys_; ++k) {
    load(kMain, k, initial);
  }
}

bool Ycsb::NextOpIsRead() {
  // Error diffusion: accumulate the ratio and emit a read each time the
  // accumulator crosses 1. Over any N ops the read count is within one of
  // N * read_ratio -- exact, unlike a Bernoulli draw.
  read_err_ += options_.read_ratio;
  if (read_err_ >= 1.0) {
    read_err_ -= 1.0;
    return true;
  }
  return false;
}

void Ycsb::NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) {
  (void)coordinator;
  const size_t n = options_.ops_per_txn;
  std::array<Key, kMaxOpsPerTxn> keys{};
  for (size_t picked = 0; picked < n;) {
    const Key k = PickKey(rng);
    if (std::find(keys.begin(), keys.begin() + picked, k) == keys.begin() + picked) {
      keys[picked++] = k;
    }
  }
  // Bit i set: op i is an update (a read-modify-write).
  uint64_t updates = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!NextOpIsRead()) {
      updates |= uint64_t{1} << i;
    }
  }

  TxnRequest& req = *out;
  req.Clear();
  req.exec_cost = 80;
  req.external_bytes = 8;
  req.allow_ship = true;
  // Update ops are RMW: the key is in the read set either way.
  req.reads.reserve(n);
  req.writes.reserve(static_cast<size_t>(std::popcount(updates)));
  for (size_t i = 0; i < n; ++i) {
    if ((updates >> i & 1) != 0) {
      req.writes.push_back({kMain, keys[i]});
    }
    req.reads.push_back({kMain, keys[i]});
  }
  req.tag = req.writes.empty() ? 0 : 1;  // 0 == read-only, 1 == update txn
  const size_t vsize = options_.value_size;
  req.execute = [vsize, updates](txn::ExecRound& er) {
    // Write i updates the read of the i-th set bit.
    size_t w = 0;
    for (uint64_t rest = updates; rest != 0; rest &= rest - 1) {
      const int64_t cur = store::GetI64((*er.reads)[std::countr_zero(rest)].value, 0);
      (*er.writes)[w++].value = Payload(vsize, cur + 1);
    }
  };
}

}  // namespace xenic::workload
