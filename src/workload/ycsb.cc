#include "src/workload/ycsb.h"

#include <algorithm>

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
      zipf_(total_keys_, options.zipf_theta) {}

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

TxnRequest Ycsb::NextTxn(NodeId coordinator, Rng& rng) {
  (void)coordinator;
  std::vector<Key> keys;
  while (keys.size() < options_.ops_per_txn) {
    const Key k = PickKey(rng);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }

  TxnRequest req;
  req.exec_cost = 80;
  req.external_bytes = 8;
  req.allow_ship = true;
  std::vector<uint32_t> write_reads;  // read-set index of each write
  for (const Key k : keys) {
    const bool is_read = NextOpIsRead();
    if (!is_read) {
      write_reads.push_back(static_cast<uint32_t>(req.reads.size()));
      req.writes.push_back({kMain, k});
    }
    // Update ops are RMW: the key is in the read set either way.
    req.reads.push_back({kMain, k});
  }
  req.tag = req.writes.empty() ? 0 : 1;  // 0 == read-only, 1 == update txn
  const size_t vsize = options_.value_size;
  req.execute = [vsize, write_reads = std::move(write_reads)](txn::ExecRound& er) {
    for (size_t i = 0; i < write_reads.size(); ++i) {
      const int64_t cur = store::GetI64((*er.reads)[write_reads[i]].value, 0);
      (*er.writes)[i].value = Payload(vsize, cur + 1);
    }
  };
  return req;
}

}  // namespace xenic::workload
