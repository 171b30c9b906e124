// YCSB core workload (Cooper et al., SoCC '10) over a single key-value
// table: every operation touches one key drawn from a Zipfian popularity
// distribution, and a transaction groups `ops_per_txn` distinct keys. The
// knobs that matter for concurrency-control comparisons are exposed
// directly: key count, zipfian theta (0 == uniform, 0.99 == YCSB default
// "hot" skew) and the read ratio (0.5 == workload A, 0.95 == workload B).
//
// Two properties the generator guarantees by construction (and the ycsb
// tests pin):
//  * Keys ARE zipf ranks: rank r maps to key r, no scrambling, so observed
//    key frequencies can be checked against the zipf pmf directly. Placement
//    still spreads across nodes because the partitioner hashes the key.
//  * The read ratio is exact, not just expected: an error-diffusion
//    accumulator turns the ratio into a deterministic read/write pattern,
//    so any window of N generated ops contains round(N * read_ratio) +- 1
//    reads. Update ops are read-modify-writes (the key appears in the read
//    set too), which both 2PL and OCC handle and the serializability
//    checker requires.

#ifndef SRC_WORKLOAD_YCSB_H_
#define SRC_WORKLOAD_YCSB_H_

#include "src/workload/workload.h"

namespace xenic::workload {

class Ycsb : public Workload {
 public:
  struct Options {
    uint32_t num_nodes = 6;
    uint64_t keys_per_node = 100000;
    double zipf_theta = 0.99;  // 0 == uniform
    double read_ratio = 0.5;   // fraction of ops that only read
    uint32_t ops_per_txn = 4;  // distinct keys per transaction, at most kMaxOpsPerTxn
    size_t value_size = 64;
  };

  static constexpr TableId kMain = 0;
  // One bit per op marks the updates in a 64-bit word.
  static constexpr uint32_t kMaxOpsPerTxn = 64;

  explicit Ycsb(const Options& options);

  std::string Name() const override { return "ycsb"; }
  std::vector<TableDef> Tables() const override;
  const txn::Partitioner& partitioner() const override { return part_; }
  void Load(const LoadFn& load) override;
  void NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) override;

  uint64_t total_keys() const { return total_keys_; }

  // Exposed for the generator tests: one zipf-ranked key draw.
  Key PickKey(Rng& rng) { return zipf_.Next(rng); }

  // Exposed for the generator tests: deterministic read/write decision.
  bool NextOpIsRead();

 private:
  Options options_;
  uint64_t total_keys_;
  txn::HashPartitioner part_;
  ZipfGenerator zipf_;
  double read_err_ = 0.0;  // error-diffusion accumulator, in [0, 1)
};

}  // namespace xenic::workload

#endif  // SRC_WORKLOAD_YCSB_H_
