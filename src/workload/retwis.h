// Retwis benchmark (paper section 5.4): a Twitter-like application over a
// single key-value table. 64 B values, Zipf(0.5) key popularity, 50%
// read-only transactions, 1-10 keys per transaction, minimal coordinator
// computation. Mix follows the Meerkat / TAPIR formulation:
//   AddUser 5% (1 read, 3 writes), Follow 15% (2 reads, 2 writes),
//   PostTweet 30% (3 reads, 5 writes), GetTimeline 50% (1-10 reads).

#ifndef SRC_WORKLOAD_RETWIS_H_
#define SRC_WORKLOAD_RETWIS_H_

#include <memory>

#include "src/workload/workload.h"

namespace xenic::workload {

class Retwis : public Workload {
 public:
  struct Options {
    uint32_t num_nodes = 6;
    uint64_t keys_per_node = 100000;  // paper: 1M
    double zipf_alpha = 0.5;
    // Transaction mix weights, indexed by TxnType (Meerkat defaults).
    // Tests override, e.g. to RMW-only types for the history checker
    // (AddUser and PostTweet write keys they never read).
    std::vector<uint32_t> mix = {5, 15, 30, 50};
  };

  enum TxnType : uint8_t {
    kAddUser = 0,
    kFollow,
    kPostTweet,
    kGetTimeline,
    kNumTypes,
  };

  static constexpr TableId kStore = 0;
  static constexpr size_t kValueSize = 64;
  // The most keys one transaction touches (GetTimeline's top).
  static constexpr size_t kMaxKeys = 10;

  explicit Retwis(const Options& options);

  std::string Name() const override { return "retwis"; }
  std::vector<TableDef> Tables() const override;
  const txn::Partitioner& partitioner() const override { return part_; }
  void Load(const LoadFn& load) override;
  void NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) override;

  uint64_t total_keys() const { return total_keys_; }

 private:
  Key PickKey(Rng& rng) { return ScrambleKey(zipf_.Next(rng)) % total_keys_; }

  Options options_;
  uint64_t total_keys_;
  txn::HashPartitioner part_;
  ZipfGenerator zipf_;
};

}  // namespace xenic::workload

#endif  // SRC_WORKLOAD_RETWIS_H_
