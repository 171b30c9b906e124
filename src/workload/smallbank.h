// Smallbank benchmark (paper section 5.5): simple transactions over
// checking and savings account balances. 12-byte objects; 15% read-only
// (Balance); 90% of transactions touch a 4% hotspot; up to 3 keys and at
// most two shards per transaction, so most writes qualify for Xenic's
// multi-hop shipped path.
//
// Standard H-Store mix: Amalgamate 15%, Balance 15%, DepositChecking 15%,
// SendPayment 25%, TransactSavings 15%, WriteCheck 15%.

#ifndef SRC_WORKLOAD_SMALLBANK_H_
#define SRC_WORKLOAD_SMALLBANK_H_

#include "src/workload/workload.h"

namespace xenic::workload {

class Smallbank : public Workload {
 public:
  struct Options {
    uint32_t num_nodes = 6;
    uint64_t accounts_per_node = 100000;  // paper: 2.4M
    double hot_txn_fraction = 0.9;        // 90% of txns...
    double hot_key_fraction = 0.04;       // ...hit 4% of keys
    // Transaction mix weights, indexed by TxnType (H-Store defaults).
    // Tests override, e.g. to money-conserving types only.
    std::vector<uint32_t> mix = {15, 15, 15, 25, 15, 15};
  };

  enum TxnType : uint8_t {
    kAmalgamate = 0,
    kBalance,
    kDepositChecking,
    kSendPayment,
    kTransactSavings,
    kWriteCheck,
    kNumTypes,
  };

  static constexpr TableId kSavings = 0;
  static constexpr TableId kChecking = 1;
  static constexpr size_t kValueSize = 12;

  explicit Smallbank(const Options& options);

  std::string Name() const override { return "smallbank"; }
  std::vector<TableDef> Tables() const override;
  const txn::Partitioner& partitioner() const override { return part_; }
  void Load(const LoadFn& load) override;
  void NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) override;

  uint64_t total_accounts() const { return total_accounts_; }

  // Sum of all balances (both tables) at load time; invariant under the
  // write mix (used by consistency tests).
  int64_t initial_total() const;

 private:
  // Range partitioner: account a lives on node a / accounts_per_node.
  class RangePartitioner : public txn::Partitioner {
   public:
    explicit RangePartitioner(uint64_t per_node, uint32_t nodes)
        : per_node_(per_node), nodes_(nodes) {}
    NodeId PrimaryOf(TableId table, Key key) const override {
      (void)table;
      return static_cast<NodeId>((key / per_node_) % nodes_);
    }

   private:
    uint64_t per_node_;
    uint32_t nodes_;
  };

  Key PickAccount(Rng& rng) const;

  Options options_;
  uint64_t total_accounts_;
  RangePartitioner part_;
};

}  // namespace xenic::workload

#endif  // SRC_WORKLOAD_SMALLBANK_H_
