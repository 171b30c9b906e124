#include "src/workload/smallbank.h"

#include <cmath>

namespace xenic::workload {

namespace {

constexpr int64_t kInitialBalance = 10000;

store::Value Bal(int64_t v) {
  store::Value out(Smallbank::kValueSize, 0);
  store::PutI64(out, 0, v);
  return out;
}

int64_t BalOf(const store::Value& v) { return store::GetI64(v, 0); }

}  // namespace

Smallbank::Smallbank(const Options& options)
    : options_(options),
      total_accounts_(options.accounts_per_node * options.num_nodes),
      part_(options.accounts_per_node, options.num_nodes) {}

std::vector<TableDef> Smallbank::Tables() const {
  // Size tables for the per-node share: each node holds its own shard plus
  // the shards it backs up (replication/num_nodes of the keyspace, times
  // headroom); power-of-two rounding adds further slack.
  size_t cap = 1;
  size_t need = static_cast<size_t>(static_cast<double>(total_accounts_) * 0.8);
  size_t log2 = 1;
  while (cap < need) {
    cap <<= 1;
    log2++;
  }
  return {
      TableDef{kSavings, "savings", log2, kValueSize, 8},
      TableDef{kChecking, "checking", log2, kValueSize, 8},
  };
}

void Smallbank::Load(const LoadFn& load) {
  const Value initial = Bal(kInitialBalance);  // shared by every account
  for (uint64_t a = 0; a < total_accounts_; ++a) {
    load(kSavings, a, initial);
    load(kChecking, a, initial);
  }
}

int64_t Smallbank::initial_total() const {
  return static_cast<int64_t>(total_accounts_) * kInitialBalance * 2;
}

store::Key Smallbank::PickAccount(Rng& rng) const {
  const auto hot = static_cast<uint64_t>(
      std::max(1.0, options_.hot_key_fraction * static_cast<double>(total_accounts_)));
  if (rng.NextBool(options_.hot_txn_fraction)) {
    // Hot keys are spread across nodes: stride the hot set.
    const uint64_t i = rng.NextBounded(hot);
    return (i * (total_accounts_ / hot)) % total_accounts_;
  }
  return rng.NextBounded(total_accounts_);
}

void Smallbank::NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* out) {
  (void)coordinator;
  const auto type = static_cast<TxnType>(rng.NextWeighted(options_.mix));
  const Key a = PickAccount(rng);
  Key b = PickAccount(rng);
  while (b == a) {
    b = PickAccount(rng);
  }
  const auto amount = static_cast<int64_t>(rng.NextRange(1, 50));

  TxnRequest& req = *out;
  req.Clear();
  req.tag = type;
  req.exec_cost = 100;
  req.external_bytes = 16;
  req.allow_ship = true;

  switch (type) {
    case kBalance:
      // Read-only: total balance of one customer.
      req.reads = {{kSavings, a}, {kChecking, a}};
      req.execute = [](txn::ExecRound&) {};
      break;

    case kDepositChecking:
      req.reads = {{kChecking, a}};
      req.writes = {{kChecking, a}};
      req.execute = [amount](txn::ExecRound& er) {
        (*er.writes)[0].value = Bal(BalOf((*er.reads)[0].value) + amount);
      };
      break;

    case kTransactSavings:
      req.reads = {{kSavings, a}};
      req.writes = {{kSavings, a}};
      req.execute = [amount](txn::ExecRound& er) {
        const int64_t cur = BalOf((*er.reads)[0].value);
        if (cur + amount < 0) {
          *er.abort = true;
          return;
        }
        (*er.writes)[0].value = Bal(cur + amount);
      };
      break;

    case kAmalgamate:
      // Move all funds of A into B's checking.
      req.reads = {{kSavings, a}, {kChecking, a}, {kChecking, b}};
      req.writes = {{kSavings, a}, {kChecking, a}, {kChecking, b}};
      req.execute = [](txn::ExecRound& er) {
        const int64_t total = BalOf((*er.reads)[0].value) + BalOf((*er.reads)[1].value);
        (*er.writes)[0].value = Bal(0);
        (*er.writes)[1].value = Bal(0);
        (*er.writes)[2].value = Bal(BalOf((*er.reads)[2].value) + total);
      };
      break;

    case kSendPayment:
      req.reads = {{kChecking, a}, {kChecking, b}};
      req.writes = {{kChecking, a}, {kChecking, b}};
      req.execute = [amount](txn::ExecRound& er) {
        const int64_t cur = BalOf((*er.reads)[0].value);
        if (cur < amount) {
          *er.abort = true;
          return;
        }
        (*er.writes)[0].value = Bal(cur - amount);
        (*er.writes)[1].value = Bal(BalOf((*er.reads)[1].value) + amount);
      };
      break;

    case kWriteCheck:
      req.reads = {{kSavings, a}, {kChecking, a}};
      req.writes = {{kChecking, a}};
      req.execute = [amount](txn::ExecRound& er) {
        const int64_t total = BalOf((*er.reads)[0].value) + BalOf((*er.reads)[1].value);
        // Overdraft penalty of 1 when the check exceeds the total balance.
        const int64_t delta = total < amount ? amount + 1 : amount;
        (*er.writes)[0].value = Bal(BalOf((*er.reads)[1].value) - delta);
      };
      break;

    default:
      break;
  }
}

}  // namespace xenic::workload
