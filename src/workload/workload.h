// Common workload interface: a workload defines its tables, partitioning,
// initial population, and a transaction generator. The harness binds a
// workload to either the Xenic cluster or a baseline cluster through the
// small adapter below, so every benchmark runs identically on every system.

#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/store/commit_log.h"
#include "src/txn/types.h"

namespace xenic::workload {

using store::Key;
using store::NodeId;
using store::TableId;
using store::Value;
using txn::TxnRequest;

struct TableDef {
  TableId id = 0;
  std::string name;
  size_t capacity_log2 = 16;
  size_t value_size = 64;
  uint16_t max_displacement = 16;
};

// Loader callback: (table, key, value) -> replicate into the cluster.
using LoadFn = std::function<void(TableId, Key, const Value&)>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string Name() const = 0;
  virtual std::vector<TableDef> Tables() const = 0;
  virtual const txn::Partitioner& partitioner() const = 0;

  // Populate the database (called once per run).
  virtual void Load(const LoadFn& load) = 0;

  // Build the next transaction for a coordinator. The request's closures
  // may reference per-node workload state (B+trees etc.), which the
  // workload owns.
  //
  // NextTxnInto builds it into `*req`, which may still hold an earlier
  // transaction: the builder starts from req->Clear(), so the key sets
  // reuse their buffers. The closed-loop runner builds each context's next
  // transaction into the request its last one handed back. NextTxn returns
  // a fresh request, for callers that keep none (tests, the chaos client
  // loop, bench_ext_phases). Each is defined in terms of the other, so a
  // workload overrides exactly one: the benchmark builders override
  // NextTxnInto; a workload that returns whole requests (a forwarding
  // decorator, the chaos bank workload) overrides NextTxn and gets no
  // buffer reuse. Both make the same draws in the same order and build the
  // same request.
  virtual TxnRequest NextTxn(NodeId coordinator, Rng& rng) {
    TxnRequest req;
    NextTxnInto(coordinator, rng, &req);
    return req;
  }
  virtual void NextTxnInto(NodeId coordinator, Rng& rng, TxnRequest* req) {
    *req = NextTxn(coordinator, rng);
  }

  // Worker-apply hook for workload-managed log writes (table ids >=
  // kWorkloadTableBase); returns extra host ns. Default: none.
  virtual std::function<sim::Tick(const store::LogWrite&)> WorkerHook(NodeId node) {
    (void)node;
    return nullptr;
  }

  // Whether a transaction of this tag counts toward reported throughput
  // (TPC-C reports new-order rate only); default: all.
  virtual bool CountsForThroughput(uint8_t tag) const {
    (void)tag;
    return true;
  }
};

// Table ids at or above this value are workload-managed (applied through
// WorkerHook, not the Robinhood datastore).
constexpr TableId kWorkloadTableBase = 100;

}  // namespace xenic::workload

#endif  // SRC_WORKLOAD_WORKLOAD_H_
