// Reconfiguration and recovery (paper section 4.2.1): the one failover
// module. XenicCluster owns the routing and the membership view; the two
// verbs below are the only code that changes them.
//
// A crash failover assumes the worst: the failed node's state is gone. It
// resolves the transactions wedged on the failed node at live
// coordinators, promotes the node's first live backup, rebuilds lock state
// (which lives only in SmartNIC memory) from the transactions found in the
// surviving replicas' logs, rolls each in-doubt transaction forward (its
// LOG records reached enough surviving replicas that the coordinator may
// have reported commit) or discards it, sweeps the dead coordinator's
// locks, re-replicates, moves the routing and evicts the node. Only then
// does the shard serve new transactions.
//
// A planned handoff (maintenance drain, rebalance, rolling upgrade) moves a
// live node's primary role to its first live backup. The departing node
// stays live as a coordinator and backup, so LOG fan-out keeps counting its
// acks: there is no log scan and no eviction, and only the transactions in
// flight against the moving primary role are aborted (they retry on the new
// routing).
//
// Both verbs are built from one copy of each shared step (recovery.cc).

#ifndef SRC_TXN_RECOVERY_H_
#define SRC_TXN_RECOVERY_H_

#include <optional>

#include "src/txn/xenic_cluster.h"

namespace xenic::txn {

// What one crash failover did.
struct CrashReport {
  // The backup that took over the failed node's shards; none if the failed
  // node served no shard (an earlier failover moved its own away).
  std::optional<NodeId> promoted;
  // Wedged-transaction sweep at live coordinators: a transaction whose LOG
  // fan-out reached the commit point for every written shard is committed
  // by synthesizing the dead node's acks; anything else is aborted, its
  // records tombstoned on all live nodes and its locks released.
  size_t sweep_committed = 0;
  size_t sweep_aborted = 0;
  size_t acks_synthesized = 0;
  // Shard recovery at the promoted backup.
  size_t records_scanned = 0;  // live copies of the shard's in-doubt records
  size_t locks_rebuilt = 0;
  size_t rolled_forward = 0;  // in-doubt transactions applied at the new primary
  size_t discarded = 0;       // in-doubt transactions dropped
  // The dead coordinator's transactions: the locks they left at live
  // primaries and the records they replicated.
  size_t coord_swept = 0;
  size_t coord_rolled_forward = 0;
  size_t coord_discarded = 0;
  size_t locks_released = 0;
};

// Run at failure detection, after `failed`'s XenicNode::Crash(). `failed`
// must have a live backup. A node that serves no shard still has its
// wedged transactions swept, its coordinator locks swept and its
// membership evicted, but nothing is recovered or moved.
CrashReport CrashFailover(XenicCluster& cluster, NodeId failed);

// What one planned handoff did.
struct HandoffReport {
  bool performed = false;
  NodeId promoted = 0;
  // In-flight transactions wedged on the departing primary role at the
  // flip, aborted so none can commit against stale routing.
  size_t stragglers_aborted = 0;
  // NIC cache entries of the moved shards dropped at the new primary.
  size_t cache_invalidated = 0;
  // Host-table entries copied to the new serving node's backup set.
  size_t records_transferred = 0;
};

// Hand the shards `from` serves to its first live backup. Returns
// performed=false, and does nothing, if `from` has crashed, serves no
// shard, or has no live backup.
HandoffReport PlannedHandoff(XenicCluster& cluster, NodeId from);

}  // namespace xenic::txn

#endif  // SRC_TXN_RECOVERY_H_
