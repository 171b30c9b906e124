// ReplicationGroup: the one place that answers "who replicates this shard,
// and how many copies make a commit point". It wraps the cluster's
// membership view (txn::ClusterMap) with a configurable quorum policy so
// the commit path (XenicNode/BaselineNode LOG fan-out + ack counting), the
// recovery pipeline (roll-forward/discard completeness), and the chaos
// crash guard all reason from the same numbers instead of re-deriving the
// chain in four places.
//
// Quorum convention: `quorum` counts TOTAL copies including the primary's
// (the primary's copy is its lock/commit state at the commit point, made
// durable by the COMMIT phase). A LOG record therefore needs `quorum - 1`
// backup acks before the coordinator may report commit. quorum == 0 or
// quorum == replication means "wait for every live backup" -- the
// historical behavior, byte-identical to the pre-quorum protocol.

#ifndef SRC_REPL_REPLICATION_GROUP_H_
#define SRC_REPL_REPLICATION_GROUP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/txn/types.h"

namespace xenic::repl {

class ReplicationGroup {
 public:
  explicit ReplicationGroup(const txn::ClusterMap* map, uint32_t quorum = 0)
      : map_(map), quorum_(quorum) {}

  const txn::ClusterMap& map() const { return *map_; }
  uint32_t replication() const { return map_->replication; }

  // Effective quorum (total copies including the primary).
  uint32_t quorum() const {
    const uint32_t r = map_->replication;
    if (quorum_ == 0 || quorum_ >= r) {
      return r;
    }
    return quorum_ < 1 ? 1 : quorum_;
  }

  // True when the commit point can fire before every live backup acked.
  bool QuorumArmed() const { return quorum() < map_->replication; }

  // Live backups of `shard` under the current membership view (marked-failed
  // nodes filtered), in chain order. This is the LOG fan-out target set. A
  // non-allocating view over the map (txn::ClusterMap::BackupView).
  txn::ClusterMap::BackupView BackupsOf(store::NodeId shard) const {
    return map_->BackupsOf(shard);
  }

  // Chain membership: is `node` one of `shard`'s backups (ignoring crash
  // marks -- a node that is marked failed is never a backup)?
  bool IsBackupOf(store::NodeId node, store::NodeId shard) const {
    if (map_->IsFailed(node)) {
      return false;
    }
    for (uint32_t i = 1; i < map_->replication; ++i) {
      if ((shard + i) % map_->num_nodes == node) {
        return true;
      }
    }
    return false;
  }

  // Backup acks required before the commit point for a record on `shard`,
  // given the current live fan-out set. Defaults to "all live backups".
  uint32_t AcksRequired(store::NodeId shard) const {
    const uint32_t live = static_cast<uint32_t>(BackupsOf(shard).size());
    return std::min(live, quorum() - 1);
  }

  // Recovery completeness threshold for one shard's LOG record: how many
  // copies (live holders plus unobservable dead backups, counted
  // conservatively) imply the coordinator may have reached its commit
  // point. At the default quorum this is "every backup", reducing the
  // roll-forward rule to the historical "every live backup holds it".
  size_t CompletenessThreshold(store::NodeId shard) const {
    const size_t backups = BackupsOf(shard).size();
    return std::min<size_t>(backups, quorum() - 1);
  }

  // Chaos crash guard: may a crash be injected when `live_now` nodes are
  // up? Keeps enough survivors for the configured quorum AND for the
  // recovery scan to read from (at least two). At the default
  // quorum == replication this is exactly the historical
  // "live <= replication -> skip" rule.
  bool CrashAllowed(uint32_t live_now) const {
    return live_now > std::max<uint32_t>(quorum(), 2u);
  }

 private:
  const txn::ClusterMap* map_;
  uint32_t quorum_ = 0;  // configured; 0 = wait-for-all
};

}  // namespace xenic::repl

#endif  // SRC_REPL_REPLICATION_GROUP_H_
