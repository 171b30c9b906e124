// XenicCluster: assembles a full simulated deployment -- the event engine,
// the SmartNIC fabric, one Datastore per node, and the per-node transaction
// engines -- mirroring the paper's 6-server testbed.

#ifndef SRC_TXN_XENIC_CLUSTER_H_
#define SRC_TXN_XENIC_CLUSTER_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/nicmodel/smart_nic.h"
#include "src/repl/replication_group.h"
#include "src/store/datastore.h"
#include "src/txn/types.h"
#include "src/txn/xenic_node.h"

namespace xenic::txn {

// Routes each base shard (the workload partitioner's node id) to the node
// that serves it now. XenicCluster owns one and installs it on the first
// move, so until a failover PrimaryOf pays no extra hop.
class RemappedPartitioner : public Partitioner {
 public:
  RemappedPartitioner(const Partitioner* base, uint32_t num_nodes) : base_(base) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      serving_.push_back(n);
    }
  }

  NodeId PrimaryOf(TableId table, Key key) const override {
    const NodeId p = base_->PrimaryOf(table, key);
    return p < serving_.size() ? serving_[p] : p;
  }
  bool Serves(NodeId node) const {
    return std::find(serving_.begin(), serving_.end(), node) != serving_.end();
  }
  // Every base shard `from` serves moves to `to`. A base shard `from` no
  // longer serves stays where it is.
  void Move(NodeId from, NodeId to) {
    std::replace(serving_.begin(), serving_.end(), from, to);
  }

 private:
  const Partitioner* base_;
  std::vector<NodeId> serving_;  // base shard -> serving node
};

struct XenicClusterOptions {
  uint32_t num_nodes = 6;
  uint32_t replication = 3;  // total copies (1 primary + 2 backups)
  // Commit-point quorum (total copies including the primary). 0 or ==
  // replication: wait for every live backup's LOG ack -- the historical
  // protocol. Smaller values let the commit point fire early; recovery's
  // roll-forward threshold generalizes to match (repl::ReplicationGroup).
  uint32_t quorum = 0;
  net::PerfModel perf;
  XenicFeatures features;
  nicmodel::NicFeatures nic_features;
  store::NicIndex::Options nic_index;
  std::vector<store::TableSpec> tables;
  uint32_t workers_per_node = 3;
  sim::Tick worker_poll_interval = 2 * sim::kNsPerUs;
  // Host-memory commit-log ring size per node; small values make the
  // back-pressure path easy to hit (chaos testing).
  size_t log_capacity = 1 << 16;
};

class XenicCluster {
 public:
  XenicCluster(const XenicClusterOptions& options, const Partitioner* partitioner);
  ~XenicCluster();
  XenicCluster(const XenicCluster&) = delete;
  XenicCluster& operator=(const XenicCluster&) = delete;

  sim::Engine& engine() { return engine_; }
  XenicNode& node(NodeId id) { return *nodes_[id]; }
  store::Datastore& datastore(NodeId id) { return *stores_[id]; }
  nicmodel::SmartNic& nic(NodeId id) { return fabric_->node(id); }
  const ClusterMap& map() const { return map_; }
  const repl::ReplicationGroup& repl() const { return repl_; }
  uint32_t size() const { return options_.num_nodes; }
  const XenicClusterOptions& options() const { return options_; }

  // Membership and routing. Every node routes through the one shared map;
  // only the failover verbs (src/txn/recovery.h) change it.
  // Nodes that have not crashed, in id order.
  std::vector<NodeId> LiveNodes() const;
  // The first backup in `node`'s chain that has not crashed.
  std::optional<NodeId> FirstLiveBackup(NodeId node) const;
  // Whether any shard routes to `node`.
  bool Serves(NodeId node) const { return remap_.Serves(node); }
  // Move the primary role of every shard `from` serves to `to`, and bump
  // the map version so 2PL transactions fence on the move.
  void MoveShards(NodeId from, NodeId to);
  // Drop a crashed node from the membership view: LOG fan-out stops
  // waiting on its acks.
  void Evict(NodeId node) { map_.MarkFailed(node); }

  // Load a key into its primary and all backup replicas (tables stay in
  // sync across the replica chain, as after a quiesced run).
  void LoadReplicated(store::TableId table, store::Key key, const store::Value& value,
                      store::Seq seq = 1);

  void StartWorkers();
  void StopWorkers();

  // Aggregate statistics.
  TxnStats TotalStats() const;
  void ResetStats();

 private:
  XenicClusterOptions options_;
  ClusterMap map_;
  RemappedPartitioner remap_;
  repl::ReplicationGroup repl_;
  std::vector<std::unique_ptr<store::Datastore>> stores_;
  std::vector<std::unique_ptr<XenicNode>> nodes_;
  std::vector<XenicNode*> peers_;
  // Declared after nodes_, so destroyed before them: pending events and
  // the NICs' parked continuations hold slot handles into the nodes'
  // request tables.
  sim::Engine engine_;
  std::unique_ptr<nicmodel::SmartNicFabric> fabric_;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_XENIC_CLUSTER_H_
