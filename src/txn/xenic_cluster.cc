#include "src/txn/xenic_cluster.h"

namespace xenic::txn {

XenicCluster::XenicCluster(const XenicClusterOptions& options, const Partitioner* partitioner)
    : options_(options), remap_(partitioner, options.num_nodes), repl_(&map_, options.quorum) {
  map_.num_nodes = options.num_nodes;
  map_.replication = options.replication;
  map_.partitioner = partitioner;

  fabric_ = std::make_unique<nicmodel::SmartNicFabric>(&engine_, options.perf,
                                                       options.num_nodes);
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    fabric_->node(i).features() = options.nic_features;
    stores_.push_back(std::make_unique<store::Datastore>(options.tables, options.nic_index,
                                                         options.log_capacity));
  }
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<XenicNode>(&fabric_->node(i), stores_[i].get(), &map_,
                                                 &options_.features, &peers_, &repl_));
  }
  for (auto& n : nodes_) {
    peers_.push_back(n.get());
  }
}

XenicCluster::~XenicCluster() {
  // Continuations parked at a node (wait queues, appends, DMA fan-ins) hold
  // slot handles into other nodes' request tables: drop them while every
  // node is still alive.
  for (auto& n : nodes_) {
    n->DropParked();
  }
}

void XenicCluster::LoadReplicated(store::TableId table, store::Key key,
                                  const store::Value& value, store::Seq seq) {
  const NodeId primary = map_.PrimaryOf(table, key);
  stores_[primary]->PrefetchLoad(table, key);
  for (NodeId b : repl_.BackupsOf(primary)) {
    stores_[b]->PrefetchLoad(table, key);
  }
  stores_[primary]->Load(table, key, value, seq);
  for (NodeId b : repl_.BackupsOf(primary)) {
    stores_[b]->Load(table, key, value, seq);
  }
}

std::vector<NodeId> XenicCluster::LiveNodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < size(); ++n) {
    if (!nodes_[n]->crashed()) {
      out.push_back(n);
    }
  }
  return out;
}

std::optional<NodeId> XenicCluster::FirstLiveBackup(NodeId node) const {
  for (NodeId b : repl_.BackupsOf(node)) {
    if (!nodes_[b]->crashed()) {
      return b;
    }
  }
  return std::nullopt;
}

void XenicCluster::MoveShards(NodeId from, NodeId to) {
  remap_.Move(from, to);
  map_.partitioner = &remap_;
  map_.version++;
}

void XenicCluster::StartWorkers() {
  for (auto& n : nodes_) {
    n->StartWorkers(options_.workers_per_node, options_.worker_poll_interval);
  }
}

void XenicCluster::StopWorkers() {
  for (auto& n : nodes_) {
    n->StopWorkers();
  }
}

TxnStats XenicCluster::TotalStats() const {
  TxnStats total;
  for (const auto& n : nodes_) {
    total.Merge(n->stats());
  }
  return total;
}

void XenicCluster::ResetStats() {
  for (auto& n : nodes_) {
    n->stats().Reset();
  }
}

}  // namespace xenic::txn
