#include "src/baseline/baseline_cluster.h"

namespace xenic::baseline {

BaselineCluster::BaselineCluster(const BaselineClusterOptions& options,
                                 const txn::Partitioner* partitioner)
    : options_(options), repl_(&map_, options.quorum) {
  map_.num_nodes = options.num_nodes;
  map_.replication = options.replication;
  map_.partitioner = partitioner;

  std::vector<sim::Resource*> cores;
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    host_cores_.push_back(
        std::make_unique<sim::Resource>(&engine_, "host_cores", options.perf.host_threads));
    cores.push_back(host_cores_.back().get());
    stores_.push_back(std::make_unique<BaselineStore>(options.tables));
  }
  fabric_ = std::make_unique<nicmodel::RdmaFabric>(&engine_, options.perf, cores);
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<BaselineNode>(&fabric_->node(i), cores[i],
                                                    stores_[i].get(), &map_, options.mode,
                                                    &peers_, &repl_));
  }
  for (auto& n : nodes_) {
    peers_.push_back(n.get());
  }
}

void BaselineCluster::LoadReplicated(store::TableId table, store::Key key,
                                     const store::Value& value, store::Seq seq) {
  const store::NodeId primary = map_.PrimaryOf(table, key);
  stores_[primary]->table(table).Prefetch(key);
  for (store::NodeId b : repl_.BackupsOf(primary)) {
    stores_[b]->table(table).Prefetch(key);
  }
  stores_[primary]->table(table).Insert(key, value, seq);
  for (store::NodeId b : repl_.BackupsOf(primary)) {
    stores_[b]->table(table).Insert(key, value, seq);
  }
}

void BaselineCluster::StartWorkers() {
  for (auto& n : nodes_) {
    n->StartWorkers(options_.workers_per_node, options_.worker_poll_interval);
  }
}

void BaselineCluster::StopWorkers() {
  for (auto& n : nodes_) {
    n->StopWorkers();
  }
}

txn::TxnStats BaselineCluster::TotalStats() const {
  txn::TxnStats total;
  for (const auto& n : nodes_) {
    total.Merge(n->stats());
  }
  return total;
}

void BaselineCluster::ResetStats() {
  for (auto& n : nodes_) {
    n->stats().Reset();
  }
}

}  // namespace xenic::baseline
