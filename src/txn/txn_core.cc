#include "src/txn/txn_core.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace xenic::txn {

uint32_t LogAcks::Expect(const repl::ReplicationGroup* repl, const std::vector<NodeId>& shards) {
  const bool quorum = repl->QuorumArmed();
  const size_t before = waiting_.size();
  size_t total = before;
  for (NodeId shard : shards) {
    total += repl->BackupsOf(shard).size();
  }
  waiting_.reserve(total);
  for (NodeId shard : shards) {
    const auto backups = repl->BackupsOf(shard);
    const uint32_t spare =
        quorum ? static_cast<uint32_t>(backups.size()) - repl->AcksRequired(shard) : 0;
    for (NodeId backup : backups) {
      waiting_.push_back({backup, shard, spare});
    }
  }
  return static_cast<uint32_t>(total - before);
}

bool LogAcks::Ack(NodeId sender, NodeId shard) {
  auto it = std::find_if(waiting_.begin(), waiting_.end(), [&](const Expected& e) {
    return e.sender == sender && e.shard == shard;
  });
  if (it == waiting_.end()) {
    return false;
  }
  waiting_.erase(it);
  if (!Met()) {
    return false;
  }
  waiting_.clear();
  return true;
}

bool LogAcks::Met() const {
  for (const Expected& e : waiting_) {
    uint32_t outstanding = 0;
    for (const Expected& o : waiting_) {
      if (o.shard == e.shard && ++outstanding > e.spare) {
        return false;
      }
    }
  }
  return true;
}

std::optional<NodeId> LogAcks::AwaitedFrom(NodeId sender) const {
  for (const Expected& e : waiting_) {
    if (e.sender == sender) {
      return e.shard;
    }
  }
  return std::nullopt;
}

void TxnCore::Init(TxnId txn, TxnRequest request, CommitCallback callback) {
  id = txn;
  req = std::move(request);
  done = std::move(callback);
  pending = 0;
  abort = false;
  app_abort = false;
  abort_reason = AbortReason::kNone;
  local_writes = !req.local_log_writes.empty();
  log_acks.Clear();
  ResetKeys();
}

void TxnCore::ResetKeys() {
  read_keys = req.reads;
  write_keys = req.writes;
  reads.assign(read_keys.size(), ReadResult{});
  write_seqs.assign(write_keys.size(), 0);
  writes.assign(write_keys.size(), WriteIntent{});
  round = 0;
  new_read_base = 0;
  new_write_base = 0;
}

bool TxnCore::RunAppRound(int round_no, std::vector<KeyRef>* add_reads,
                          std::vector<KeyRef>* add_writes) {
  bool app_aborted = false;
  ExecRound er;
  er.round = round_no;
  er.read_keys = &read_keys;
  er.reads = &reads;
  er.write_keys = &write_keys;
  er.writes = &writes;
  er.add_reads = add_reads;
  er.add_writes = add_writes;
  er.abort = &app_aborted;
  if (req.execute) {
    req.execute(er);
  }
  return app_aborted;
}

void TxnCore::AppendKeys(const std::vector<KeyRef>& add_reads,
                         const std::vector<KeyRef>& add_writes) {
  for (const auto& k : add_reads) {
    read_keys.push_back(k);
    reads.emplace_back();
  }
  for (const auto& k : add_writes) {
    write_keys.push_back(k);
    write_seqs.push_back(0);
    writes.emplace_back();
  }
}

void TxnCore::AppRound() {
  std::vector<KeyRef> add_reads;
  std::vector<KeyRef> add_writes;
  app_abort = RunAppRound(round, &add_reads, &add_writes);
  new_read_base = static_cast<uint32_t>(read_keys.size());
  new_write_base = static_cast<uint32_t>(write_keys.size());
  AppendKeys(add_reads, add_writes);
}

size_t TxnCore::GroupByShard(const ClusterMap& map, std::vector<ShardGroup>* groups) const {
  size_t n = 0;
  auto group_of = [&](NodeId p) -> ShardGroup& {
    for (size_t g = 0; g < n; ++g) {
      if ((*groups)[g].primary == p) {
        return (*groups)[g];
      }
    }
    if (n == groups->size()) {
      groups->emplace_back();
    }
    ShardGroup& g = (*groups)[n++];
    g.primary = p;
    g.read_idx.clear();
    g.write_idx.clear();
    return g;
  };
  for (uint32_t i = new_read_base; i < read_keys.size(); ++i) {
    group_of(map.PrimaryOf(read_keys[i].table, read_keys[i].key)).read_idx.push_back(i);
  }
  for (uint32_t i = new_write_base; i < write_keys.size(); ++i) {
    group_of(map.PrimaryOf(write_keys[i].table, write_keys[i].key)).write_idx.push_back(i);
  }
  return n;
}

void TxnCore::WrittenShards(const ClusterMap& map, NodeId coord, std::vector<NodeId>* out) const {
  out->clear();
  for (const auto& k : write_keys) {
    AddShard(out, map.PrimaryOf(k.table, k.key));
  }
  if (local_writes) {
    AddShard(out, coord);
  }
}

void TxnCore::ShardWrites(const ClusterMap& map, NodeId shard, NodeId coord,
                          std::vector<store::LogWrite>* out) const {
  out->clear();
  size_t n = shard == coord ? req.local_log_writes.size() : 0;
  for (const auto& k : write_keys) {
    n += map.PrimaryOf(k.table, k.key) == shard ? 1 : 0;
  }
  // A power of two, so a reused vector reallocates once per doubling of the
  // largest record it has held, not once per new largest size. A
  // release-only COMMIT's empty record reserves nothing.
  out->reserve(n == 0 ? 0 : std::bit_ceil(n));
  for (size_t i = 0; i < write_keys.size(); ++i) {
    const auto& k = write_keys[i];
    if (map.PrimaryOf(k.table, k.key) != shard) {
      continue;
    }
    store::LogWrite& w = out->emplace_back();
    w.table = k.table;
    w.key = k.key;
    w.seq = write_seqs[i] + 1;
    w.value = writes[i].value;
    w.is_delete = writes[i].is_delete;
  }
  if (shard == coord) {
    out->insert(out->end(), req.local_log_writes.begin(), req.local_log_writes.end());
  }
}

uint32_t TxnCore::ValidateShards(const ClusterMap& map, std::vector<NodeId>* shards) const {
  shards->clear();
  uint32_t checks = 0;
  for (const auto& k : read_keys) {
    if (!ContainsKey(write_keys, k)) {
      checks++;
      AddShard(shards, map.PrimaryOf(k.table, k.key));
    }
  }
  return checks;
}

TxnCore::Report TxnCore::TakeReport(TxnResult result) {
  Report r{std::move(done), std::move(req), result};
  done = nullptr;
  return r;
}

void TxnCore::Report::Run(sim::SlotTable<Report>* table, uint32_t slot,
                          sim::Resource* host_cores) {
  // Out of the slot before the first Submit: the deferred job captures it.
  std::function<void()> host_finish;
  Report& parked = (*table)[slot];
  if (parked.result.outcome == TxnOutcome::kCommitted) {
    host_finish = std::exchange(parked.request.host_finish, nullptr);
  }
  const sim::Tick host_finish_cost = parked.request.host_finish_cost;
  host_cores->Submit(kHostFinishBase, sim::InlineCallback([table, slot] {
                       // Taken before the callback runs: it may submit, and
                       // a later report may reuse the slot.
                       Report r = table->Take(slot);
                       TxnResult result = r.result;
                       result.request = &r.request;
                       r.done(result);
                     }));
  if (host_finish) {
    host_cores->Submit(host_finish_cost,
                       [host_finish = std::move(host_finish)]() mutable { host_finish(); });
  }
}

}  // namespace xenic::txn
