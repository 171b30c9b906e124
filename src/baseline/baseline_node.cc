#include "src/baseline/baseline_node.h"

#include <algorithm>
#include <cassert>

namespace xenic::baseline {

namespace {

using txn::ContainsKey;
using txn::kHostInitCost;
using txn::kHostKeyCost;

constexpr sim::Tick kRpcHandlerPerKey = 100;

// A DrTM+R lock word refused because the version moved (bit 0 clear, so no
// lock); a refused word is 0 when the lock was held.
constexpr uint64_t kLockWordStale = 2;

// VALIDATE's check of one read key: its version moved or a writer holds
// it.
bool ValidationFails(const ChainedStore& table, Key key, store::Seq expected) {
  const auto* o = table.Lookup(key);
  const store::Seq cur = o != nullptr ? o->seq : 0;
  const store::TxnId owner = o != nullptr ? o->lock_owner : store::kNoTxn;
  return cur != expected || owner != store::kNoTxn;
}

}  // namespace

const char* BaselineModeName(BaselineMode mode) {
  switch (mode) {
    case BaselineMode::kDrtmH:
      return "DrTM+H";
    case BaselineMode::kDrtmHNC:
      return "DrTM+H NC";
    case BaselineMode::kFasst:
      return "FaSST";
    case BaselineMode::kDrtmR:
      return "DrTM+R";
  }
  return "?";
}

BaselineNode::BaselineNode(nicmodel::RdmaNic* nic, sim::Resource* host_cores,
                           BaselineStore* store, const ClusterMap* map, BaselineMode mode,
                           std::vector<BaselineNode*>* peers,
                           const repl::ReplicationGroup* repl)
    : nic_(nic),
      host_cores_(host_cores),
      store_(store),
      map_(map),
      repl_(repl),
      mode_(mode),
      peers_(peers),
      transport_(nic, &stats_.messages, &stats_.by_type),
      drain_(nic->engine(), store, {.cores = host_cores}) {}

store::TxnId BaselineNode::Submit(TxnRequest req, CommitCallback done) {
  TxnState* st = txns_.Acquire();
  st->Init(store::MakeTxnId(id(), next_txn_seq_++), std::move(req), std::move(done));
  st->write_locked.assign(st->write_keys.size(), false);
  // Everything downstream (host work, RDMA verbs, replies) inherits this
  // causal context through the engine's event wrapper, so every span the
  // transaction touches carries its id.
  nic_->engine()->set_trace_ctx(st->id);
  host_cores_->Submit(kHostInitCost, sim::InlineCallback([this, h = st->handle()] {
    TxnState* st = FindState(h);
    assert(st != nullptr);
    ExecutePhase(st);
  }));
  return st->id;
}

void BaselineNode::ExecutePhase(TxnState* st) {
  stats_.remote_rounds++;
  st->read_scratch.resize(st->read_keys.size());
  if (mode_ == BaselineMode::kFasst) {
    // Consolidated per-shard RPCs: one request reads and locks everything
    // this shard holds.
    st->write_scratch.resize(st->write_keys.size());
    const size_t groups = st->GroupByShard(*map_, &st->groups);
    st->group_refused.assign(groups, AbortReason::kNone);
    st->pending = static_cast<uint32_t>(groups);
    if (st->pending == 0) {
      AfterExecuteRound(st);
      return;
    }
    for (uint32_t g = 0; g < groups; ++g) {
      FasstExecuteShard(st, g);
    }
    return;
  }

  // One-sided modes: the execution phase issues reads only; write locks
  // are acquired after execution completes (FaRM/DrTM phase order).
  st->pending = static_cast<uint32_t>(st->read_keys.size() - st->new_read_base);
  if (st->pending == 0) {
    AfterExecuteRound(st);
    return;
  }
  for (uint32_t i = st->new_read_base; i < st->read_keys.size(); ++i) {
    ReadOneKey(st, i);
  }
}

void BaselineNode::OnExecuteDone(TxnState* st) {
  if (--st->pending == 0) {
    if (st->abort) {
      AbortCleanup(st, TxnOutcome::kAborted);
    } else {
      AfterExecuteRound(st);
    }
  }
}

void BaselineNode::LockPhase(TxnState* st) {
  st->pending = static_cast<uint32_t>(st->write_keys.size());
  if (st->pending == 0) {
    ValidatePhase(st);
    return;
  }
  stats_.remote_rounds++;
  st->write_scratch.resize(st->write_keys.size());
  for (uint32_t i = 0; i < st->write_keys.size(); ++i) {
    LockOneKey(st, i);
  }
}


void BaselineNode::ReadOneKey(TxnState* st, uint32_t read_idx) {
  const KeyRef k = st->read_keys[read_idx];
  const store::NodeId shard = map_->PrimaryOf(k.table, k.key);

  if (shard == id()) {
    host_cores_->Submit(kHostKeyCost, sim::InlineCallback([this, h = st->handle(), read_idx] {
      if (TxnState* st = FindState(h)) {
        FetchRead(store_->table(st->read_keys[read_idx].table), st, read_idx);
        OnReadDone(st, read_idx);
      }
    }));
    return;
  }

  ReadScratch& rs = st->read_scratch[read_idx];
  const ChainedStore& table = (*peers_)[shard]->store_->table(k.table);
  if (mode_ == BaselineMode::kDrtmHNC) {
    // No address cache: traverse the chain, one roundtrip per bucket. The
    // final read carries the object. Each hop is a counted READ message
    // (the extra roundtrips are exactly what the NC ablation measures).
    const auto plan = table.PlanLookup(k.key);
    const uint32_t hops = std::max<uint32_t>(1, plan.roundtrips);
    rs.hops_left = hops - 1;
    rs.hop_bytes = static_cast<uint32_t>(plan.bytes / hops);
  } else {
    // Cached remote address: one READ of the object.
    rs.hops_left = 0;
    rs.hop_bytes = table.object_bytes();
  }
  ReadHop(st, read_idx);
}

void BaselineNode::ReadHop(TxnState* st, uint32_t read_idx) {
  ReadScratch& rs = st->read_scratch[read_idx];
  const KeyRef k = st->read_keys[read_idx];
  const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
  const Handle h = st->handle();
  if (rs.hops_left > 0) {
    rs.hops_left--;
    transport_.Read(net::MsgType::kRead, shard, rs.hop_bytes,
                    sim::InlineCallback([this, h, read_idx] {
                      if (TxnState* st = FindState(h)) {
                        ReadHop(st, read_idx);
                      }
                    }),
                    h.txn);
    return;
  }
  const ChainedStore* table = &(*peers_)[shard]->store_->table(k.table);
  transport_.Read(net::MsgType::kRead, shard, rs.hop_bytes,
                  sim::InlineCallback([this, table, h, read_idx] {
                    if (TxnState* st = FindState(h)) {
                      FetchRead(*table, st, read_idx);
                    }
                  }),
                  sim::InlineCallback([this, h, read_idx] {
                    if (TxnState* st = FindState(h)) {
                      OnReadDone(st, read_idx);
                    }
                  }),
                  h.txn);
}

void BaselineNode::FetchRead(const ChainedStore& table, TxnState* st, uint32_t read_idx) {
  ReadScratch& rs = st->read_scratch[read_idx];
  const auto* o = table.Lookup(st->read_keys[read_idx].key);
  rs.found = o != nullptr;
  if (o != nullptr) {
    rs.seq = o->seq;
    rs.lock = o->lock_owner;
    rs.value = o->value;
  }
}

void BaselineNode::OnReadDone(TxnState* st, uint32_t read_idx) {
  ReadScratch& rs = st->read_scratch[read_idx];
  store::Value value = std::move(rs.value);
  if (rs.found && rs.lock != store::kNoTxn && rs.lock != st->id) {
    st->Abort(AbortReason::kLockExecute);
  } else if (rs.found) {
    st->reads[read_idx] = ReadResult{true, rs.seq, std::move(value)};
  }
  OnExecuteDone(st);
}

void BaselineNode::LockOneKey(TxnState* st, uint32_t write_idx) {
  const KeyRef k = st->write_keys[write_idx];
  const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
  const Handle h = st->handle();

  // Version check at lock time for keys read optimistically during
  // execution: the value the write was computed from must still be
  // current, else abort (a read-write gap).
  WriteScratch& ws = st->write_scratch[write_idx];
  ws.has_expected = false;
  ws.expected = 0;
  for (size_t i = 0; i < st->read_keys.size(); ++i) {
    if (st->read_keys[i] == k) {
      ws.has_expected = true;
      ws.expected = st->reads[i].seq;
      break;
    }
  }

  if (shard == id()) {
    host_cores_->Submit(kHostKeyCost, sim::InlineCallback([this, h, write_idx] {
      if (TxnState* st = FindState(h)) {
        LockAt(store_->table(st->write_keys[write_idx].table), st, write_idx);
        OnLockReply(st, write_idx);
      }
    }));
    return;
  }

  ChainedStore* table = &(*peers_)[shard]->store_->table(k.table);

  if (mode_ == BaselineMode::kDrtmR) {
    // One-sided ATOMIC CAS on the versioned lock word (DrTM encodes the
    // version in the word, so the CAS itself enforces the expected
    // version); bit 0 of the result = acquired.
    transport_.Atomic(
        net::MsgType::kLock, shard,
        sim::InlineCallback<uint64_t()>([table, key = k.key, txn = h.txn,
                                         has_expected = ws.has_expected,
                                         expected = ws.expected]() -> uint64_t {
          const auto* o = table->Lookup(key);
          const store::Seq cur = o != nullptr ? o->seq : 0;
          if (has_expected && cur != expected) {
            return kLockWordStale;
          }
          if (!table->TryLock(key, txn)) {
            return 0;
          }
          return (static_cast<uint64_t>(cur) << 1) | 1u;
        }),
        sim::InlineCallback<void(uint64_t)>([this, h, write_idx](uint64_t word) {
          TxnState* st = FindState(h);
          if (st == nullptr) {
            return;
          }
          WriteScratch& ws = st->write_scratch[write_idx];
          if ((word & 1u) == 0) {
            ws.refused = word == kLockWordStale ? AbortReason::kGap : AbortReason::kLockExecute;
          } else {
            ws.refused = AbortReason::kNone;
            ws.seq = static_cast<store::Seq>(word >> 1);
          }
          OnLockReply(st, write_idx);
        }),
        h.txn);
    return;
  }

  // DrTM+H (both variants): lock via RPC, version-checked in the handler,
  // which returns why it refused.
  transport_.Rpc(net::MsgType::kLock, shard, 32, 16, kRpcHandlerPerKey,
                 sim::InlineCallback([this, table, h, write_idx] {
                   if (TxnState* st = FindState(h)) {
                     LockAt(*table, st, write_idx);
                   }
                 }),
                 sim::InlineCallback([this, h, write_idx] {
                   if (TxnState* st = FindState(h)) {
                     OnLockReply(st, write_idx);
                   }
                 }),
                 h.txn);
}

void BaselineNode::LockAt(ChainedStore& table, TxnState* st, uint32_t write_idx) {
  const Key key = st->write_keys[write_idx].key;
  WriteScratch& ws = st->write_scratch[write_idx];
  ws.refused = AbortReason::kLockExecute;
  if (table.TryLock(key, st->id)) {
    const auto* o = table.Lookup(key);
    const store::Seq cur = o != nullptr ? o->seq : 0;
    if (ws.has_expected && cur != ws.expected) {
      table.Unlock(key, st->id);
      ws.refused = AbortReason::kGap;
    } else {
      ws.refused = AbortReason::kNone;
      ws.seq = cur;
    }
  }
}

void BaselineNode::OnLockReply(TxnState* st, uint32_t write_idx) {
  const WriteScratch& ws = st->write_scratch[write_idx];
  if (ws.refused == AbortReason::kNone) {
    st->write_locked[write_idx] = true;
    st->write_seqs[write_idx] = ws.seq;
  } else {
    st->Abort(ws.refused);
  }
  if (--st->pending == 0) {
    if (st->abort) {
      AbortCleanup(st, TxnOutcome::kAborted);
    } else {
      ValidatePhase(st);
    }
  }
}

void BaselineNode::FasstExecuteShard(TxnState* st, uint32_t group) {
  const txn::ShardGroup& g = st->groups[group];
  const store::NodeId shard = g.primary;
  const size_t n_keys = g.read_idx.size() + g.write_idx.size();
  const Handle h = st->handle();

  if (shard == id()) {
    host_cores_->Submit(
        kHostKeyCost * static_cast<sim::Tick>(n_keys), sim::InlineCallback([this, h, group] {
          TxnState* st = FindState(h);
          if (st == nullptr) {
            return;
          }
          const txn::ShardGroup& g = st->groups[group];
          for (uint32_t i : g.write_idx) {
            const KeyRef k = st->write_keys[i];
            if (store_->table(k.table).TryLock(k.key, h.txn)) {
              const auto* o = store_->table(k.table).Lookup(k.key);
              const store::Seq cur = o != nullptr ? o->seq : 0;
              bool stale = false;
              for (size_t r = 0; r < st->read_keys.size(); ++r) {
                if (st->read_keys[r] == k && st->reads[r].found &&
                    st->reads[r].seq != cur) {
                  stale = true;
                  break;
                }
              }
              if (stale) {
                store_->table(k.table).Unlock(k.key, h.txn);
                st->Abort(AbortReason::kGap);
              } else {
                st->write_locked[i] = true;
                st->write_seqs[i] = cur;
              }
            } else {
              st->Abort(AbortReason::kLockExecute);
            }
          }
          for (uint32_t i : g.read_idx) {
            const KeyRef k = st->read_keys[i];
            if (const auto* o = store_->table(k.table).Lookup(k.key)) {
              if (o->lock_owner != store::kNoTxn && o->lock_owner != h.txn) {
                st->Abort(AbortReason::kLockExecute);
              } else {
                st->reads[i] = ReadResult{true, o->seq, o->value};
              }
            }
          }
          OnExecuteDone(st);
        }));
    return;
  }

  BaselineNode* target = (*peers_)[shard];
  uint32_t req_bytes = net::wire::ExecuteReq(g.read_idx.size(), g.write_idx.size());
  uint32_t resp_bytes = 32;
  for (uint32_t i : g.read_idx) {
    resp_bytes += static_cast<uint32_t>(
        target->store_->table(st->read_keys[i].table).value_size());
  }

  // Write keys read in an EARLIER round carry the expected version for a
  // lock-time check (keys read in this same RPC are read+locked atomically
  // by the handler).
  for (uint32_t i : g.read_idx) {
    st->read_scratch[i].found = false;
  }
  for (uint32_t i : g.write_idx) {
    WriteScratch& ws = st->write_scratch[i];
    ws.has_expected = false;
    ws.expected = 0;
    ws.locked = false;
    for (size_t r = 0; r < st->read_keys.size(); ++r) {
      if (st->read_keys[r] == st->write_keys[i] && st->reads[r].found) {
        ws.has_expected = true;
        ws.expected = st->reads[r].seq;
        break;
      }
    }
  }

  transport_.Rpc(
      net::MsgType::kExecute, shard, req_bytes, resp_bytes,
      kRpcHandlerPerKey * static_cast<sim::Tick>(n_keys),
      sim::InlineCallback([this, target, h, group] {
        if (TxnState* st = FindState(h)) {
          FasstServeShard(target, st, group);
        }
      }),
      sim::InlineCallback([this, h, group] {
        if (TxnState* st = FindState(h)) {
          OnFasstShardDone(st, group);
        }
      }),
      h.txn);
}

void BaselineNode::FasstServeShard(BaselineNode* target, TxnState* st, uint32_t group) {
  const txn::ShardGroup& g = st->groups[group];
  const store::TxnId txn = st->id;
  // The first cause of a refusal.
  AbortReason& refused = st->group_refused[group];
  auto refuse = [&refused](AbortReason reason) {
    if (refused == AbortReason::kNone) {
      refused = reason;
    }
  };
  for (uint32_t i : g.write_idx) {
    const KeyRef k = st->write_keys[i];
    WriteScratch& ws = st->write_scratch[i];
    ChainedStore& table = target->store_->table(k.table);
    if (table.TryLock(k.key, txn)) {
      const auto* o = table.Lookup(k.key);
      const store::Seq cur = o != nullptr ? o->seq : 0;
      if (ws.has_expected && cur != ws.expected) {
        table.Unlock(k.key, txn);
        refuse(AbortReason::kGap);
      } else {
        ws.locked = true;
        ws.seq = cur;
      }
    } else {
      refuse(AbortReason::kLockExecute);
    }
  }
  for (uint32_t i : g.read_idx) {
    const KeyRef k = st->read_keys[i];
    if (const auto* o = target->store_->table(k.table).Lookup(k.key)) {
      if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
        refuse(AbortReason::kLockExecute);
      } else {
        ReadScratch& rs = st->read_scratch[i];
        rs.found = true;
        rs.seq = o->seq;
        rs.value = o->value;
      }
    }
  }
  if (refused != AbortReason::kNone) {
    // All-or-nothing at this shard: release what we took.
    for (uint32_t i : g.write_idx) {
      WriteScratch& ws = st->write_scratch[i];
      if (ws.locked) {
        const KeyRef k = st->write_keys[i];
        target->store_->table(k.table).Unlock(k.key, txn);
        ws.locked = false;
      }
    }
  }
}

void BaselineNode::OnFasstShardDone(TxnState* st, uint32_t group) {
  const txn::ShardGroup& g = st->groups[group];
  if (st->group_refused[group] != AbortReason::kNone) {
    st->Abort(st->group_refused[group]);
  } else {
    for (uint32_t i : g.read_idx) {
      ReadScratch& rs = st->read_scratch[i];
      if (rs.found) {
        st->reads[i] = ReadResult{true, rs.seq, std::move(rs.value)};
      }
    }
    for (uint32_t i : g.write_idx) {
      const WriteScratch& ws = st->write_scratch[i];
      if (ws.locked) {
        st->write_seqs[i] = ws.seq;
        st->write_locked[i] = true;
      }
    }
  }
  OnExecuteDone(st);
}

void BaselineNode::AfterExecuteRound(TxnState* st) {
  host_cores_->Submit(st->req.exec_cost, sim::InlineCallback([this, h = st->handle()] {
    TxnState* st = FindState(h);
    if (st == nullptr) {
      return;
    }
    st->AppRound();
    st->write_locked.resize(st->write_keys.size(), false);
    if (st->app_abort) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }
    if (st->HasNewKeys()) {
      st->round++;
      ExecutePhase(st);
      return;
    }
    if (mode_ == BaselineMode::kFasst) {
      // FaSST consolidated read+lock already happened per round.
      ValidatePhase(st);
    } else {
      LockPhase(st);
    }
  }));
}

void BaselineNode::ValidatePhase(TxnState* st) {
  std::vector<store::NodeId>& shards = validate_shards_;
  const uint32_t checks = st->ValidateShards(*map_, &shards);

  // Atomic-snapshot shortcuts: a single-key read, or (FaSST) a read-only
  // single-shard transaction whose reads happened inside one RPC handler.
  // (With no writes every read is checked, so `shards` is every shard the
  // transaction read.)
  const bool atomic = st->round == 0 && st->write_keys.empty() &&
                      (st->read_keys.size() <= 1 ||
                       (mode_ == BaselineMode::kFasst && shards.size() == 1));
  if (checks == 0 || atomic) {
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      EraseState(st);
      return;
    }
    LogPhase(st);
    return;
  }

  stats_.remote_rounds++;
  const Handle h = st->handle();

  if (mode_ == BaselineMode::kFasst) {
    // Per-shard validation RPCs, in first-check order. Each is charged as
    // if it carried no checks, pinned: the historical code passed
    // `checks.size()` alongside a lambda whose init-capture moved the
    // checks in the same call, and argument evaluation order ran the move
    // first. Golden transcripts encode that timing.
    st->pending = static_cast<uint32_t>(shards.size());
    for (store::NodeId shard : shards) {
      if (shard == id()) {
        host_cores_->Submit(0, sim::InlineCallback([this, h, shard] {
          if (TxnState* st = FindState(h)) {
            FasstValidateAt(this, st, shard);
            OnFasstValidateDone(st, shard);
          }
        }));
        continue;
      }
      transport_.Rpc(net::MsgType::kValidate, shard, net::wire::ValidateReq(0), 16, 0,
                     sim::InlineCallback([this, h, shard] {
                       if (TxnState* st = FindState(h)) {
                         FasstValidateAt((*peers_)[shard], st, shard);
                       }
                     }),
                     sim::InlineCallback([this, h, shard] {
                       if (TxnState* st = FindState(h)) {
                         OnFasstValidateDone(st, shard);
                       }
                     }),
                     h.txn);
    }
    return;
  }

  // One-sided modes: re-read each key's header (address known from the
  // execute phase, so one roundtrip each).
  st->pending = checks;
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    const KeyRef k = st->read_keys[i];
    if (ContainsKey(st->write_keys, k)) {
      continue;
    }
    const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
    if (shard == id()) {
      host_cores_->Submit(kHostKeyCost, sim::InlineCallback([this, h, i] {
        if (TxnState* st = FindState(h)) {
          CheckAt(store_->table(st->read_keys[i].table), st, i);
          OnCheckDone(st, i);
        }
      }));
      continue;
    }
    const ChainedStore* table = &(*peers_)[shard]->store_->table(k.table);
    transport_.Read(net::MsgType::kValidate, shard, 16,
                    sim::InlineCallback([this, table, h, i] {
                      if (TxnState* st = FindState(h)) {
                        CheckAt(*table, st, i);
                      }
                    }),
                    sim::InlineCallback([this, h, i] {
                      if (TxnState* st = FindState(h)) {
                        OnCheckDone(st, i);
                      }
                    }),
                    h.txn);
  }
}

void BaselineNode::CheckAt(const ChainedStore& table, TxnState* st, uint32_t read_idx) {
  st->read_scratch[read_idx].stale =
      ValidationFails(table, st->read_keys[read_idx].key, st->reads[read_idx].seq);
}

void BaselineNode::OnCheckDone(TxnState* st, uint32_t read_idx) {
  if (st->read_scratch[read_idx].stale) {
    st->Abort(AbortReason::kValidate);
  }
  OnValidateDone(st);
}

void BaselineNode::FasstValidateAt(BaselineNode* at, TxnState* st, store::NodeId shard) {
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    const KeyRef& k = st->read_keys[i];
    if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(st->write_keys, k)) {
      st->read_scratch[i].stale = ValidationFails(at->store_->table(k.table), k.key,
                                                  st->reads[i].seq);
    }
  }
}

void BaselineNode::OnFasstValidateDone(TxnState* st, store::NodeId shard) {
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    const KeyRef& k = st->read_keys[i];
    if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(st->write_keys, k) &&
        st->read_scratch[i].stale) {
      st->Abort(AbortReason::kValidate);
      break;
    }
  }
  OnValidateDone(st);
}

void BaselineNode::OnValidateDone(TxnState* st) {
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    EraseState(st);
    return;
  }
  LogPhase(st);
}

void BaselineNode::LogPhase(TxnState* st) {
  std::vector<store::NodeId>& shards = log_shards_;
  st->WrittenShards(*map_, id(), &shards);
  if (st->log_acks.Expect(repl_, shards) == 0) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
    return;
  }
  stats_.remote_rounds++;

  const Handle h = st->handle();
  for (store::NodeId shard : shards) {
    const auto backups = repl_->BackupsOf(shard);
    if (backups.empty()) {
      continue;
    }
    // The shard's one LOG record, parked for all of its backups: each
    // backup's append copies it into that backup's log.
    const uint32_t slot = write_sets_.Acquire();
    WriteSet& set = write_sets_[slot];
    st->ShardWrites(*map_, shard, id(), &set.writes);
    set.refs = static_cast<uint32_t>(backups.size());
    const auto bytes = static_cast<uint32_t>(store::LogRecordBytes(set.writes));
    for (const store::NodeId backup : backups) {
      auto append = sim::InlineCallback([this, txn = h.txn, backup, slot] {
        store::LogHeader header;
        header.txn = txn;
        auto r = (*peers_)[backup]->store_->log().AppendCopy(header, write_sets_[slot].writes);
        assert(r.ok() && "baseline backup log overflow");
        (void)r;
        UnrefWriteSet(slot);
      });
      auto acked = sim::InlineCallback([this, h, backup, shard] { OnLogAck(h, backup, shard); });
      if (mode_ == BaselineMode::kFasst) {
        transport_.Rpc(net::MsgType::kLog, backup, bytes, 16, kRpcHandlerPerKey,
                       std::move(append), std::move(acked), h.txn);
      } else {
        // One-sided WRITE into the backup's message log (FaRM-style).
        transport_.Write(net::MsgType::kLog, backup, bytes, std::move(append),
                         std::move(acked), h.txn);
      }
    }
  }
  if (st->log_acks.Met()) {
    // Quorum of one: the commit point is the fan-out itself.
    st->log_acks.Clear();
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
  }
}

void BaselineNode::OnLogAck(Handle h, store::NodeId backup, store::NodeId shard) {
  TxnState* st = FindState(h);
  // The commit point: every written shard's record is at as many backups
  // as the quorum needs (every live backup by default). CommitPhase may
  // reuse st->pending, since stragglers are ignored from here on.
  if (st != nullptr && st->log_acks.Ack(backup, shard)) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
  }
}

void BaselineNode::CommitPhase(TxnState* st) {
  std::vector<store::NodeId>& shards = commit_shards_;
  st->WrittenShards(*map_, id(), &shards);
  const Handle h = st->handle();
  st->pending = 0;

  for (store::NodeId shard : shards) {
    const uint32_t slot = write_sets_.Acquire();
    WriteSet& set = write_sets_[slot];
    std::vector<store::LogWrite>& writes = set.writes;
    st->ShardWrites(*map_, shard, id(), &writes);
    // Strip workload-managed writes: primaries apply only table writes
    // (host_finish already handled workload structures locally).
    std::erase_if(writes, [this](const store::LogWrite& w) {
      return w.table >= store_->num_tables();
    });
    if (writes.empty()) {
      write_sets_.Release(slot);
      continue;
    }
    if (shard == id()) {
      st->pending++;
      set.refs = 1;
      host_cores_->Submit(kHostKeyCost * static_cast<sim::Tick>(writes.size()),
                          sim::InlineCallback([this, h, slot] {
                            for (const auto& w : write_sets_[slot].writes) {
                              store_->ApplyWrite(w);
                              store_->table(w.table).Unlock(w.key, h.txn);
                            }
                            UnrefWriteSet(slot);
                            OnCommitDone(h);
                          }));
      continue;
    }

    if (mode_ == BaselineMode::kDrtmR) {
      // One-sided: per key, WRITE the new value then WRITE the unlock.
      set.refs = static_cast<uint32_t>(writes.size());
      for (uint32_t j = 0; j < writes.size(); ++j) {
        st->pending++;
        const auto bytes = static_cast<uint32_t>(24 + writes[j].value.size());
        transport_.Write(
            net::MsgType::kCommit, shard, bytes,
            sim::InlineCallback([this, shard, slot, j] {
              (*peers_)[shard]->store_->ApplyWrite(write_sets_[slot].writes[j]);
            }),
            sim::InlineCallback([this, h, shard, slot, j] {
              transport_.Write(net::MsgType::kUnlock, shard, 8,
                               sim::InlineCallback([this, txn = h.txn, shard, slot, j] {
                                 const store::LogWrite& w = write_sets_[slot].writes[j];
                                 (*peers_)[shard]->store_->table(w.table).Unlock(w.key, txn);
                                 UnrefWriteSet(slot);
                               }),
                               sim::InlineCallback([this, h] { OnCommitDone(h); }), h.txn);
            }),
            h.txn);
      }
      continue;
    }

    // DrTM+H / FaSST: one commit RPC per shard.
    st->pending++;
    set.refs = 1;
    uint32_t bytes = 32;
    for (const auto& w : writes) {
      bytes += 24 + static_cast<uint32_t>(w.value.size());
    }
    transport_.Rpc(net::MsgType::kCommit, shard, bytes, 16,
                   kRpcHandlerPerKey * static_cast<sim::Tick>(writes.size()),
                   sim::InlineCallback([this, txn = h.txn, shard, slot] {
                     BaselineStore* target = (*peers_)[shard]->store_;
                     for (const auto& w : write_sets_[slot].writes) {
                       target->ApplyWrite(w);
                       target->table(w.table).Unlock(w.key, txn);
                     }
                     UnrefWriteSet(slot);
                   }),
                   sim::InlineCallback([this, h] { OnCommitDone(h); }), h.txn);
  }

  if (st->pending == 0) {
    EraseState(st);
  }
}

void BaselineNode::OnCommitDone(Handle h) {
  TxnState* st = FindState(h);
  if (st == nullptr) {
    return;
  }
  if (--st->pending == 0) {
    EraseState(st);
  }
}

void BaselineNode::UnrefWriteSet(uint32_t slot) {
  WriteSet& set = write_sets_[slot];
  if (--set.refs == 0) {
    set.writes.clear();  // the values go; the vector's capacity stays
    write_sets_.Release(slot);
  }
}

void BaselineNode::AbortCleanup(TxnState* st, TxnOutcome outcome) {
  const store::TxnId txn = st->id;
  // Release every lock we hold: one message per shard, in first-locked
  // order (DrTM+R: one unlock WRITE per key).
  std::vector<store::NodeId>& shards = abort_shards_;
  shards.clear();
  for (size_t i = 0; i < st->write_keys.size(); ++i) {
    if (st->write_locked[i]) {
      txn::AddShard(&shards, map_->PrimaryOf(st->write_keys[i].table, st->write_keys[i].key));
    }
  }
  for (store::NodeId shard : shards) {
    const uint32_t slot = unlock_sets_.Acquire();
    std::vector<KeyRef>& keys = unlock_sets_[slot];
    keys.clear();
    for (size_t i = 0; i < st->write_keys.size(); ++i) {
      const KeyRef& k = st->write_keys[i];
      if (st->write_locked[i] && map_->PrimaryOf(k.table, k.key) == shard) {
        keys.push_back(k);
      }
    }
    if (shard == id()) {
      for (const auto& k : keys) {
        store_->table(k.table).Unlock(k.key, txn);
      }
      unlock_sets_.Release(slot);
      continue;
    }
    BaselineNode* target = (*peers_)[shard];
    if (mode_ == BaselineMode::kDrtmR) {
      for (const auto& k : keys) {
        transport_.Write(net::MsgType::kUnlock, shard, 8, sim::InlineCallback([target, k, txn] {
                           target->store_->table(k.table).Unlock(k.key, txn);
                         }),
                         sim::InlineCallback([] {}), txn);
      }
      unlock_sets_.Release(slot);
    } else {
      transport_.Rpc(net::MsgType::kUnlock, shard, 32, 8, kRpcHandlerPerKey,
                     sim::InlineCallback([this, target, txn, slot] {
                       for (const auto& k : unlock_sets_[slot]) {
                         target->store_->table(k.table).Unlock(k.key, txn);
                       }
                       unlock_sets_.Release(slot);
                     }),
                     sim::InlineCallback([] {}), txn);
    }
  }
  ReportAndFinish(st, outcome);
  EraseState(st);
}

void BaselineNode::ReportAndFinish(TxnState* st, TxnOutcome outcome) {
  stats_.Count(outcome, st->abort_reason);
  // Same contract as Xenic: the outcome is reported at the commit point;
  // post-commit local structure maintenance is deferred host work.
  const uint32_t report = reports_.Put(st->TakeReport(outcome));
  txn::TxnCore::Report::Run(&reports_, report, host_cores_);
}

void BaselineNode::StartWorkers(uint32_t count, sim::Tick poll_interval) {
  drain_.Start(count, poll_interval);
}

void BaselineNode::StopWorkers() { drain_.Stop(); }

}  // namespace xenic::baseline
