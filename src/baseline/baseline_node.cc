#include "src/baseline/baseline_node.h"

#include <algorithm>
#include <cassert>

namespace xenic::baseline {

namespace {

using txn::kHostFinishBase;
using txn::kHostInitCost;
using txn::kHostKeyCost;

constexpr sim::Tick kRpcHandlerPerKey = 100;

bool ContainsKey(const std::vector<KeyRef>& v, const KeyRef& k) {
  return std::find(v.begin(), v.end(), k) != v.end();
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
  auto st = std::make_unique<TxnState>();
  st->id = store::MakeTxnId(id(), next_txn_seq_++);
  st->req = std::move(req);
  st->done = std::move(done);
  st->read_keys = st->req.reads;
  st->write_keys = st->req.writes;
  st->reads.resize(st->read_keys.size());
  st->write_seqs.assign(st->write_keys.size(), 0);
  st->writes.resize(st->write_keys.size());
  st->write_locked.assign(st->write_keys.size(), false);
  TxnState* raw = st.get();
  txns_[raw->id] = std::move(st);
  const store::TxnId txn = raw->id;
  // Everything downstream (host work, RDMA verbs, replies) inherits this
  // causal context through the engine's event wrapper, so every span the
  // transaction touches carries its id.
  nic_->engine()->set_trace_ctx(txn);
  host_cores_->Submit(kHostInitCost, [this, txn] {
    TxnState* st = FindState(txn);
    assert(st != nullptr);
    ExecutePhase(st);
  });
  return txn;
}

void BaselineNode::ExecutePhase(TxnState* st) {
  stats_.remote_rounds++;
  const uint32_t rbase = st->exec_read_base;
  const uint32_t wbase = st->exec_write_base;

  if (mode_ == BaselineMode::kFasst) {
    // Consolidated per-shard RPCs: one request reads and locks everything
    // this shard holds.
    struct Group {
      store::NodeId shard;
      std::vector<uint32_t> reads;
      std::vector<uint32_t> writes;
    };
    std::vector<Group> groups;
    auto group_of = [&](store::NodeId p) -> Group& {
      for (auto& g : groups) {
        if (g.shard == p) {
          return g;
        }
      }
      groups.push_back(Group{p, {}, {}});
      return groups.back();
    };
    for (uint32_t i = rbase; i < st->read_keys.size(); ++i) {
      group_of(map_->PrimaryOf(st->read_keys[i].table, st->read_keys[i].key)).reads.push_back(i);
    }
    for (uint32_t i = wbase; i < st->write_keys.size(); ++i) {
      group_of(map_->PrimaryOf(st->write_keys[i].table, st->write_keys[i].key))
          .writes.push_back(i);
    }
    st->pending = static_cast<uint32_t>(groups.size());
    if (st->pending == 0) {
      AfterExecuteRound(st);
      return;
    }
    const store::TxnId txn = st->id;
    for (auto& g : groups) {
      FasstExecuteShard(st, g.shard, std::move(g.reads), std::move(g.writes), [this, txn] {
        TxnState* st = FindState(txn);
        if (st == nullptr) {
          return;
        }
        if (--st->pending == 0) {
          if (st->abort) {
            AbortCleanup(st, TxnOutcome::kAborted);
          } else {
            AfterExecuteRound(st);
          }
        }
      });
    }
    return;
  }

  // One-sided modes: the execution phase issues reads only; write locks
  // are acquired after execution completes (FaRM/DrTM phase order).
  (void)wbase;
  st->pending = static_cast<uint32_t>(st->read_keys.size() - rbase);
  if (st->pending == 0) {
    AfterExecuteRound(st);
    return;
  }
  const store::TxnId txn = st->id;
  auto one_done = [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (--st->pending == 0) {
      if (st->abort) {
        AbortCleanup(st, TxnOutcome::kAborted);
      } else {
        AfterExecuteRound(st);
      }
    }
  };
  for (uint32_t i = rbase; i < st->read_keys.size(); ++i) {
    ReadOneKey(st, i, one_done);
  }
}

void BaselineNode::LockPhase(TxnState* st) {
  st->pending = static_cast<uint32_t>(st->write_keys.size());
  if (st->pending == 0) {
    ValidatePhase(st);
    return;
  }
  stats_.remote_rounds++;
  const store::TxnId txn = st->id;
  auto one_done = [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (--st->pending == 0) {
      if (st->abort) {
        AbortCleanup(st, TxnOutcome::kAborted);
      } else {
        ValidatePhase(st);
      }
    }
  };
  for (uint32_t i = 0; i < st->write_keys.size(); ++i) {
    LockOneKey(st, i, one_done);
  }
}

void BaselineNode::ReadOneKey(TxnState* st, uint32_t read_idx, sim::Engine::Callback done) {
  const KeyRef k = st->read_keys[read_idx];
  const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
  const store::TxnId txn = st->id;

  if (shard == id()) {
    host_cores_->Submit(kHostKeyCost, [this, txn, read_idx, k, done = std::move(done)]() mutable {
      TxnState* st = FindState(txn);
      if (st == nullptr) {
        return;
      }
      if (const auto* o = store_->table(k.table).Lookup(k.key)) {
        if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
          st->abort = true;
        } else {
          st->reads[read_idx] = ReadResult{true, o->seq, o->value};
        }
      }
      done();
    });
    return;
  }

  BaselineNode* target = (*peers_)[shard];
  ChainedStore& table = target->store_->table(k.table);
  const uint32_t obj_bytes = table.object_bytes();

  // Result holder filled by the target-side closure at access time.
  struct Holder {
    bool found = false;
    store::Seq seq = 0;
    store::TxnId lock = store::kNoTxn;
    store::Value value;
  };
  auto h = std::make_shared<Holder>();
  auto fetch = [&table, key = k.key, h] {
    if (const auto* o = table.Lookup(key)) {
      h->found = true;
      h->seq = o->seq;
      h->lock = o->lock_owner;
      h->value = o->value;
    }
  };
  auto finish = [this, txn, read_idx, h, done = std::move(done)]() mutable {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (h->found && h->lock != store::kNoTxn && h->lock != txn) {
      st->abort = true;
    } else if (h->found) {
      st->reads[read_idx] = ReadResult{true, h->seq, std::move(h->value)};
    }
    done();
  };

  if (mode_ == BaselineMode::kDrtmHNC) {
    // No address cache: traverse the chain, one roundtrip per bucket. The
    // final read carries the object. Each hop is a counted READ message
    // (the extra roundtrips are exactly what the NC ablation measures).
    const auto plan = table.PlanLookup(k.key);
    const uint32_t hops = std::max<uint32_t>(1, plan.roundtrips);
    const uint32_t bucket_bytes = static_cast<uint32_t>(plan.bytes / hops);
    // Build the hop chain back-to-front (the roundtrip count is known up
    // front); a self-capturing shared function here would be a reference
    // cycle leaking once per remote read.
    sim::Engine::Callback chain = [this, shard, bucket_bytes, txn, fetch,
                                   finish = std::move(finish)]() mutable {
      transport_.Read(net::MsgType::kRead, shard, bucket_bytes, fetch, std::move(finish), txn);
    };
    for (uint32_t i = 1; i < hops; ++i) {
      chain = [this, shard, bucket_bytes, txn, next = std::move(chain)]() mutable {
        transport_.Read(net::MsgType::kRead, shard, bucket_bytes, std::move(next), txn);
      };
    }
    chain();
    return;
  }
  // Cached remote address: one READ of the object.
  transport_.Read(net::MsgType::kRead, shard, obj_bytes, fetch, std::move(finish), txn);
}

void BaselineNode::LockOneKey(TxnState* st, uint32_t write_idx, sim::Engine::Callback done) {
  const KeyRef k = st->write_keys[write_idx];
  const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
  const store::TxnId txn = st->id;

  // Version check at lock time for keys read optimistically during
  // execution: the value the write was computed from must still be
  // current, else abort.
  bool has_expected = false;
  store::Seq expected = 0;
  for (size_t i = 0; i < st->read_keys.size(); ++i) {
    if (st->read_keys[i] == k) {
      has_expected = true;
      expected = st->reads[i].seq;
      break;
    }
  }

  if (shard == id()) {
    host_cores_->Submit(kHostKeyCost, [this, txn, write_idx, k, has_expected, expected,
                                       done = std::move(done)]() mutable {
      TxnState* st = FindState(txn);
      if (st == nullptr) {
        return;
      }
      ChainedStore& table = store_->table(k.table);
      if (table.TryLock(k.key, txn)) {
        const auto* o = table.Lookup(k.key);
        const store::Seq cur = o != nullptr ? o->seq : 0;
        if (has_expected && cur != expected) {
          table.Unlock(k.key, txn);
          st->abort = true;
        } else {
          st->write_locked[write_idx] = true;
          st->write_seqs[write_idx] = cur;
        }
      } else {
        st->abort = true;
      }
      done();
    });
    return;
  }

  BaselineNode* target = (*peers_)[shard];
  ChainedStore& table = target->store_->table(k.table);

  if (mode_ == BaselineMode::kDrtmR) {
    // One-sided ATOMIC CAS on the versioned lock word (DrTM encodes the
    // version in the word, so the CAS itself enforces the expected
    // version); bit 0 of the result = acquired.
    transport_.Atomic(
        net::MsgType::kLock, shard,
        [&table, key = k.key, txn, has_expected, expected]() -> uint64_t {
          const auto* o = table.Lookup(key);
          const store::Seq cur = o != nullptr ? o->seq : 0;
          if (has_expected && cur != expected) {
            return 0;
          }
          if (!table.TryLock(key, txn)) {
            return 0;
          }
          return (static_cast<uint64_t>(cur) << 1) | 1u;
        },
        [this, txn, write_idx, done = std::move(done)](uint64_t word) mutable {
          TxnState* st = FindState(txn);
          if (st == nullptr) {
            return;
          }
          if ((word & 1u) == 0) {
            st->abort = true;
          } else {
            st->write_locked[write_idx] = true;
            st->write_seqs[write_idx] = static_cast<store::Seq>(word >> 1);
          }
          done();
        },
        txn);
    return;
  }

  // DrTM+H (both variants): lock via RPC, version-checked in the handler.
  struct Holder {
    bool ok = false;
    store::Seq seq = 0;
  };
  auto h = std::make_shared<Holder>();
  transport_.Rpc(net::MsgType::kLock, shard, 32, 16, kRpcHandlerPerKey,
            [&table, key = k.key, txn, has_expected, expected, h] {
              if (table.TryLock(key, txn)) {
                const auto* o = table.Lookup(key);
                const store::Seq cur = o != nullptr ? o->seq : 0;
                if (has_expected && cur != expected) {
                  table.Unlock(key, txn);
                } else {
                  h->ok = true;
                  h->seq = cur;
                }
              }
            },
            [this, txn, write_idx, h, done = std::move(done)]() mutable {
              TxnState* st = FindState(txn);
              if (st == nullptr) {
                return;
              }
              if (h->ok) {
                st->write_locked[write_idx] = true;
                st->write_seqs[write_idx] = h->seq;
              } else {
                st->abort = true;
              }
              done();
            },
            txn);
}

void BaselineNode::FasstExecuteShard(TxnState* st, store::NodeId shard,
                                     std::vector<uint32_t> read_idx,
                                     std::vector<uint32_t> write_idx,
                                     sim::Engine::Callback done) {
  const store::TxnId txn = st->id;
  const size_t n_keys = read_idx.size() + write_idx.size();

  if (shard == id()) {
    host_cores_->Submit(
        kHostKeyCost * static_cast<sim::Tick>(n_keys),
        [this, txn, read_idx = std::move(read_idx), write_idx = std::move(write_idx),
         done = std::move(done)]() mutable {
          TxnState* st = FindState(txn);
          if (st == nullptr) {
            return;
          }
          for (uint32_t i : write_idx) {
            const KeyRef k = st->write_keys[i];
            if (store_->table(k.table).TryLock(k.key, txn)) {
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
                store_->table(k.table).Unlock(k.key, txn);
                st->abort = true;
              } else {
                st->write_locked[i] = true;
                st->write_seqs[i] = cur;
              }
            } else {
              st->abort = true;
            }
          }
          for (uint32_t i : read_idx) {
            const KeyRef k = st->read_keys[i];
            if (const auto* o = store_->table(k.table).Lookup(k.key)) {
              if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
                st->abort = true;
              } else {
                st->reads[i] = ReadResult{true, o->seq, o->value};
              }
            }
          }
          done();
        });
    return;
  }

  BaselineNode* target = (*peers_)[shard];

  struct Holder {
    bool abort = false;
    std::vector<std::pair<uint32_t, ReadResult>> reads;
    std::vector<std::pair<uint32_t, store::Seq>> seqs;
    std::vector<KeyRef> locked;
  };
  auto h = std::make_shared<Holder>();
  uint32_t req_bytes = net::wire::ExecuteReq(read_idx.size(), write_idx.size());
  uint32_t resp_bytes = 32;
  for (uint32_t i : read_idx) {
    resp_bytes += static_cast<uint32_t>(
        target->store_->table(st->read_keys[i].table).value_size());
  }

  // Snapshot key lists for the handler closure. Write keys read in an
  // EARLIER round carry the expected version for a lock-time check (keys
  // read in this same RPC are read+locked atomically by the handler).
  struct WKey {
    uint32_t idx;
    KeyRef key;
    bool has_expected;
    store::Seq expected;
  };
  std::vector<std::pair<uint32_t, KeyRef>> rkeys;
  std::vector<WKey> wkeys;
  for (uint32_t i : read_idx) {
    rkeys.emplace_back(i, st->read_keys[i]);
  }
  for (uint32_t i : write_idx) {
    WKey w{i, st->write_keys[i], false, 0};
    for (size_t r = 0; r < st->read_keys.size(); ++r) {
      if (st->read_keys[r] == w.key && st->reads[r].found) {
        w.has_expected = true;
        w.expected = st->reads[r].seq;
        break;
      }
    }
    wkeys.push_back(w);
  }

  transport_.Rpc(
      net::MsgType::kExecute, shard, req_bytes, resp_bytes,
      kRpcHandlerPerKey * static_cast<sim::Tick>(n_keys),
      [target, txn, h, rkeys = std::move(rkeys), wkeys = std::move(wkeys)] {
        for (const auto& w : wkeys) {
          const auto& k = w.key;
          const uint32_t i = w.idx;
          if (target->store_->table(k.table).TryLock(k.key, txn)) {
            const auto* o = target->store_->table(k.table).Lookup(k.key);
            const store::Seq cur = o != nullptr ? o->seq : 0;
            if (w.has_expected && cur != w.expected) {
              target->store_->table(k.table).Unlock(k.key, txn);
              h->abort = true;
            } else {
              h->locked.push_back(k);
              h->seqs.emplace_back(i, cur);
            }
          } else {
            h->abort = true;
          }
        }
        for (const auto& [i, k] : rkeys) {
          if (const auto* o = target->store_->table(k.table).Lookup(k.key)) {
            if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
              h->abort = true;
            } else {
              h->reads.emplace_back(i, ReadResult{true, o->seq, o->value});
            }
          }
        }
        if (h->abort) {
          // All-or-nothing at this shard: release what we took.
          for (const auto& k : h->locked) {
            target->store_->table(k.table).Unlock(k.key, txn);
          }
          h->locked.clear();
        }
      },
      [this, txn, h, done = std::move(done)]() mutable {
        TxnState* st = FindState(txn);
        if (st == nullptr) {
          return;
        }
        if (h->abort) {
          st->abort = true;
        } else {
          for (auto& [i, r] : h->reads) {
            st->reads[i] = std::move(r);
          }
          for (auto& [i, s] : h->seqs) {
            st->write_seqs[i] = s;
            st->write_locked[i] = true;
          }
        }
        done();
      },
      txn);
}

void BaselineNode::AfterExecuteRound(TxnState* st) {
  const store::TxnId txn = st->id;
  RunExecuteLogic(st, [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (st->app_abort) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }
    if (st->exec_read_base < st->read_keys.size() ||
        st->exec_write_base < st->write_keys.size()) {
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
  });
}

void BaselineNode::RunExecuteLogic(TxnState* st, sim::Engine::Callback next) {
  const store::TxnId txn = st->id;
  host_cores_->Submit(st->req.exec_cost, [this, txn, next = std::move(next)]() mutable {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    std::vector<KeyRef> add_reads;
    std::vector<KeyRef> add_writes;
    bool abort_flag = false;
    ExecRound er;
    er.round = st->round;
    er.read_keys = &st->read_keys;
    er.reads = &st->reads;
    er.write_keys = &st->write_keys;
    er.writes = &st->writes;
    er.add_reads = &add_reads;
    er.add_writes = &add_writes;
    er.abort = &abort_flag;
    if (st->req.execute) {
      st->req.execute(er);
    }
    st->app_abort = abort_flag;
    st->exec_read_base = static_cast<uint32_t>(st->read_keys.size());
    st->exec_write_base = static_cast<uint32_t>(st->write_keys.size());
    for (const auto& k : add_reads) {
      st->read_keys.push_back(k);
      st->reads.emplace_back();
    }
    for (const auto& k : add_writes) {
      st->write_keys.push_back(k);
      st->write_seqs.push_back(0);
      st->writes.emplace_back();
      st->write_locked.push_back(false);
    }
    next();
  });
}

void BaselineNode::ValidatePhase(TxnState* st) {
  std::vector<std::pair<uint32_t, KeyRef>> checks;
  std::vector<store::NodeId> involved;
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    const auto& k = st->read_keys[i];
    const store::NodeId p = map_->PrimaryOf(k.table, k.key);
    if (std::find(involved.begin(), involved.end(), p) == involved.end()) {
      involved.push_back(p);
    }
    if (!ContainsKey(st->write_keys, k)) {
      checks.emplace_back(i, k);
    }
  }

  // Atomic-snapshot shortcuts: a single-key read, or (FaSST) a read-only
  // single-shard transaction whose reads happened inside one RPC handler.
  const bool atomic = st->round == 0 && st->write_keys.empty() &&
                      (st->read_keys.size() <= 1 ||
                       (mode_ == BaselineMode::kFasst && involved.size() == 1));
  if (checks.empty() || atomic) {
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      EraseState(st->id);
      return;
    }
    LogPhase(st);
    return;
  }

  stats_.remote_rounds++;
  const store::TxnId txn = st->id;
  auto one_done = [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (--st->pending > 0) {
      return;
    }
    if (st->abort) {
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      EraseState(txn);
      return;
    }
    LogPhase(st);
  };

  if (mode_ == BaselineMode::kFasst) {
    // Per-shard validation RPCs.
    struct Group {
      store::NodeId shard;
      std::vector<std::pair<uint32_t, KeyRef>> checks;
    };
    std::vector<Group> groups;
    for (auto& [i, k] : checks) {
      const store::NodeId p = map_->PrimaryOf(k.table, k.key);
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const Group& g) { return g.shard == p; });
      if (it == groups.end()) {
        groups.push_back(Group{p, {}});
        it = groups.end() - 1;
      }
      it->checks.emplace_back(i, k);
    }
    st->pending = static_cast<uint32_t>(groups.size());
    for (auto& g : groups) {
      if (g.shard == id()) {
        host_cores_->Submit(
            kHostKeyCost * static_cast<sim::Tick>(g.checks.size()),
            [this, txn, checks = std::move(g.checks), one_done]() mutable {
              TxnState* st = FindState(txn);
              if (st == nullptr) {
                return;
              }
              for (const auto& [i, k] : checks) {
                const auto* o = store_->table(k.table).Lookup(k.key);
                const store::Seq cur = o != nullptr ? o->seq : 0;
                const store::TxnId owner = o != nullptr ? o->lock_owner : store::kNoTxn;
                if (cur != st->reads[i].seq || owner != store::kNoTxn) {
                  st->abort = true;
                }
              }
              one_done();
            });
        continue;
      }
      BaselineNode* target = (*peers_)[g.shard];
      auto ok = std::make_shared<bool>(true);
      std::vector<std::pair<KeyRef, store::Seq>> handler_checks;
      for (const auto& [i, k] : g.checks) {
        handler_checks.emplace_back(k, st->reads[i].seq);
      }
      transport_.Rpc(net::MsgType::kValidate, g.shard,
                net::wire::ValidateReq(handler_checks.size()), 16,
                kRpcHandlerPerKey * static_cast<sim::Tick>(handler_checks.size()),
                [target, ok, handler_checks = std::move(handler_checks)] {
                  for (const auto& [k, expected] : handler_checks) {
                    const auto* o = target->store_->table(k.table).Lookup(k.key);
                    const store::Seq cur = o != nullptr ? o->seq : 0;
                    const store::TxnId owner = o != nullptr ? o->lock_owner : store::kNoTxn;
                    if (cur != expected || owner != store::kNoTxn) {
                      *ok = false;
                    }
                  }
                },
                [this, txn, ok, one_done]() mutable {
                  TxnState* st = FindState(txn);
                  if (st == nullptr) {
                    return;
                  }
                  if (!*ok) {
                    st->abort = true;
                  }
                  one_done();
                },
                txn);
    }
    return;
  }

  // One-sided modes: re-read each key's header (address known from the
  // execute phase, so one roundtrip each).
  st->pending = static_cast<uint32_t>(checks.size());
  for (const auto& [i, k] : checks) {
    const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
    if (shard == id()) {
      const uint32_t idx = i;
      const KeyRef key = k;
      host_cores_->Submit(kHostKeyCost, [this, txn, idx, key, one_done]() mutable {
        TxnState* st = FindState(txn);
        if (st == nullptr) {
          return;
        }
        const auto* o = store_->table(key.table).Lookup(key.key);
        const store::Seq cur = o != nullptr ? o->seq : 0;
        const store::TxnId owner = o != nullptr ? o->lock_owner : store::kNoTxn;
        if (cur != st->reads[idx].seq || owner != store::kNoTxn) {
          st->abort = true;
        }
        one_done();
      });
      continue;
    }
    BaselineNode* target = (*peers_)[shard];
    ChainedStore& table = target->store_->table(k.table);
    struct Holder {
      store::Seq seq = 0;
      store::TxnId lock = store::kNoTxn;
    };
    auto h = std::make_shared<Holder>();
    const uint32_t idx = i;
    const Key key = k.key;
    transport_.Read(net::MsgType::kValidate, shard, 16,
               [&table, key, h] {
                 if (const auto* o = table.Lookup(key)) {
                   h->seq = o->seq;
                   h->lock = o->lock_owner;
                 }
               },
               [this, txn, idx, h, one_done]() mutable {
                 TxnState* st = FindState(txn);
                 if (st == nullptr) {
                   return;
                 }
                 if (h->seq != st->reads[idx].seq || h->lock != store::kNoTxn) {
                   st->abort = true;
                 }
                 one_done();
               },
               txn);
  }
}

std::vector<store::LogWrite> BaselineNode::ShardWrites(const TxnState& st,
                                                       store::NodeId shard) const {
  std::vector<store::LogWrite> out;
  for (size_t i = 0; i < st.write_keys.size(); ++i) {
    const auto& k = st.write_keys[i];
    if (map_->PrimaryOf(k.table, k.key) != shard) {
      continue;
    }
    store::LogWrite w;
    w.table = k.table;
    w.key = k.key;
    w.seq = st.write_seqs[i] + 1;
    w.value = st.writes[i].value;
    w.is_delete = st.writes[i].is_delete;
    out.push_back(std::move(w));
  }
  if (shard == id()) {
    for (const auto& w : st.req.local_log_writes) {
      out.push_back(w);
    }
  }
  return out;
}

void BaselineNode::LogPhase(TxnState* st) {
  std::vector<store::NodeId> shards;
  for (const auto& k : st->write_keys) {
    const store::NodeId p = map_->PrimaryOf(k.table, k.key);
    if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
      shards.push_back(p);
    }
  }
  if (!st->req.local_log_writes.empty() &&
      std::find(shards.begin(), shards.end(), id()) == shards.end()) {
    shards.push_back(id());
  }

  const store::TxnId txn = st->id;
  uint32_t pending = 0;
  struct Send {
    store::NodeId backup;
    store::NodeId shard;
    store::LogRecord rec;
  };
  std::vector<Send> sends;
  for (store::NodeId shard : shards) {
    store::LogRecord rec;
    rec.type = store::LogRecordType::kLog;
    rec.txn = txn;
    rec.writes = ShardWrites(*st, shard);
    for (store::NodeId backup : repl_->BackupsOf(shard)) {
      sends.push_back(Send{backup, shard, rec});
      pending++;
    }
  }
  if (pending == 0) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
    return;
  }
  stats_.remote_rounds++;

  const bool quorum = repl_->QuorumArmed();
  std::function<void(store::NodeId)> one_done;
  if (quorum) {
    // Quorum commit point: fire once every written shard collected its
    // required ack count; stragglers keep draining log_pending so the
    // bookkeeping stays honest, but log_done makes them no-ops. The
    // commit-phase counter st->pending is never shared with LOG acks here.
    st->log_pending = pending;
    st->log_done = false;
    st->log_needed.clear();
    for (store::NodeId shard : shards) {
      st->log_needed[shard] = repl_->AcksRequired(shard);
    }
    one_done = [this, txn](store::NodeId shard) {
      TxnState* st = FindState(txn);
      if (st == nullptr) {
        return;
      }
      assert(st->log_pending > 0);
      st->log_pending--;
      auto it = st->log_needed.find(shard);
      if (it != st->log_needed.end() && it->second > 0) {
        it->second--;
      }
      if (st->log_done) {
        return;
      }
      for (const auto& [s, needed] : st->log_needed) {
        if (needed > 0) {
          return;
        }
      }
      st->log_done = true;
      ReportAndFinish(st, TxnOutcome::kCommitted);
      CommitPhase(st);
    };
  } else {
    st->pending = pending;
    one_done = [this, txn](store::NodeId shard) {
      (void)shard;
      TxnState* st = FindState(txn);
      if (st == nullptr) {
        return;
      }
      if (--st->pending > 0) {
        return;
      }
      ReportAndFinish(st, TxnOutcome::kCommitted);
      CommitPhase(st);
    };
  }

  for (auto& s : sends) {
    const auto bytes = static_cast<uint32_t>(s.rec.ByteSize());
    BaselineNode* target = (*peers_)[s.backup];
    auto append = [target, rec = std::move(s.rec)]() mutable {
      auto r = target->store_->log().Append(std::move(rec));
      assert(r.ok() && "baseline backup log overflow");
      (void)r;
    };
    auto acked = [one_done, shard = s.shard] { one_done(shard); };
    if (mode_ == BaselineMode::kFasst) {
      transport_.Rpc(net::MsgType::kLog, s.backup, bytes, 16, kRpcHandlerPerKey,
                     std::move(append), std::move(acked), txn);
    } else {
      // One-sided WRITE into the backup's message log (FaRM-style).
      transport_.Write(net::MsgType::kLog, s.backup, bytes, std::move(append),
                       std::move(acked), txn);
    }
  }
}

void BaselineNode::CommitPhase(TxnState* st) {
  std::vector<store::NodeId> shards;
  for (const auto& k : st->write_keys) {
    const store::NodeId p = map_->PrimaryOf(k.table, k.key);
    if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
      shards.push_back(p);
    }
  }
  const store::TxnId txn = st->id;
  st->pending = 0;

  auto one_done = [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (--st->pending == 0) {
      EraseState(txn);
    }
  };

  if (shards.empty()) {
    EraseState(txn);
    return;
  }

  for (store::NodeId shard : shards) {
    std::vector<store::LogWrite> writes = ShardWrites(*st, shard);
    // Strip workload-managed writes: primaries apply only table writes
    // (host_finish already handled workload structures locally).
    std::erase_if(writes, [this](const store::LogWrite& w) {
      return w.table >= store_->num_tables();
    });
    if (writes.empty()) {
      continue;
    }

    if (shard == id()) {
      st->pending++;
      host_cores_->Submit(kHostKeyCost * static_cast<sim::Tick>(writes.size()),
                          [this, txn, writes, one_done]() mutable {
                            for (const auto& w : writes) {
                              if (w.is_delete) {
                                store_->table(w.table).Erase(w.key);
                              } else {
                                store_->table(w.table).Apply(w.key, w.value, w.seq);
                              }
                              store_->table(w.table).Unlock(w.key, txn);
                            }
                            one_done();
                          });
      continue;
    }

    BaselineNode* target = (*peers_)[shard];
    if (mode_ == BaselineMode::kDrtmR) {
      // One-sided: per key, WRITE the new value then WRITE the unlock.
      for (const auto& w : writes) {
        st->pending++;
        const auto bytes = static_cast<uint32_t>(24 + w.value.size());
        transport_.Write(net::MsgType::kCommit, shard, bytes,
                    [target, w] {
                      if (w.is_delete) {
                        target->store_->table(w.table).Erase(w.key);
                      } else {
                        target->store_->table(w.table).Apply(w.key, w.value, w.seq);
                      }
                    },
                    [this, shard, target, w, txn, one_done]() mutable {
                      transport_.Write(net::MsgType::kUnlock, shard, 8,
                                  [target, w, txn] {
                                    target->store_->table(w.table).Unlock(w.key, txn);
                                  },
                                  one_done, txn);
                    },
                    txn);
      }
      continue;
    }

    // DrTM+H / FaSST: one commit RPC per shard.
    st->pending++;
    uint32_t bytes = 32;
    for (const auto& w : writes) {
      bytes += 24 + static_cast<uint32_t>(w.value.size());
    }
    transport_.Rpc(net::MsgType::kCommit, shard, bytes, 16,
              kRpcHandlerPerKey * static_cast<sim::Tick>(writes.size()),
              [target, writes, txn] {
                for (const auto& w : writes) {
                  if (w.is_delete) {
                    target->store_->table(w.table).Erase(w.key);
                  } else {
                    target->store_->table(w.table).Apply(w.key, w.value, w.seq);
                  }
                  target->store_->table(w.table).Unlock(w.key, txn);
                }
              },
              one_done, txn);
  }

  if (st->pending == 0) {
    EraseState(txn);
  }
}

void BaselineNode::AbortCleanup(TxnState* st, TxnOutcome outcome) {
  const store::TxnId txn = st->id;
  // Release every lock we hold, grouped per shard.
  struct Group {
    store::NodeId shard;
    std::vector<KeyRef> keys;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < st->write_keys.size(); ++i) {
    if (!st->write_locked[i]) {
      continue;
    }
    const auto& k = st->write_keys[i];
    const store::NodeId p = map_->PrimaryOf(k.table, k.key);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const Group& g) { return g.shard == p; });
    if (it == groups.end()) {
      groups.push_back(Group{p, {}});
      it = groups.end() - 1;
    }
    it->keys.push_back(k);
  }
  for (auto& g : groups) {
    if (g.shard == id()) {
      for (const auto& k : g.keys) {
        store_->table(k.table).Unlock(k.key, txn);
      }
      continue;
    }
    BaselineNode* target = (*peers_)[g.shard];
    if (mode_ == BaselineMode::kDrtmR) {
      for (const auto& k : g.keys) {
        transport_.Write(net::MsgType::kUnlock, g.shard, 8,
                    [target, k, txn] { target->store_->table(k.table).Unlock(k.key, txn); },
                    [] {}, txn);
      }
    } else {
      transport_.Rpc(net::MsgType::kUnlock, g.shard, 32, 8, kRpcHandlerPerKey,
                [target, keys = g.keys, txn] {
                  for (const auto& k : keys) {
                    target->store_->table(k.table).Unlock(k.key, txn);
                  }
                },
                [] {}, txn);
    }
  }
  ReportAndFinish(st, outcome);
  EraseState(txn);
}

void BaselineNode::ReportAndFinish(TxnState* st, TxnOutcome outcome) {
  if (outcome == TxnOutcome::kCommitted) {
    stats_.committed++;
  } else if (outcome == TxnOutcome::kAppAborted) {
    stats_.app_aborted++;
  } else {
    stats_.aborted++;
  }
  auto done = std::move(st->done);
  st->done = nullptr;
  auto host_finish = st->req.host_finish;
  // Same contract as Xenic: the outcome is reported at the commit point;
  // post-commit local structure maintenance is deferred host work.
  host_cores_->Submit(kHostFinishBase,
                      [done = std::move(done), outcome]() mutable { done(outcome); });
  if (host_finish && outcome == TxnOutcome::kCommitted) {
    host_cores_->Submit(st->req.host_finish_cost,
                        [host_finish = std::move(host_finish)]() mutable { host_finish(); });
  }
}

void BaselineNode::EraseState(store::TxnId id) { txns_.erase(id); }

BaselineNode::TxnState* BaselineNode::FindState(store::TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

void BaselineNode::StartWorkers(uint32_t count, sim::Tick poll_interval) {
  drain_.Start(count, poll_interval);
}

void BaselineNode::StopWorkers() { drain_.Stop(); }

}  // namespace xenic::baseline
