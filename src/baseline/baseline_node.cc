#include "src/baseline/baseline_node.h"

#include <algorithm>
#include <cassert>

namespace xenic::baseline {

namespace {

using txn::AbortReason;
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
  auto st = std::make_unique<TxnState>();
  st->Init(store::MakeTxnId(id(), next_txn_seq_++), std::move(req), std::move(done));
  st->write_locked.assign(st->write_keys.size(), false);
  const store::TxnId txn = st->id;
  txns_[txn] = std::move(st);
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

  if (mode_ == BaselineMode::kFasst) {
    // Consolidated per-shard RPCs: one request reads and locks everything
    // this shard holds.
    const size_t groups = st->GroupByShard(*map_, &shard_groups_);
    st->pending = static_cast<uint32_t>(groups);
    if (st->pending == 0) {
      AfterExecuteRound(st);
      return;
    }
    for (size_t g = 0; g < groups; ++g) {
      FasstExecuteShard(st, shard_groups_[g], one_done);
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
          st->Abort(AbortReason::kLockExecute);
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
      st->Abort(AbortReason::kLockExecute);
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
  // current, else abort (a read-write gap).
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
          st->Abort(AbortReason::kGap);
        } else {
          st->write_locked[write_idx] = true;
          st->write_seqs[write_idx] = cur;
        }
      } else {
        st->Abort(AbortReason::kLockExecute);
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
            return kLockWordStale;
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
            st->Abort(word == kLockWordStale ? AbortReason::kGap : AbortReason::kLockExecute);
          } else {
            st->write_locked[write_idx] = true;
            st->write_seqs[write_idx] = static_cast<store::Seq>(word >> 1);
          }
          done();
        },
        txn);
    return;
  }

  // DrTM+H (both variants): lock via RPC, version-checked in the handler,
  // which returns why it refused.
  struct Holder {
    AbortReason refused = AbortReason::kLockExecute;
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
                  h->refused = AbortReason::kGap;
                } else {
                  h->refused = AbortReason::kNone;
                  h->seq = cur;
                }
              }
            },
            [this, txn, write_idx, h, done = std::move(done)]() mutable {
              TxnState* st = FindState(txn);
              if (st == nullptr) {
                return;
              }
              if (h->refused == AbortReason::kNone) {
                st->write_locked[write_idx] = true;
                st->write_seqs[write_idx] = h->seq;
              } else {
                st->Abort(h->refused);
              }
              done();
            },
            txn);
}

void BaselineNode::FasstExecuteShard(TxnState* st, const txn::ShardGroup& group,
                                     sim::Engine::Callback done) {
  const store::TxnId txn = st->id;
  const store::NodeId shard = group.primary;
  const size_t n_keys = group.read_idx.size() + group.write_idx.size();

  if (shard == id()) {
    host_cores_->Submit(
        kHostKeyCost * static_cast<sim::Tick>(n_keys),
        [this, txn, read_idx = group.read_idx, write_idx = group.write_idx,
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
                st->Abort(AbortReason::kGap);
              } else {
                st->write_locked[i] = true;
                st->write_seqs[i] = cur;
              }
            } else {
              st->Abort(AbortReason::kLockExecute);
            }
          }
          for (uint32_t i : read_idx) {
            const KeyRef k = st->read_keys[i];
            if (const auto* o = store_->table(k.table).Lookup(k.key)) {
              if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
                st->Abort(AbortReason::kLockExecute);
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

  // What the handler found; `refused` is the first cause of a refusal.
  struct Holder {
    AbortReason refused = AbortReason::kNone;
    std::vector<std::pair<uint32_t, ReadResult>> reads;
    std::vector<std::pair<uint32_t, store::Seq>> seqs;
    std::vector<KeyRef> locked;
    void Refuse(AbortReason reason) {
      if (refused == AbortReason::kNone) {
        refused = reason;
      }
    }
  };
  auto h = std::make_shared<Holder>();
  uint32_t req_bytes = net::wire::ExecuteReq(group.read_idx.size(), group.write_idx.size());
  uint32_t resp_bytes = 32;
  for (uint32_t i : group.read_idx) {
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
  for (uint32_t i : group.read_idx) {
    rkeys.emplace_back(i, st->read_keys[i]);
  }
  for (uint32_t i : group.write_idx) {
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
              h->Refuse(AbortReason::kGap);
            } else {
              h->locked.push_back(k);
              h->seqs.emplace_back(i, cur);
            }
          } else {
            h->Refuse(AbortReason::kLockExecute);
          }
        }
        for (const auto& [i, k] : rkeys) {
          if (const auto* o = target->store_->table(k.table).Lookup(k.key)) {
            if (o->lock_owner != store::kNoTxn && o->lock_owner != txn) {
              h->Refuse(AbortReason::kLockExecute);
            } else {
              h->reads.emplace_back(i, ReadResult{true, o->seq, o->value});
            }
          }
        }
        if (h->refused != AbortReason::kNone) {
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
        if (h->refused != AbortReason::kNone) {
          st->Abort(h->refused);
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
  host_cores_->Submit(st->req.exec_cost, [this, txn] {
    TxnState* st = FindState(txn);
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
  });
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
    // Per-shard validation RPCs, in first-check order. Each is charged as
    // if it carried no checks, pinned: the historical code passed
    // `checks.size()` alongside a lambda whose init-capture moved the
    // checks in the same call, and argument evaluation order ran the move
    // first. Golden transcripts encode that timing.
    st->pending = static_cast<uint32_t>(shards.size());
    for (store::NodeId shard : shards) {
      std::vector<std::pair<KeyRef, store::Seq>> expect;
      for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
        const KeyRef& k = st->read_keys[i];
        if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(st->write_keys, k)) {
          expect.emplace_back(k, st->reads[i].seq);
        }
      }
      if (shard == id()) {
        host_cores_->Submit(
            0, [this, txn, expect = std::move(expect), one_done]() mutable {
              TxnState* st = FindState(txn);
              if (st == nullptr) {
                return;
              }
              for (const auto& [k, seq] : expect) {
                if (ValidationFails(store_->table(k.table), k.key, seq)) {
                  st->Abort(AbortReason::kValidate);
                }
              }
              one_done();
            });
        continue;
      }
      BaselineNode* target = (*peers_)[shard];
      auto ok = std::make_shared<bool>(true);
      transport_.Rpc(net::MsgType::kValidate, shard, net::wire::ValidateReq(0), 16, 0,
                [target, ok, expect = std::move(expect)] {
                  for (const auto& [k, seq] : expect) {
                    if (ValidationFails(target->store_->table(k.table), k.key, seq)) {
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
                    st->Abort(AbortReason::kValidate);
                  }
                  one_done();
                },
                txn);
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
    const store::Seq seq = st->reads[i].seq;
    const store::NodeId shard = map_->PrimaryOf(k.table, k.key);
    if (shard == id()) {
      host_cores_->Submit(kHostKeyCost, [this, txn, k, seq, one_done]() mutable {
        TxnState* st = FindState(txn);
        if (st == nullptr) {
          return;
        }
        if (ValidationFails(store_->table(k.table), k.key, seq)) {
          st->Abort(AbortReason::kValidate);
        }
        one_done();
      });
      continue;
    }
    ChainedStore& table = (*peers_)[shard]->store_->table(k.table);
    auto stale = std::make_shared<bool>(false);
    transport_.Read(net::MsgType::kValidate, shard, 16,
               [&table, key = k.key, seq, stale] {
                 *stale = ValidationFails(table, key, seq);
               },
               [this, txn, stale, one_done]() mutable {
                 TxnState* st = FindState(txn);
                 if (st == nullptr) {
                   return;
                 }
                 if (*stale) {
                   st->Abort(AbortReason::kValidate);
                 }
                 one_done();
               },
               txn);
  }
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

  const store::TxnId txn = st->id;
  for (store::NodeId shard : shards) {
    store::LogRecord rec;
    rec.type = store::LogRecordType::kLog;
    rec.txn = txn;
    st->ShardWrites(*map_, shard, id(), &rec.writes);
    const auto bytes = static_cast<uint32_t>(rec.ByteSize());
    for (store::NodeId backup : repl_->BackupsOf(shard)) {
      BaselineNode* target = (*peers_)[backup];
      auto append = [target, rec]() mutable {
        auto r = target->store_->log().Append(std::move(rec));
        assert(r.ok() && "baseline backup log overflow");
        (void)r;
      };
      auto acked = [this, txn, backup, shard] { OnLogAck(txn, backup, shard); };
      if (mode_ == BaselineMode::kFasst) {
        transport_.Rpc(net::MsgType::kLog, backup, bytes, 16, kRpcHandlerPerKey,
                       std::move(append), std::move(acked), txn);
      } else {
        // One-sided WRITE into the backup's message log (FaRM-style).
        transport_.Write(net::MsgType::kLog, backup, bytes, std::move(append),
                         std::move(acked), txn);
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

void BaselineNode::OnLogAck(store::TxnId txn, store::NodeId backup, store::NodeId shard) {
  TxnState* st = FindState(txn);
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

  for (store::NodeId shard : shards) {
    std::vector<store::LogWrite> writes;
    st->ShardWrites(*map_, shard, id(), &writes);
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
                              store_->ApplyWrite(w);
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
                    [target, w] { target->store_->ApplyWrite(w); },
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
                  target->store_->ApplyWrite(w);
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
  // Release every lock we hold: one message per shard, in first-locked
  // order (DrTM+R: one unlock WRITE per key).
  std::vector<store::NodeId> shards;
  for (size_t i = 0; i < st->write_keys.size(); ++i) {
    if (st->write_locked[i]) {
      txn::AddShard(&shards, map_->PrimaryOf(st->write_keys[i].table, st->write_keys[i].key));
    }
  }
  for (store::NodeId shard : shards) {
    std::vector<KeyRef> keys;
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
      continue;
    }
    BaselineNode* target = (*peers_)[shard];
    if (mode_ == BaselineMode::kDrtmR) {
      for (const auto& k : keys) {
        transport_.Write(net::MsgType::kUnlock, shard, 8,
                    [target, k, txn] { target->store_->table(k.table).Unlock(k.key, txn); },
                    [] {}, txn);
      }
    } else {
      transport_.Rpc(net::MsgType::kUnlock, shard, 32, 8, kRpcHandlerPerKey,
                [target, keys = std::move(keys), txn] {
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
  stats_.Count(outcome, st->abort_reason);
  // Same contract as Xenic: the outcome is reported at the commit point;
  // post-commit local structure maintenance is deferred host work.
  st->TakeReport(outcome).Run(host_cores_);
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
