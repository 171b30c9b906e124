#include "decorators.h"

namespace perfbench {

using namespace xenic;

txn::TxnRequest TimedWorkload::NextTxn(store::NodeId coordinator, Rng& rng) {
  const uint64_t t0 = NowNs();
  txn::TxnRequest req = inner_.NextTxn(coordinator, rng);
  probe_.next_txn.ns += NowNs() - t0;
  probe_.next_txn.calls++;
  return req;
}

std::function<sim::Tick(const store::LogWrite&)> TimedWorkload::WorkerHook(store::NodeId node) {
  auto hook = inner_.WorkerHook(node);
  if (!hook) {
    return nullptr;  // keep "no hook" distinguishable for the node
  }
  return [this, hook = std::move(hook)](const store::LogWrite& w) {
    const uint64_t t0 = NowNs();
    const sim::Tick extra = hook(w);
    probe_.worker_hook.ns += NowNs() - t0;
    probe_.worker_hook.calls++;
    return extra;
  };
}

uint64_t TimedSystem::Submit(store::NodeId node, txn::TxnRequest req, txn::CommitCallback done) {
  probe_.keys += req.reads.size() + req.writes.size();
  std::shared_ptr<chaos::TxnObservation> obs;
  if (history_ != nullptr) {
    obs = history_->Instrument(req);
  }
  // An aborted attempt is retried after a backoff event; a dropped one (the
  // retry cap was hit) makes the closed-loop context start its next
  // transaction right inside the callback, which NextTxn's count reveals.
  txn::CommitCallback wrapped = [this, obs = std::move(obs),
                                 done = std::move(done)](txn::TxnResult r) {
    if (r.outcome == txn::TxnOutcome::kCommitted && obs != nullptr) {
      history_->Commit(obs);
    }
    const uint64_t started = probe_.next_txn.calls;
    done(r);
    if (r.outcome == txn::TxnOutcome::kAborted && probe_.next_txn.calls != started) {
      probe_.dropped++;
    }
  };
  const uint64_t t0 = NowNs();
  const uint64_t id = inner_->Submit(node, std::move(req), std::move(wrapped));
  probe_.submit.ns += NowNs() - t0;
  probe_.submit.calls++;
  if (id == 0) {
    probe_.refused++;
  }
  return id;
}

void TimedSystem::LoadReplicated(store::TableId t, store::Key k, const store::Value& v) {
  const uint64_t t0 = NowNs();
  inner_->LoadReplicated(t, k, v);
  probe_.load.ns += NowNs() - t0;
  probe_.load.calls++;
}

}  // namespace perfbench
