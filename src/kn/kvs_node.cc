#include "kn/kvs_node.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace dinomo {
namespace kn {

namespace {
// Doorbell batching: a worker that finds several GETs queued runs their
// local parts first, then fuses the surviving direct value reads into one
// fabric round per DPM node (Fabric::OpBatch), up to this many requests
// per round.
constexpr size_t kDoorbellMaxFuse = 8;
}  // namespace

KvsNode::KvsNode(const KnOptions& options, dpm::DpmPool* pool)
    : options_(options), pool_(pool) {
  DINOMO_CHECK(options_.num_workers >= 1);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<KnWorker>(options_, i, pool));
    queues_.push_back(std::make_unique<BlockingQueue<Request>>());
  }
}

KvsNode::~KvsNode() { Stop(); }

void KvsNode::Start() {
  if (running_.exchange(true)) return;
  for (int i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void KvsNode::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& q : queues_) q->Close();
  // Bump the event counter under the lock before notifying: a Busy
  // writer that has checked running_ but not yet blocked would otherwise
  // miss this notify entirely (lost wakeup) and sleep out its timeout.
  {
    MutexLock lock(merge_mu_);
    merge_events_++;
  }
  merge_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (!failed_.load()) {
    // Orderly shutdown flushes buffered writes.
    for (auto& w : workers_) {
      OpResult r = w->FlushWrites();
      if (!r.status.ok() && !r.status.IsBusy()) {
        DINOMO_LOG_STREAM(Warn)
            << "flush on shutdown failed: " << r.status.ToString();
      }
    }
  }
}

void KvsNode::Fail() {
  failed_.store(true, std::memory_order_release);
  available_.store(false, std::memory_order_release);
  if (!running_.exchange(false)) return;
  for (auto& q : queues_) q->Close();
  {
    MutexLock lock(merge_mu_);
    merge_events_++;
  }
  merge_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
  threads_.clear();
  // DRAM contents are lost with the node: caches and un-flushed batches.
  // (Workers stay allocated so late stats queries do not crash, but they
  // are never driven again.)
}

void KvsNode::Submit(const cluster::RoutingTable& routing, Request req) {
  // Wrap the completion so every path — normal execution, drain on
  // failure, rejected enqueue — decrements the in-flight count exactly
  // once when the callback fires.
  if (req.done) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    req.done = [this, done = std::move(req.done)](OpResult r) {
      // Decrement first: by the time a client can observe the completion
      // (inside done), the request is no longer counted in flight.
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      done(std::move(r));
    };
  }
  if (failed_.load(std::memory_order_acquire) ||
      !available_.load(std::memory_order_acquire) ||
      !running_.load(std::memory_order_acquire)) {
    if (req.done) {
      OpResult r;
      r.status = Status::Unavailable("KN not serving");
      req.done(std::move(r));
    }
    return;
  }
  int idx = 0;
  if (req.type != Request::Type::kControl) {
    idx = routing.ThreadFor(KeyHash(req.key), options_.kn_id);
  }
  if (req.trace != nullptr) {
    // Queue wait starts now; the worker records the span when it pops
    // the request (EndRequest flushes it if the push is rejected).
    req.trace->MarkWait(obs::SpanKind::kQueueWait,
                        req.trace->tracer()->NowUs());
  }
  if (!queues_[idx]->Push(std::move(req))) {
    // Raced with Stop()/Fail() closing the queue after the checks above.
    // The request was never enqueued (a failed Push does not consume it);
    // complete it here or the client's future would wait forever.
    if (req.done) {
      OpResult r;
      r.status = Status::Unavailable("KN not serving");
      req.done(std::move(r));
    }
  }
}

void KvsNode::RunOnAllWorkers(const std::function<void(KnWorker*)>& fn) {
  if (!running_.load(std::memory_order_acquire)) {
    // Manual mode: run inline.
    for (auto& w : workers_) fn(w.get());
    return;
  }
  std::atomic<int> remaining{static_cast<int>(workers_.size())};
  Mutex mu;
  CondVar cv;
  // The decrement must happen under the lock: the waiter destroys mu/cv
  // as soon as it sees remaining == 0, so a worker that decremented
  // outside the lock could then lock a dead mutex. (mu, cv and remaining
  // outlive every call — the wait below holds this frame open until the
  // last worker has released mu.)
  auto finish_one = [&mu, &cv, &remaining] {
    MutexLock lock(mu);
    if (remaining.fetch_sub(1) == 1) cv.NotifyAll();
  };
  for (int i = 0; i < static_cast<int>(workers_.size()); ++i) {
    Request req;
    req.type = Request::Type::kControl;
    req.control = [&, fn, finish_one](KnWorker* w) {
      fn(w);
      finish_one();
    };
    if (!queues_[i]->Push(std::move(req))) {
      // Queue closed under us (Stop/Fail race): run inline so the wait
      // below cannot deadlock on a control request that never executes.
      fn(workers_[i].get());
      finish_one();
    }
  }
  MutexLock lock(mu);
  while (remaining.load() != 0) cv.Wait(lock);
}

void KvsNode::OnBatchMerged(const dpm::MergeAck& ack) {
  const int idx = static_cast<int>(ack.owner & 0xff);
  if (idx < static_cast<int>(workers_.size())) {
    workers_[idx]->OnOwnerBatchMerged(ack.node, ack.base);
  }
  {
    MutexLock lock(merge_mu_);
    merge_events_++;
  }
  merge_cv_.NotifyAll();
}

void KvsNode::WorkerLoop(int idx) {
  KnWorker* worker = workers_[idx].get();
  BlockingQueue<Request>* queue = queues_[idx].get();
  // A non-GET popped while assembling a doorbell run; executed on the
  // next iteration (queue order is preserved — it was enqueued after the
  // run's GETs).
  std::optional<Request> carry;
  std::vector<Request> run;  // reused: a lone GET allocates nothing here
  while (true) {
    std::optional<Request> item;
    if (carry.has_value()) {
      item = std::move(carry);
      carry.reset();
    } else {
      item = queue->TryPop();
      if (!item.has_value()) {
        // Queue drained: group-commit boundary — flush buffered writes.
        OpResult flush = worker->FlushWrites();
        (void)flush;
        item = queue->Pop();  // blocks
        if (!item.has_value()) return;  // closed
      }
    }
    Request req = std::move(*item);
    if (req.type == Request::Type::kControl) {
      if (req.control) req.control(worker);
      continue;
    }
    if (failed_.load(std::memory_order_acquire)) {
      // Fail-stop drain: the node is dead, so requests still queued are
      // answered — not executed — before the thread exits. Fail() joins
      // us, so by the time it returns no client future is outstanding.
      OpResult dead;
      dead.status = Status::Unavailable("KN failed");
      if (req.done) req.done(std::move(dead));
      continue;
    }
    if (req.type == Request::Type::kGet) {
      // Doorbell fusion: under load, several GETs sit queued behind this
      // one. Drain a run of them and fuse their direct value reads into
      // one fabric round per DPM node instead of one round each. A lone
      // GET is a run of one.
      run.clear();
      run.push_back(std::move(req));
      while (run.size() < kDoorbellMaxFuse) {
        auto next = queue->TryPop();
        if (!next.has_value()) break;
        if (next->type != Request::Type::kGet) {
          carry = std::move(*next);
          break;
        }
        run.push_back(std::move(*next));
      }
      ExecuteGetRun(worker, run);
      continue;
    }
    obs::TraceContext* trace = req.trace;
    if (trace != nullptr) trace->FlushWait(trace->tracer()->NowUs());
    obs::ScopedTraceContext trace_scope(trace);
    OpResult result;
    for (int attempt = 0;; ++attempt) {
      switch (req.type) {
        case Request::Type::kPut:
          result = worker->Put(req.key, req.value);
          break;
        case Request::Type::kDelete:
          result = worker->Delete(req.key);
          break;
        case Request::Type::kScan: {
          std::vector<ScanRow> rows;
          result = worker->Scan(req.key, req.scan_count, &rows);
          result.rows = std::move(rows);
          break;
        }
        case Request::Type::kGet:      // served by ExecuteGetRun
        case Request::Type::kControl:  // run above
          break;
      }
      if (!result.status.IsBusy()) break;
      // Log-write blocking (§4): wait for merge progress, then retry.
      const double wait_start =
          trace != nullptr ? trace->tracer()->NowUs() : 0.0;
      {
        // Bounded wait for merge progress or shutdown. The predicate is
        // an explicit loop over guarded state (not a wait-lambda) so the
        // merge_events_ reads are checked against merge_mu_; Stop/Fail
        // bump the counter under the lock, closing the lost-wakeup
        // window between the running_ check and the block.
        MutexLock lock(merge_mu_);
        const uint64_t seen = merge_events_;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
        while (merge_events_ == seen &&
               running_.load(std::memory_order_acquire)) {
          if (!merge_cv_.WaitUntil(lock, deadline)) break;  // timed out
        }
      }
      if (trace != nullptr) {
        trace->RecordWait(obs::SpanKind::kMergeWait, wait_start,
                          trace->tracer()->NowUs() - wait_start);
      }
      if (!running_.load(std::memory_order_acquire)) {
        result.status = Status::Unavailable("KN stopping");
        break;
      }
    }
    if (req.done) req.done(std::move(result));
  }
}

void KvsNode::ExecuteGetRun(KnWorker* worker, std::vector<Request>& run) {
  struct PendingRead {
    Request* req = nullptr;
    OpResult partial;
    DirectReadPlan plan;
  };
  // Phase A: per-request local part. Requests that complete here (value
  // hit, batch-scan hit, index traversal, wrong owner, error) finish
  // inline; the rest leave one read through a cached pointer pending.
  std::vector<PendingRead> pending;
  pending.reserve(run.size());
  for (Request& r : run) {
    if (r.trace != nullptr) r.trace->FlushWait(r.trace->tracer()->NowUs());
    obs::ScopedTraceContext trace_scope(r.trace);
    PendingRead p;
    p.req = &r;
    p.partial = worker->GetPrepare(r.key, &p.plan);
    if (!p.plan.ready) {
      if (r.done) r.done(std::move(p.partial));
      continue;
    }
    pending.push_back(std::move(p));
  }
  // Phase B + C: one fused fabric round per DPM node, lowest node first
  // and each node's requests in queue order, then per-request completion
  // (decode, verify, admit). GETs never return Busy, so no retry loop.
  std::sort(pending.begin(), pending.end(),
            [](const PendingRead& a, const PendingRead& b) {
              return std::tie(a.plan.pl.primary, a.req) <
                     std::tie(b.plan.pl.primary, b.req);
            });
  for (size_t begin = 0, end = 0; begin < pending.size(); begin = end) {
    const int node = pending[begin].plan.pl.primary;
    net::Fabric::OpBatch batch(pool_->node(node)->fabric(),
                               options_.fabric_node);
    PendingRead* leader = nullptr;  // first request whose read is fused
    for (end = begin;
         end < pending.size() && pending[end].plan.pl.primary == node;
         ++end) {
      if (pending[end].plan.AddReadTo(&batch) && leader == nullptr) {
        leader = &pending[end];
      }
    }
    if (leader != nullptr) {
      // The fused round is charged to the group's first fused request,
      // whose trace context carries the doorbell spans (rts=1 on the
      // first fused op, 0 on the rest — see Fabric::OpBatch::Execute). A
      // failed read keeps its own fate, which GetComplete retries.
      net::OpCost fused;
      {
        net::ScopedOpCost cost_scope(&fused);
        obs::ScopedTraceContext trace_scope(leader->req->trace);
        (void)batch.Execute();
      }
      leader->partial.cost.Add(fused);
    }
    for (size_t i = begin; i < end; ++i) {
      PendingRead& p = pending[i];
      obs::ScopedTraceContext trace_scope(p.req->trace);
      OpResult result =
          worker->GetComplete(p.req->key, &p.plan, std::move(p.partial));
      if (p.req->done) p.req->done(std::move(result));
    }
  }
}

WorkerStats KvsNode::AggregateStats() {
  // Snapshot on each worker's own thread, so no count races its writer.
  WorkerStats total;
  Mutex mu;  // workers report concurrently
  RunOnAllWorkers([&](KnWorker* w) {
    const WorkerStats s = w->SnapshotStats();
    MutexLock lock(mu);
    total.reads += s.reads;
    total.writes += s.writes;
    total.scans += s.scans;
    total.value_hits += s.value_hits;
    total.shortcut_hits += s.shortcut_hits;
    total.misses += s.misses;
    total.wrong_owner += s.wrong_owner;
  });
  return total;
}

}  // namespace kn
}  // namespace dinomo
