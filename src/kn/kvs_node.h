#ifndef DINOMO_KN_KVS_NODE_H_
#define DINOMO_KN_KVS_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/concurrency.h"
#include "common/mutex.h"
#include "kn/kn_worker.h"
#include "obs/trace.h"

namespace dinomo {
namespace kn {

/// A request submitted to a KVS node in the real-thread runtime.
struct Request {
  enum class Type { kGet, kPut, kDelete, kScan, kControl };
  Type type = Type::kGet;
  std::string key;
  std::string value;
  /// For kScan: maximum rows returned (key is the scan's start key).
  uint32_t scan_count = 0;
  /// Completion callback; invoked on the worker thread.
  std::function<void(OpResult)> done;
  /// For kControl: arbitrary work executed on the worker thread (routing
  /// updates, cache invalidation, quiesce steps).
  std::function<void(KnWorker*)> control;
  /// Trace context of a sampled request (owned by the client, which
  /// outlives the completion callback); null for unsampled requests.
  /// The worker thread installs it around execution and records the
  /// queue-wait span Submit marked.
  obs::TraceContext* trace = nullptr;
};

/// One KVS node of the real-thread runtime: owns `num_workers` KnWorkers,
/// their request queues and threads. Requests for a key must be submitted
/// to the worker the routing table names (Submit does this). Worker
/// threads retry Busy writes after merge progress (the log-write blocking
/// of §4) and flush pending batches whenever their queue drains (group
/// commit).
///
/// The same object also serves the virtual-time engine and unit tests in
/// "manual" mode: skip Start() and drive the workers directly.
class KvsNode {
 public:
  KvsNode(const KnOptions& options, dpm::DpmPool* pool);
  ~KvsNode();

  KvsNode(const KvsNode&) = delete;
  KvsNode& operator=(const KvsNode&) = delete;

  uint64_t kn_id() const { return options_.kn_id; }
  const KnOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  KnWorker* worker(int i) { return workers_[i].get(); }

  /// Spawns the worker threads (real-thread mode).
  void Start();
  /// Stops and joins worker threads, flushing pending batches. Requests
  /// already queued are executed before the threads exit; a Submit racing
  /// with the shutdown completes with Unavailable rather than hanging.
  void Stop();
  /// Simulates a fail-stop crash: DRAM state (caches, un-flushed batches)
  /// is discarded and the node cannot be restarted. Every request still
  /// queued — and any Submit racing with the crash — completes with
  /// Unavailable before Fail() returns, so no client future is left
  /// waiting on a dead node.
  void Fail();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// True once the node accepts requests. Reconfiguration toggles this
  /// (protocol step 2/5 of §3.5).
  void SetAvailable(bool available) {
    available_.store(available, std::memory_order_release);
  }
  bool available() const {
    return available_.load(std::memory_order_acquire);
  }

  /// Enqueues a request onto the worker that owns the key (per `routing`).
  /// Unavailable/failed nodes complete the request with Unavailable.
  void Submit(const cluster::RoutingTable& routing, Request req);

  /// Runs `fn` on every worker (on its own thread) and waits.
  void RunOnAllWorkers(const std::function<void(KnWorker*)>& fn);

  /// Called (from the merge service callback) when one of this node's
  /// batches merged; wakes Busy writers and evicts the owning worker's
  /// cached batch identified by the ack's base.
  void OnBatchMerged(const dpm::MergeAck& ack) EXCLUDES(merge_mu_);

  /// Cumulative statistics summed across workers.
  WorkerStats AggregateStats();

  /// Requests submitted whose completion callback has not fired yet.
  /// Zero once the node is stopped or failed — the chaos harness gates on
  /// this to prove no request leaked.
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

 private:
  void WorkerLoop(int idx);
  /// Executes a run of GET requests (one or more) with doorbell fusion:
  /// per-request local parts first (GetPrepare), then one fused fabric
  /// round per DPM node for the surviving direct reads, then per-request
  /// completion (GetComplete). Every request's done callback fires
  /// exactly once.
  void ExecuteGetRun(KnWorker* worker, std::vector<Request>& run);

  KnOptions options_;
  dpm::DpmPool* pool_;
  std::vector<std::unique_ptr<KnWorker>> workers_;
  std::vector<std::unique_ptr<BlockingQueue<Request>>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> available_{true};
  std::atomic<int64_t> in_flight_{0};

  // merge_mu_ guards the merge-progress event counter Busy writers wait
  // on. Stop()/Fail() bump it under the lock too, so a writer blocked in
  // its wait loop cannot miss the shutdown (lost-wakeup test:
  // LostWakeupOnStopWhileBusyWaiting).
  Mutex merge_mu_;
  CondVar merge_cv_;
  uint64_t merge_events_ GUARDED_BY(merge_mu_) = 0;
};

}  // namespace kn
}  // namespace dinomo

#endif  // DINOMO_KN_KVS_NODE_H_
