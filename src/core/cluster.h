#ifndef DINOMO_CORE_CLUSTER_H_
#define DINOMO_CORE_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/routing.h"
#include "common/backoff.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/reconfig.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kvs_node.h"
#include "mnode/policy.h"
#include "net/fault.h"
#include "obs/trace.h"

namespace dinomo {

/// Configuration of a DINOMO cluster.
struct ClusterOptions {
  SystemVariant variant = SystemVariant::kDinomo;
  dpm::DpmOptions dpm;
  /// DPM pool size: DpmNode instances key ranges partition across (the
  /// paper's multi-DPM scale-out). DINOMO-N forces 1.
  int dpm_nodes = 1;
  /// Copies of each log batch (2 = primary + mirror with
  /// replicate-before-ack; see DESIGN.md "Replication model").
  int replication_factor = 1;
  /// Template for every KN; kn_id/fabric_node/policy fields are filled in
  /// per node (policy is forced by `variant`).
  kn::KnOptions kn;
  int initial_kns = 1;
  /// DPM processor threads merging logs (paper: 4 for 16 KNs).
  int dpm_merge_threads = 2;
  mnode::PolicyParams policy;
  /// Spawn the M-node monitoring loop (real-thread runtime only).
  bool start_mnode = false;
  /// Clients spin for the op's modeled latency, so latency SLOs are
  /// meaningful in the real-thread runtime.
  bool inject_latency = false;
  /// Overall per-request budget for Client::Execute, matching the paper's
  /// client timeout ("user requests are set to time out after 500ms",
  /// §5.3). Transient rejections retry with the default BackoffOptions
  /// until the budget is spent, then the client sees DeadlineExceeded.
  double request_deadline_us = 500'000.0;
  /// Per-client pipelining window: ExecuteAsync admits up to this many
  /// unfinished requests before blocking the submitter (closed-loop
  /// drivers keep the window full to overlap round trips). The sync
  /// Get/Put/Delete path always runs with one request in flight.
  int pipeline_depth = 8;
  /// Fault schedule installed into the fabric and DPM RPC entry points at
  /// Start(). Empty = fault-free. kFailStop events name a KN id; the
  /// cluster enacts them via KillKn from a dedicated thread.
  net::FaultSchedule faults;
  /// Request tracer (nullptr = the global tracer, which is disabled until
  /// a harness arms it). Sampled requests carry spans from Client::Execute
  /// through the worker, fabric and merge paths, timestamped on the wall
  /// clock in this runtime.
  obs::Tracer* tracer = nullptr;
};

class Cluster;

/// A client handle (paper Figure 1): routes requests to owner KNs using a
/// cached routing snapshot, refreshing it when a KN answers WrongOwner or
/// is unavailable, exactly as §3.4 describes. Thread-compatible: use one
/// Client per application thread.
///
/// Two request paths share one engine:
///  - Sync Get/Put/Delete: submit and wait (one request in flight).
///  - Pipelined: ExecuteAsync returns an OpFuture immediately and admits
///    up to ClusterOptions::pipeline_depth unfinished requests, so a
///    closed-loop caller overlaps round trips instead of paying one RTT
///    per op. Completions are pumped on the client's own thread (inside
///    ExecuteAsync/Get()/done()), which is where per-request retry,
///    backoff and deadline decisions run — semantics are identical to the
///    sync path, per request.
///
/// Every request observes its deadline: a request whose underlying op is
/// still in flight when request_deadline_us elapses completes with
/// DeadlineExceeded at the deadline (the late fabric op is absorbed when
/// it finishes; it cannot extend the caller-visible latency).
class Client {
 public:
  /// Future-like handle to one pipelined request. Must not outlive the
  /// Client that issued it; Get() may be called at most once.
  class OpFuture {
   public:
    OpFuture() = default;
    /// Blocks (driving the client's pipeline) until this op completes;
    /// returns its result. For Put/Delete the value is empty.
    Result<std::string> Get();
    /// Non-blocking completion probe (drains ready completions first).
    bool done();

   private:
    friend class Client;
    OpFuture(Client* client, uint64_t id) : client_(client), id_(id) {}
    Client* client_ = nullptr;
    uint64_t id_ = 0;
  };

  explicit Client(Cluster* cluster);
  /// Waits for in-flight completions before destruction (their callbacks
  /// reference this client's mailbox and trace contexts).
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Result<std::string> Get(const Slice& key);
  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// Range scan: up to `count` rows in ascending key order, starting at
  /// `start_key` (inclusive). Served from the ordered DPM index by the KN
  /// that owns the start key's hash; like the sync point ops it runs with
  /// one request in flight. Sees merged state plus the serving worker's
  /// own un-merged writes (see KnWorker::Scan for the consistency model).
  Result<std::vector<kn::ScanRow>> Scan(const Slice& start_key,
                                        uint32_t count);

  /// Pipelined submission; see the class comment.
  OpFuture GetAsync(const Slice& key) {
    return ExecuteAsync(kn::Request::Type::kGet, key, Slice());
  }
  OpFuture PutAsync(const Slice& key, const Slice& value) {
    return ExecuteAsync(kn::Request::Type::kPut, key, value);
  }
  OpFuture ExecuteAsync(kn::Request::Type type, const Slice& key,
                        const Slice& value, uint32_t scan_count = 0);

  /// Unfinished pipelined requests (admitted, not yet completed).
  size_t pipeline_outstanding() const { return unfinished_; }

  /// Last completed operation's modeled service latency, us. Reset to 0
  /// when the last operation finished without a definitive completion
  /// (deadline exceeded), so a stale previous value never leaks through.
  double last_latency_us() const { return last_latency_us_; }

 private:
  friend class Cluster;

  using Clock = std::chrono::steady_clock;

  /// Completions cross from worker threads to the client thread here.
  /// shared_ptr so a completion callback can never dangle.
  struct Mailbox {
    Mutex mu;
    CondVar cv;
    std::deque<std::pair<uint64_t, kn::OpResult>> ready GUARDED_BY(mu);
  };

  /// One pipelined request's state; lives in ops_ from admission until
  /// its result is harvested AND no underlying submission is in flight.
  struct PendingOp {
    uint64_t id = 0;
    kn::Request::Type type = kn::Request::Type::kGet;
    std::string key;
    std::string value;
    uint32_t scan_count = 0;         // kScan: row limit
    std::vector<kn::ScanRow> rows;   // kScan: result rows
    uint64_t key_hash = 0;
    Clock::time_point deadline;
    Backoff backoff;
    int attempts = 0;
    std::unique_ptr<obs::TraceContext> trace;
    bool in_flight = false;  // submitted to a KN, completion pending
    bool parked = false;     // waiting out a retry backoff
    Clock::time_point wake;  // valid when parked
    bool done = false;       // result is final (caller-visible)
    bool consumed = false;   // future harvested the result
    Status last_error = Status::Unavailable("no KNs");
    Result<std::string> result{Status::Unavailable("pending")};
    double latency_us = 0.0;
  };

  Result<std::string> Execute(kn::Request::Type type, const Slice& key,
                              const Slice& value);
  Result<std::string> Harvest(uint64_t id);
  bool OpDone(uint64_t id);

  /// Drives the pipeline until `keep_waiting` turns false: drains the
  /// mailbox, applies retry/backoff/deadline decisions, resubmits parked
  /// ops, and sleeps until the next timed event otherwise.
  template <typename Cond>
  void PumpWhile(Cond keep_waiting);
  void SubmitOp(PendingOp* op);
  void ParkOp(PendingOp* op);
  void HandleCompletion(uint64_t id, kn::OpResult result);
  void FinishOp(PendingOp* op, Status status, std::string value,
                double latency_us);
  void FinishDeadline(PendingOp* op);

  Cluster* cluster_;
  std::shared_ptr<const cluster::RoutingTable> table_;
  uint64_t salt_;
  double last_latency_us_ = 0.0;

  std::shared_ptr<Mailbox> mbox_;
  std::map<uint64_t, std::unique_ptr<PendingOp>> ops_;
  uint64_t next_op_id_ = 1;
  size_t unfinished_ = 0;  // ops in ops_ with done == false
};

/// The DINOMO cluster (real-thread runtime): DPM node, KVS nodes, routing
/// service and (optionally) the M-node monitoring loop, all in-process.
/// The virtual-time engine in src/sim reuses the same components but
/// drives them through a discrete-event scheduler instead.
///
/// Reconfigurations run the shared §3.5 protocol (ReconfigProtocol); this
/// class is its wall-clock Runtime.
class Cluster : private Runtime {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start();
  void Stop();

  std::unique_ptr<Client> NewClient() {
    return std::make_unique<Client>(this);
  }

  // ----- Administrative / reconfiguration operations -----

  /// Scales out by one KN. Returns the new KN's id.
  Result<uint64_t> AddKn();
  /// Gracefully removes a KN (scale-in).
  Status RemoveKn(uint64_t kn_id);
  /// Fail-stop kills a KN and runs the failure-handling path of §3.5.
  Status KillKn(uint64_t kn_id);
  /// Fail-stop kills a DPM node: the pool promotes each of its ranges'
  /// mirrors (ring removal + generation bump), KNs quiesce and re-resolve
  /// segment homes, a re-replication pass restores the mirror count, and
  /// the measured recovery window publishes as dpm.pool.recovery_window_us.
  /// Requires dpm_nodes >= 2 (the last node cannot be killed).
  Status KillDpm(int node);
  /// Replicates a hot key's ownership across `replication` KNs.
  Status ReplicateKey(const Slice& key, int replication) {
    return ReplicateKeyHash(kn::KeyHash(key), replication);
  }
  /// Collapses a key back to a single owner.
  Status DereplicateKey(const Slice& key) {
    return DereplicateKeyHash(kn::KeyHash(key));
  }
  /// Hash-based forms used by the policy engine (which tracks keys by
  /// their 64-bit fingerprints).
  Status ReplicateKeyHash(uint64_t key_hash, int replication);
  Status DereplicateKeyHash(uint64_t key_hash);

  // ----- Introspection -----

  /// DPM node 0 — the whole pool in single-node configurations; tests and
  /// harnesses that predate the pool keep working through this.
  dpm::DpmNode* dpm() { return pool_->node(0); }
  dpm::DpmPool* dpm_pool() { return pool_.get(); }
  cluster::RoutingService* routing() { return protocol_.routing(); }
  const ClusterOptions& options() const { return options_; }
  /// The tracer requests sample against (never null).
  obs::Tracer* tracer() const {
    return options_.tracer != nullptr ? options_.tracer
                                      : &obs::Tracer::Global();
  }
  /// The installed fault injector, or nullptr when running fault-free.
  net::FaultInjector* fault_injector() { return injector_.get(); }
  std::vector<uint64_t> ActiveKns() const override;
  kn::KvsNode* kn(uint64_t kn_id);

  /// Gathers the monitoring metrics the M-node consumes (drains the
  /// workers' epoch load).
  mnode::ClusterMetrics CollectMetrics(double epoch_seconds);

  /// Client latency reporting (feeds SLO checks).
  void RecordLatency(double us);

  /// Runs one M-node decision epoch by hand (tests / manual driving).
  mnode::PolicyAction RunPolicyOnce(double now_s, double epoch_s);

 private:
  friend class Client;

  // Runtime: wall clock, real KvsNode threads. Called with admin_mu_ held.
  double NowUs() override;
  uint64_t StartKn() override;
  void StopKn(uint64_t kn_id) override;
  void FailKn(uint64_t kn_id) override;
  void RunOnWorkers(uint64_t kn_id,
                    const std::function<void(kn::KnWorker*)>& fn) override;
  double Quiesce(const std::vector<uint64_t>& kn_ids) override;
  void Resume(const std::vector<uint64_t>& kn_ids, double ready_us) override;
  Status AdminRpc(const std::function<Status()>& rpc) override;

  void MnodeLoop();
  /// Enacts due kFailStop events. A dedicated thread because KillKn joins
  /// worker threads — a worker cannot fail-stop itself without
  /// deadlocking on its own join.
  void FaultEnactorLoop();

  ClusterOptions options_;
  std::unique_ptr<dpm::DpmPool> pool_;
  std::unique_ptr<net::FaultInjector> injector_;

  // Outermost locks in the canonical order (DESIGN.md): admin_mu_
  // serializes whole reconfigurations (every protocol_ call); kns_mu_
  // guards only the KN map and is held for lookups, never across
  // protocol steps.
  Mutex admin_mu_;
  ReconfigProtocol protocol_;
  mutable Mutex kns_mu_;
  std::map<uint64_t, std::unique_ptr<kn::KvsNode>> kns_ GUARDED_BY(kns_mu_);
  std::atomic<uint64_t> next_kn_id_{1};

  Mutex latency_mu_;
  Histogram latency_hist_ GUARDED_BY(latency_mu_);

  std::thread mnode_thread_;
  std::atomic<bool> mnode_running_{false};
  std::thread fault_thread_;
  std::atomic<bool> fault_running_{false};
  std::atomic<bool> started_{false};
};

}  // namespace dinomo

#endif  // DINOMO_CORE_CLUSTER_H_
