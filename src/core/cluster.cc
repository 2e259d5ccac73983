#include "core/cluster.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace dinomo {

namespace {

// Period of the M-node monitoring loop (start_mnode), ms.
constexpr double kMnodeEpochMs = 100.0;

void SpinFor(double us) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(static_cast<long>(us * 1000));
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Admin-path RPC retry: reconfigurations are off the request path, so
// they wait out bursts of transient DPM rejections (a repair pass is many
// RPCs) rather than abort. Bounded: 23 backoffs capped at 2 ms (~37 ms).
Status RetryTransientRpc(const std::function<Status()>& rpc) {
  Backoff backoff(BackoffOptions{50.0, 2'000.0, 2.0, 0.5}, /*seed=*/11);
  Status st = rpc();
  for (int attempt = 1;
       attempt < Runtime::kAdminRpcAttempts && IsTransient(st); ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(backoff.NextDelayUs()));
    st = rpc();
  }
  return st;
}

}  // namespace

// ----- Client -----

Client::Client(Cluster* cluster)
    : cluster_(cluster),
      table_(cluster->routing()->Snapshot()),
      salt_(reinterpret_cast<uintptr_t>(this)),
      mbox_(std::make_shared<Mailbox>()) {}

Client::~Client() {
  // Wait out any submission still owned by a worker thread: its
  // completion callback will touch the mailbox (kept alive by the
  // shared_ptr) and its Request still points at our trace context.
  PumpWhile([this] {
    for (const auto& [id, op] : ops_) {
      if (op->in_flight) return true;
    }
    return false;
  });
}

Result<std::string> Client::Get(const Slice& key) {
  return Execute(kn::Request::Type::kGet, key, Slice());
}

Status Client::Put(const Slice& key, const Slice& value) {
  return Execute(kn::Request::Type::kPut, key, value).status();
}

Status Client::Delete(const Slice& key) {
  return Execute(kn::Request::Type::kDelete, key, Slice()).status();
}

Result<std::vector<kn::ScanRow>> Client::Scan(const Slice& start_key,
                                              uint32_t count) {
  OpFuture f =
      ExecuteAsync(kn::Request::Type::kScan, start_key, Slice(), count);
  // Harvest by hand: the generic future carries the string result; a
  // scan's rows travel alongside in the op record.
  const uint64_t id = f.id_;
  PumpWhile([this, id] {
    auto it = ops_.find(id);
    return it != ops_.end() && !it->second->done;
  });
  auto it = ops_.find(id);
  DINOMO_CHECK(it != ops_.end());
  PendingOp* op = it->second.get();
  DINOMO_CHECK(op->done);
  Status status = op->result.status();
  std::vector<kn::ScanRow> rows = std::move(op->rows);
  if (op->in_flight) {
    // Clamped at deadline with the submission still outstanding; see
    // Harvest().
    op->consumed = true;
  } else {
    ops_.erase(it);
  }
  if (!status.ok()) {
    return Result<std::vector<kn::ScanRow>>(std::move(status));
  }
  return Result<std::vector<kn::ScanRow>>(std::move(rows));
}

Result<std::string> Client::Execute(kn::Request::Type type, const Slice& key,
                                    const Slice& value) {
  return ExecuteAsync(type, key, value).Get();
}

Client::OpFuture Client::ExecuteAsync(kn::Request::Type type,
                                      const Slice& key, const Slice& value,
                                      uint32_t scan_count) {
  // Bounded window: admit only once fewer than pipeline_depth requests
  // are unfinished, so a closed-loop caller cannot build an unbounded
  // queue inside the KNs.
  const size_t depth = static_cast<size_t>(
      std::max(1, cluster_->options().pipeline_depth));
  PumpWhile([this, depth] { return unfinished_ >= depth; });

  auto op = std::make_unique<PendingOp>();
  PendingOp* p = op.get();
  p->id = next_op_id_++;
  p->type = type;
  p->key = key.ToString();
  p->value = value.ToString();
  p->scan_count = scan_count;
  p->key_hash = kn::KeyHash(key);
  const ClusterOptions& opts = cluster_->options();
  p->deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(opts.request_deadline_us));
  // Fresh backoff per request, seeded deterministically per (client, key)
  // so concurrent clients rejected at the same instant decorrelate.
  p->backoff = Backoff(BackoffOptions{}, salt_ ^ p->key_hash);
  // Sampled requests carry a trace from submission through the worker and
  // fabric; the context ends (recording the root span) when the op record
  // dies on any completion path.
  obs::Tracer* tracer = cluster_->tracer();
  if (tracer->ShouldSample()) {
    const char* name = type == kn::Request::Type::kGet    ? "get"
                       : type == kn::Request::Type::kPut  ? "put"
                       : type == kn::Request::Type::kScan ? "scan"
                                                          : "delete";
    p->trace = std::make_unique<obs::TraceContext>(tracer, name);
  }
  ops_.emplace(p->id, std::move(op));
  unfinished_++;
  SubmitOp(p);
  return OpFuture(this, p->id);
}

void Client::SubmitOp(PendingOp* op) {
  op->attempts++;
  if (op->attempts > 1) {
    // Stale routing is refreshed from the RN after a rejection, as a
    // real client would (§3.4: "the KN they contact will direct them to
    // a routing node to get the latest mapping information").
    table_ = cluster_->routing()->Snapshot();
  }
  if (Clock::now() >= op->deadline) {
    FinishDeadline(op);
    return;
  }
  if (table_->global_ring.empty()) {
    op->last_error = Status::Unavailable("no KNs");
    ParkOp(op);
    return;
  }
  const uint64_t kn_id = table_->RouteFor(op->key_hash, salt_++);
  kn::KvsNode* node = cluster_->kn(kn_id);
  if (node == nullptr) {
    op->last_error = Status::Unavailable("routed to departed KN");
    ParkOp(op);
    return;
  }
  kn::Request req;
  req.type = op->type;
  req.key = op->key;
  req.value = op->value;
  req.scan_count = op->scan_count;
  req.trace = op->trace.get();
  // The callback holds the mailbox alive on its own; op state is only
  // touched back on the client thread, keyed by id.
  req.done = [mbox = mbox_, id = op->id](kn::OpResult r) {
    MutexLock lock(mbox->mu);
    mbox->ready.emplace_back(id, std::move(r));
    mbox->cv.NotifyAll();
  };
  op->in_flight = true;
  node->Submit(*table_, std::move(req));
}

void Client::ParkOp(PendingOp* op) {
  const auto now = Clock::now();
  if (now >= op->deadline) {
    FinishDeadline(op);
    return;
  }
  const double delay_us = op->backoff.NextDelayUs();
  const auto wake =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::micro>(delay_us));
  if (wake >= op->deadline) {
    // The remaining budget cannot fit another attempt.
    FinishDeadline(op);
    return;
  }
  op->parked = true;
  op->wake = wake;
  if (op->trace != nullptr) {
    // The pump resubmits at `wake`; account the pause as backoff.
    obs::Tracer* tracer = cluster_->tracer();
    op->trace->RecordWait(obs::SpanKind::kBackoff, tracer->NowUs(),
                          delay_us);
  }
}

void Client::HandleCompletion(uint64_t id, kn::OpResult result) {
  auto it = ops_.find(id);
  DINOMO_CHECK(it != ops_.end());
  PendingOp* op = it->second.get();
  op->in_flight = false;
  if (op->done) {
    // The op was clamped at its deadline while this (late) completion
    // was still in flight; it only needs absorbing. Drop the record if
    // the future already harvested the clamped result.
    if (op->consumed) ops_.erase(it);
    return;
  }
  if (op->trace != nullptr) {
    // Accumulated across retries; EndRequest publishes the total for
    // the trace-vs-OpCost agreement gate.
    op->trace->AddOpCostRoundTrips(result.cost.round_trips);
  }
  if (result.status.IsWrongOwner() || IsTransient(result.status)) {
    op->last_error = result.status;
    // The time this attempt spent inside the fabric op already counted
    // against the budget: ParkOp computes the retry wake-up from *now*
    // and finishes with DeadlineExceeded when the budget is gone, so a
    // transient fault late in the window cannot push the request past
    // its deadline by another attempt.
    ParkOp(op);
    return;
  }
  const double latency_us =
      result.LatencyUs(cluster_->dpm()->fabric()->profile());
  if (cluster_->options().inject_latency) SpinFor(latency_us);
  cluster_->RecordLatency(latency_us);
  if (!result.status.ok()) {
    FinishOp(op, result.status, std::string(), latency_us);
    return;
  }
  if (op->type == kn::Request::Type::kScan) op->rows = std::move(result.rows);
  FinishOp(op, Status::Ok(),
           op->type == kn::Request::Type::kGet ? std::move(result.value)
                                               : std::string(),
           latency_us);
}

void Client::FinishOp(PendingOp* op, Status status, std::string value,
                      double latency_us) {
  op->done = true;
  DINOMO_CHECK(unfinished_ > 0);
  unfinished_--;
  op->latency_us = latency_us;
  // Every completion path updates the last-latency snapshot — error and
  // deadline exits included — so a caller polling last_latency_us() can
  // never read a stale value from an earlier request.
  last_latency_us_ = latency_us;
  if (!status.ok()) {
    op->result = Result<std::string>(std::move(status));
  } else {
    op->result = Result<std::string>(std::move(value));
  }
}

void Client::FinishDeadline(PendingOp* op) {
  // Budget exhausted. DeadlineExceeded (not the raw error) so callers can
  // tell "out of time" apart from a definitive rejection.
  if (cluster_->fault_injector() != nullptr) {
    cluster_->fault_injector()->NoteDeadlineExceeded();
  }
  FinishOp(op,
           Status::DeadlineExceeded("request deadline exceeded; last error: " +
                                    op->last_error.ToString()),
           std::string(), 0.0);
}

template <typename Cond>
void Client::PumpWhile(Cond keep_waiting) {
  while (keep_waiting()) {
    // 1. Drain ready completions.
    std::deque<std::pair<uint64_t, kn::OpResult>> ready;
    {
      MutexLock lock(mbox_->mu);
      ready.swap(mbox_->ready);
    }
    for (auto& [id, result] : ready) {
      HandleCompletion(id, std::move(result));
    }
    // 2. Timed events: resubmit parked ops whose backoff elapsed; clamp
    //    in-flight ops that ran out of budget (their late completion is
    //    absorbed by HandleCompletion when it arrives).
    const auto now = Clock::now();
    auto next_event = Clock::time_point::max();
    for (auto& [id, op] : ops_) {
      PendingOp* p = op.get();
      if (p->done) continue;
      if (p->parked) {
        if (p->wake <= now) {
          p->parked = false;
          SubmitOp(p);
        } else {
          next_event = std::min(next_event, p->wake);
        }
      }
      if (p->done || p->parked) continue;
      if (p->in_flight) {
        if (now >= p->deadline) {
          FinishDeadline(p);
        } else {
          next_event = std::min(next_event, p->deadline);
        }
      }
    }
    if (!keep_waiting()) return;
    // 3. Sleep until a completion lands or the next timed event.
    MutexLock lock(mbox_->mu);
    if (!mbox_->ready.empty()) continue;
    if (next_event == Clock::time_point::max()) {
      // Nothing in flight and nothing parked can be what we wait for —
      // the condition must depend on completions that cannot come.
      return;
    }
    (void)mbox_->cv.WaitUntil(lock, next_event);
  }
}

Result<std::string> Client::Harvest(uint64_t id) {
  PumpWhile([this, id] {
    auto it = ops_.find(id);
    return it != ops_.end() && !it->second->done;
  });
  auto it = ops_.find(id);
  DINOMO_CHECK(it != ops_.end());  // Get() may only be called once
  PendingOp* op = it->second.get();
  DINOMO_CHECK(op->done);
  Result<std::string> out = std::move(op->result);
  if (op->in_flight) {
    // Clamped at deadline with the submission still outstanding: the
    // record stays (its trace context is referenced by the worker) until
    // the late completion is absorbed.
    op->consumed = true;
  } else {
    ops_.erase(it);
  }
  return out;
}

bool Client::OpDone(uint64_t id) {
  // Drain ready completions without blocking so progress does not depend
  // on someone else pumping.
  bool pass = true;
  PumpWhile([&pass] { return std::exchange(pass, false); });
  auto it = ops_.find(id);
  return it == ops_.end() || it->second->done;
}

Result<std::string> Client::OpFuture::Get() {
  DINOMO_CHECK(client_ != nullptr && id_ != 0);
  return client_->Harvest(id_);
}

bool Client::OpFuture::done() {
  DINOMO_CHECK(client_ != nullptr && id_ != 0);
  return client_->OpDone(id_);
}

// ----- Cluster -----

namespace {


}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(WithVariant(options)),
      pool_(MakeDpmPool(options_.dpm_nodes, options_.replication_factor,
                        options_.dpm)),
      protocol_(this, pool_.get(), options_.variant, options_.kn.num_workers,
                options_.policy) {}

Cluster::~Cluster() { Stop(); }

Status Cluster::Start() {
  if (started_.exchange(true)) return Status::Ok();
  if (!options_.faults.empty()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults,
                                                     options_.dpm.metrics);
    const double started_us = NowUs();  // fault windows count from here
    injector_->SetClock([this, started_us] { return NowUs() - started_us; });
    // Real-thread runtime: injected delays cost wall-clock time, so the
    // paths under test experience them, not just the latency model.
    injector_->set_sleep_on_delay(true);
    SetFaultInjector(pool_.get(), injector_.get());
    fault_running_ = true;
    fault_thread_ = std::thread([this] { FaultEnactorLoop(); });
  }
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    dpm::DpmNode* node = pool_->node(i);
    node->merge()->SetMergeCallback([this](const dpm::MergeAck& ack) {
      const uint64_t kn_id = ack.owner >> 8;
      kn::KvsNode* target = kn(kn_id);
      if (target != nullptr) target->OnBatchMerged(ack);
    });
    node->merge()->SetRelocationCallback(
        [this](int dpm_node, const std::vector<dpm::Relocation>& moves) {
          kn::DeliverRelocations(
              *protocol_.routing()->Snapshot(), dpm_node, moves,
              [this](uint64_t kn_id, int thread) -> kn::KnWorker* {
                kn::KvsNode* target = kn(kn_id);
                return target != nullptr && thread < target->num_workers()
                           ? target->worker(thread)
                           : nullptr;
              });
        });
    if (tracer()->enabled()) node->merge()->SetTracer(tracer());
    node->merge()->StartThreads(options_.dpm_merge_threads);
  }
  {
    // An AddKn racing with a slow Start must not interleave.
    MutexLock admin(admin_mu_);
    protocol_.Bootstrap(options_.initial_kns);
  }
  if (options_.start_mnode) {
    mnode_running_ = true;
    mnode_thread_ = std::thread([this] { MnodeLoop(); });
  }
  return Status::Ok();
}

void Cluster::Stop() {
  if (!started_.exchange(false)) return;
  if (fault_running_.exchange(false) && fault_thread_.joinable()) {
    fault_thread_.join();
  }
  if (mnode_running_.exchange(false) && mnode_thread_.joinable()) {
    mnode_thread_.join();
  }
  {
    MutexLock lock(kns_mu_);
    for (auto& [id, node] : kns_) node->Stop();
  }
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    pool_->node(i)->merge()->StopThreads();
    if (!pool_->alive(i)) continue;  // a killed node's queues were drained
    Status st = pool_->node(i)->merge()->DrainAll();
    if (!st.ok()) {
      DINOMO_LOG_STREAM(Warn) << "final drain failed: " << st.ToString();
    }
  }
  if (injector_ != nullptr) {
    // Every KN is stopped; a non-zero in-flight count means a completion
    // callback never fired — exactly the leak the fault.* gate hunts.
    int64_t leaked = 0;
    {
      MutexLock lock(kns_mu_);
      for (auto& [id, node] : kns_) leaked += node->in_flight();
    }
    injector_->NoteHungRequests(static_cast<uint64_t>(leaked));
    SetFaultInjector(pool_.get(), nullptr);
  }
}

std::vector<uint64_t> Cluster::ActiveKns() const {
  MutexLock lock(kns_mu_);
  std::vector<uint64_t> out;
  for (const auto& [id, node] : kns_) {
    if (!node->failed()) out.push_back(id);
  }
  return out;
}

kn::KvsNode* Cluster::kn(uint64_t kn_id) {
  MutexLock lock(kns_mu_);
  auto it = kns_.find(kn_id);
  return it == kns_.end() ? nullptr : it->second.get();
}

// ----- Runtime -----

double Cluster::NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Cluster::StartKn() {
  const uint64_t id = next_kn_id_.fetch_add(1);
  kn::KnOptions kno = options_.kn;
  kno.kn_id = id;
  kno.fabric_node = static_cast<int>(id % net::Fabric::kMaxNodes);
  auto node = std::make_unique<kn::KvsNode>(kno, pool_.get());
  node->SetAvailable(false);
  node->Start();
  MutexLock lock(kns_mu_);
  kns_[id] = std::move(node);
  return id;
}

void Cluster::StopKn(uint64_t kn_id) {
  kn::KvsNode* node = kn(kn_id);
  if (node == nullptr) return;
  // The object stays allocated: a client may still hold it, and it now
  // answers Unavailable. Marked failed, it never counts as serving again.
  node->Stop();
  node->Fail();
}

void Cluster::FailKn(uint64_t kn_id) {
  if (kn::KvsNode* node = kn(kn_id)) node->Fail();
}

void Cluster::RunOnWorkers(uint64_t kn_id,
                           const std::function<void(kn::KnWorker*)>& fn) {
  kn::KvsNode* node = kn(kn_id);
  if (node != nullptr && !node->failed()) node->RunOnAllWorkers(fn);
}

double Cluster::Quiesce(const std::vector<uint64_t>& kn_ids) {
  for (uint64_t id : kn_ids) {
    kn::KvsNode* node = kn(id);
    if (node == nullptr || node->failed()) continue;
    node->SetAvailable(false);
    node->RunOnAllWorkers([](kn::KnWorker* w) {
      Status st = w->DrainLog();
      if (!st.ok()) {
        DINOMO_LOG_STREAM(Warn) << "drain failed: " << st.ToString();
      }
    });
  }
  return NowUs();
}

void Cluster::Resume(const std::vector<uint64_t>& kn_ids, double) {
  for (uint64_t id : kn_ids) {
    kn::KvsNode* node = kn(id);
    if (node != nullptr && !node->failed()) node->SetAvailable(true);
  }
}

Status Cluster::AdminRpc(const std::function<Status()>& rpc) {
  return RetryTransientRpc(rpc);
}

// ----- Administrative operations -----

Result<uint64_t> Cluster::AddKn() {
  MutexLock admin(admin_mu_);
  return protocol_.AddKn();
}

Status Cluster::RemoveKn(uint64_t kn_id) {
  MutexLock admin(admin_mu_);
  return protocol_.RemoveKn(kn_id);
}

Status Cluster::KillKn(uint64_t kn_id) {
  MutexLock admin(admin_mu_);
  return protocol_.KillKn(kn_id);
}

Status Cluster::KillDpm(int node) {
  MutexLock admin(admin_mu_);
  return protocol_.KillDpm(node);
}

Status Cluster::ReplicateKeyHash(uint64_t key_hash, int replication) {
  MutexLock admin(admin_mu_);
  return protocol_.Replicate(key_hash, replication);
}

Status Cluster::DereplicateKeyHash(uint64_t key_hash) {
  MutexLock admin(admin_mu_);
  return protocol_.Dereplicate(key_hash);
}

void Cluster::RecordLatency(double us) {
  MutexLock lock(latency_mu_);
  latency_hist_.Add(us);
}

mnode::ClusterMetrics Cluster::CollectMetrics(double epoch_seconds) {
  Histogram latency;
  {
    MutexLock lock(latency_mu_);
    std::swap(latency, latency_hist_);
  }
  MutexLock admin(admin_mu_);
  return protocol_.CollectMetrics(&latency, epoch_seconds * 1e6);
}

mnode::PolicyAction Cluster::RunPolicyOnce(double now_s, double epoch_s) {
  mnode::ClusterMetrics metrics = CollectMetrics(epoch_s);
  MutexLock admin(admin_mu_);
  return protocol_.RunPolicy(metrics, now_s);
}

void Cluster::FaultEnactorLoop() {
  while (fault_running_.load(std::memory_order_acquire)) {
    const int victim = injector_->ClaimFailStop();
    if (victim >= 0) {
      Status st = KillKn(static_cast<uint64_t>(victim));
      if (st.ok()) {
        injector_->NoteFailStopEnacted();
      } else if (!st.IsNotFound()) {
        DINOMO_LOG_STREAM(Warn)
            << "fail-stop enactment failed: " << st.ToString();
      }
      continue;  // more kills may already be due
    }
    const int dpm_victim = injector_->ClaimDpmFailStop();
    if (dpm_victim >= 0) {
      Status st = KillDpm(dpm_victim);
      if (st.ok()) {
        injector_->NoteDpmFailStopEnacted();
      } else {
        DINOMO_LOG_STREAM(Warn)
            << "dpm fail-stop enactment failed: " << st.ToString();
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void Cluster::MnodeLoop() {
  while (mnode_running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<long>(kMnodeEpochMs * 1000)));
    RunPolicyOnce(NowUs() / 1e6, kMnodeEpochMs / 1000.0);
  }
}

}  // namespace dinomo
