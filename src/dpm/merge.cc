#include "dpm/merge.h"

#include <algorithm>

#include "common/logging.h"
#include "dpm/dpm_node.h"
#include "dpm/log.h"

namespace dinomo {
namespace dpm {

MergeService::MergeService(DpmNode* dpm, MergeProfile profile,
                           obs::MetricsRegistry* registry)
    : dpm_(dpm),
      profile_(profile),
      metrics_(obs::Scope("dpm.merge", registry)),
      merged_batches_(metrics_.counter("batches")),
      merged_entries_(metrics_.counter("entries")),
      merged_cpu_us_(metrics_.gauge("cpu_us")),
      queue_depth_(metrics_.gauge("queue.depth")),
      queue_max_depth_(metrics_.gauge("queue.max_depth")),
      queue_steals_(metrics_.counter("queue.steals")),
      queue_stalls_(metrics_.counter("queue.stalls")) {}

MergeService::~MergeService() { StopThreads(); }

void MergeService::MarkRunnableLocked(uint64_t owner) {
  runnable_.push_back(owner);
}

bool MergeService::PopOwnerTaskLocked(uint64_t owner, MergeTask* task) {
  auto it = queues_.find(owner);
  if (it == queues_.end()) return false;
  OwnerQueue& q = it->second;
  if (q.busy || q.tasks.empty()) return false;
  *task = q.tasks.front();
  q.tasks.pop_front();
  q.busy = true;
  return true;
}

void MergeService::RemoveRunnableLocked(uint64_t owner) {
  auto it = std::find(runnable_.begin(), runnable_.end(), owner);
  if (it != runnable_.end()) runnable_.erase(it);
}

bool MergeService::AuditRunnableLocked() {
  bool found = false;
  for (auto& [owner, q] : queues_) {
    if (q.busy || q.tasks.empty()) continue;
    if (std::find(runnable_.begin(), runnable_.end(), owner) !=
        runnable_.end()) {
      continue;
    }
    // Runnable work the scheduler lost track of: a bookkeeping bug, not a
    // normal backlog. CI gates on this staying zero.
    queue_stalls_.Inc();
    runnable_.push_back(owner);
    found = true;
  }
  return found;
}

bool MergeService::PickRunnableLocked(int worker_idx, MergeTask* task) {
  if (runnable_.empty() && queued_total_ > 0) AuditRunnableLocked();
  if (runnable_.empty()) return false;
  size_t pick = 0;
  bool stolen = false;
  if (worker_idx >= 0 && num_workers_ > 1) {
    stolen = true;
    for (size_t i = 0; i < runnable_.size(); ++i) {
      if (static_cast<int>(runnable_[i] % num_workers_) == worker_idx) {
        pick = i;
        stolen = false;
        break;
      }
    }
  }
  const uint64_t owner = runnable_[pick];
  runnable_.erase(runnable_.begin() + static_cast<ptrdiff_t>(pick));
  const bool ok = PopOwnerTaskLocked(owner, task);
  DINOMO_CHECK(ok);  // runnable_ invariant: listed owners have work
  if (stolen) queue_steals_.Inc();
  return true;
}

void MergeService::UpdateDepthLocked() {
  queue_depth_.Set(static_cast<double>(queued_total_));
  if (queued_total_ > max_depth_seen_) {
    max_depth_seen_ = queued_total_;
    queue_max_depth_.Set(static_cast<double>(max_depth_seen_));
  }
}

void MergeService::PushLocked(const MergeTask& task) {
  OwnerQueue& q = queues_[task.owner];
  if (!q.busy && q.tasks.empty()) MarkRunnableLocked(task.owner);
  q.tasks.push_back(task);
  queued_total_++;
  UpdateDepthLocked();
}

void MergeService::Enqueue(const MergeTask& task) {
  {
    MutexLock lock(mu_);
    PushLocked(task);
  }
  work_cv_.NotifyOne();
}

bool MergeService::TryDequeue(MergeTask* task) {
  MutexLock lock(mu_);
  return PickRunnableLocked(-1, task);
}

MergeService::ExecutingScope::ExecutingScope(MergeService* merge)
    : merge_(merge) {
  MutexLock lock(merge_->mu_);
  ticket_ = merge_->next_ticket_++;
  merge_->executing_.push_back(ticket_);
}

MergeService::ExecutingScope::~ExecutingScope() {
  {
    MutexLock lock(merge_->mu_);
    auto& open = merge_->executing_;
    open.erase(std::find(open.begin(), open.end(), ticket_));
  }
  merge_->executing_cv_.NotifyAll();
}

void MergeService::WaitForExecutingMerges() {
  MutexLock lock(mu_);
  const uint64_t now = next_ticket_;
  while (true) {
    bool older = false;  // a scope opened before the call is still open
    for (uint64_t ticket : executing_) older |= ticket < now;
    if (!older) return;
    executing_cv_.Wait(lock);
  }
}

double MergeService::Execute(const MergeTask& task) {
  if (task.owner == kCleanerOwner) return dpm_->CleanPass();
  ExecutingScope executing(this);
  const pm::PmPool* pool = dpm_->pool();
  const char* data = pool->Translate(task.data);
  LogIterator it(data, task.bytes);
  LogRecord rec;
  uint64_t entries = 0;
  size_t prev = 0;
  while (it.Next(&rec)) {
    const size_t entry_size = it.offset() - prev;
    dpm_->ApplyRecord(task.owner, rec, task.data + prev,
                      static_cast<uint32_t>(entry_size));
    prev = it.offset();
    entries++;
  }
  DINOMO_CHECK(it.status().ok());
  merged_entries_.Inc(entries);
  const double cpu_us = entries * profile_.per_entry_us +
                        static_cast<double>(task.bytes) * profile_.per_byte_us;
  merged_cpu_us_.Add(cpu_us);
  if (obs::Tracer* tracer = tracer_.load(std::memory_order_acquire)) {
    // Standalone DPM-side span: lane = owning KN's log, pid 0 (the DPM
    // "process" in the chrome view). Duration is the modeled merge CPU.
    tracer->RecordStandalone(obs::SpanKind::kMergeExec, nullptr, task.owner,
                             tracer->NowUs(), cpu_us, /*round_trips=*/0,
                             task.bytes);
  }
  return cpu_us;
}

void MergeService::Finish(const MergeTask& task) {
  const bool cleaner = task.owner == kCleanerOwner;
  if (!cleaner) {
    dpm_->CompleteBatch(task.owner, task.segment, task.data, task.bytes);
  }
  std::function<void(const MergeAck&)> cb;
  {
    MutexLock lock(mu_);
    auto it = queues_.find(task.owner);
    DINOMO_CHECK(it != queues_.end());
    it->second.busy = false;
    if (!it->second.tasks.empty()) MarkRunnableLocked(task.owner);
    queued_total_--;
    finish_events_++;
    // At most one cleaner pass waits in the queue; a pass still running
    // re-requests if it leaves candidates behind.
    if (dpm_->TakeCleanRequest() && queues_[kCleanerOwner].tasks.empty()) {
      MergeTask pass;
      pass.owner = kCleanerOwner;
      PushLocked(pass);
    }
    UpdateDepthLocked();
    if (!cleaner) cb = merge_cb_;
  }
  if (!cleaner) merged_batches_.Inc();
  work_cv_.NotifyOne();
  drain_cv_.NotifyAll();
  if (cb) {
    cb(MergeAck{task.owner, task.segment, task.data, task.bytes,
                dpm_->options().node_id});
  }
}

bool MergeService::ProcessOne() {
  MergeTask task;
  if (!TryDequeue(&task)) return false;
  Execute(task);
  Finish(task);
  return true;
}

Status MergeService::DrainOwner(uint64_t owner) {
  while (true) {
    MergeTask task;
    bool run = false;
    {
      MutexLock lock(mu_);
      auto it = queues_.find(owner);
      if (it == queues_.end() ||
          (it->second.tasks.empty() && !it->second.busy)) {
        return Status::Ok();
      }
      if (PopOwnerTaskLocked(owner, &task)) {
        RemoveRunnableLocked(owner);
        run = true;
      } else {
        // Another worker is merging this owner's batch; wait until some
        // batch finishes before re-inspecting the queue. The explicit
        // predicate (rather than a bare wait) makes a spurious wakeup
        // re-wait instead of re-scanning, and keys the wait off guarded
        // state the analysis can see.
        const uint64_t seen = finish_events_;
        while (finish_events_ == seen) drain_cv_.Wait(lock);
      }
    }
    if (run) {
      Execute(task);
      Finish(task);
    }
  }
}

Status MergeService::DrainAll() {
  std::vector<uint64_t> owners;
  {
    MutexLock lock(mu_);
    for (const auto& [owner, q] : queues_) owners.push_back(owner);
  }
  for (uint64_t owner : owners) {
    DINOMO_RETURN_IF_ERROR(DrainOwner(owner));
  }
  // Merges drained after the cleaner's turn may have queued a pass.
  return DrainOwner(kCleanerOwner);
}

uint64_t MergeService::PendingBatches(uint64_t owner) const {
  MutexLock lock(mu_);
  auto it = queues_.find(owner);
  if (it == queues_.end()) return 0;
  return it->second.tasks.size() + (it->second.busy ? 1 : 0);
}

uint64_t MergeService::TotalPendingBatches() const {
  MutexLock lock(mu_);
  return queued_total_;
}

void MergeService::SetMergeCallback(std::function<void(const MergeAck&)> cb) {
  MutexLock lock(mu_);
  merge_cb_ = std::move(cb);
}

void MergeService::SetRelocationCallback(
    std::function<void(int, const std::vector<Relocation>&)> cb) {
  MutexLock lock(mu_);
  relocation_cb_ = std::move(cb);
}

void MergeService::NotifyRelocations(const std::vector<Relocation>& moves) {
  std::function<void(int, const std::vector<Relocation>&)> cb;
  {
    MutexLock lock(mu_);
    cb = relocation_cb_;
  }
  if (cb) cb(dpm_->options().node_id, moves);
}

void MergeService::StartThreads(int n) {
  {
    MutexLock lock(mu_);
    stopping_ = false;
    num_workers_ = n;
  }
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void MergeService::StopThreads() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : workers_) t.join();
  workers_.clear();
  MutexLock lock(mu_);
  num_workers_ = 0;
}

void MergeService::WorkerLoop(int worker_idx) {
  while (true) {
    MergeTask task;
    bool have = false;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not a wait-lambda): the guarded reads
      // and the AuditRunnableLocked call stay in this scope, where the
      // analysis can see mu_ is held.
      while (!stopping_ && runnable_.empty() &&
             !(queued_total_ > 0 && AuditRunnableLocked())) {
        work_cv_.Wait(lock);
      }
      if (stopping_) return;
      have = PickRunnableLocked(worker_idx, &task);
    }
    if (have) {
      Execute(task);
      Finish(task);
    }
  }
}

}  // namespace dpm
}  // namespace dinomo
