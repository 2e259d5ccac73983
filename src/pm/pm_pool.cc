#include "pm/pm_pool.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"

namespace dinomo {
namespace pm {
namespace {

#ifndef DINOMO_PM_CHECK
bool CheckerEnvEnabled() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at pool creation,
  // before any worker thread exists; nothing in the process calls setenv.
  const char* e = std::getenv("DINOMO_PM_CHECK");
  return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0 &&
         std::strcmp(e, "off") != 0 && std::strcmp(e, "OFF") != 0;
}
#endif

}  // namespace

PmPool::AlignedBuffer PmPool::AllocateAligned(size_t capacity) {
  auto* raw = static_cast<char*>(
      ::operator new[](capacity, std::align_val_t(kCacheLineSize)));
  std::memset(raw, 0, capacity);
  return AlignedBuffer(raw);
}

PmPool::PmPool(size_t capacity, bool crash_sim,
               obs::MetricsRegistry* registry)
    : capacity_(capacity),
      metrics_(obs::Scope("pm", registry)),
      persist_count_(metrics_.counter("persist_calls")),
      persisted_bytes_(metrics_.counter("persist_bytes")),
      flush_count_(metrics_.counter("flush_calls")),
      fence_count_(metrics_.counter("fence_calls")) {
  DINOMO_CHECK(capacity >= kCacheLineSize);
  base_ = AllocateAligned(capacity_);
  if (crash_sim) {
    durable_ = AllocateAligned(capacity_);
  }
#ifdef DINOMO_PM_CHECK
  EnableChecker();
#else
  static const bool env_on = CheckerEnvEnabled();
  if (env_on) EnableChecker();
#endif
}

PmPool::~PmPool() = default;

#ifndef NDEBUG
void PmPool::DCHECK_VALID(PmPtr p) const {
  DINOMO_CHECK(p != kNullPmPtr);
  DINOMO_CHECK(p < capacity_);
}
#endif

void PmPool::StoreBytes(PmPtr p, const void* src, size_t len,
                        const SourceLoc& loc) {
  DINOMO_CHECK(Contains(p, len));
  // Deliberately not via non-const Translate(): typed stores must not
  // demote their own lines to "unknown".
  std::memcpy(base_.get() + p, src, len);
  if (checker_ != nullptr) checker_->OnStore(p, len, loc);
}

void PmPool::StoreRelease64(PmPtr p, uint64_t value, const SourceLoc& loc) {
  DINOMO_CHECK(Contains(p, sizeof(uint64_t)));
  DINOMO_CHECK(p % sizeof(uint64_t) == 0);
  std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(base_.get() + p))
      .store(value, std::memory_order_release);
  if (checker_ != nullptr) checker_->OnStore(p, sizeof(uint64_t), loc);
}

bool PmPool::CompareExchange64(PmPtr p, uint64_t expected, uint64_t desired,
                               const SourceLoc& loc) {
  DINOMO_CHECK(Contains(p, sizeof(uint64_t)));
  DINOMO_CHECK(p % sizeof(uint64_t) == 0);
  const bool swapped =
      std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(base_.get() + p))
          .compare_exchange_strong(expected, desired,
                                   std::memory_order_acq_rel);
  if (swapped && checker_ != nullptr) {
    checker_->OnStore(p, sizeof(uint64_t), loc);
  }
  return swapped;
}

void PmPool::CommitLocked(PmPtr start, size_t len, const char* src) {
  const char* bytes = src != nullptr ? src : base_.get() + start;
  if (durable_ != nullptr) {
    std::memcpy(durable_.get() + start, bytes, len);
  }
  if (trace_enabled_) {
    trace_.push_back(TraceEntry{boundary_, start, len, trace_blob_.size()});
    trace_blob_.append(bytes, len);
  }
}

void PmPool::DrainPendingLocked() {
  for (const PendingFlush& f : pending_) {
    CommitLocked(f.offset, f.len, pending_blob_.data() + f.blob_off);
  }
  pending_.clear();
  pending_blob_.clear();
}

void PmPool::Flush(PmPtr p, size_t len, const SourceLoc& loc) {
  DINOMO_CHECK(Contains(p, len));
  flush_count_.Inc();
  if (checker_ != nullptr) checker_->OnFlush(p, len, loc);
  if (durable_ != nullptr || trace_enabled_) {
    const PmPtr line_start = p & ~(kCacheLineSize - 1);
    const PmPtr line_end =
        (p + len + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
    MutexLock lock(mu_);
    // Snapshot the line contents now: a store between this flush and the
    // fence is not written back (the line would need another CLWB).
    pending_.push_back(PendingFlush{line_start, line_end - line_start,
                                    pending_blob_.size()});
    pending_blob_.append(base_.get() + line_start, line_end - line_start);
  }
}

void PmPool::Fence() {
  fence_count_.Inc();
  if (durable_ != nullptr || trace_enabled_) {
    MutexLock lock(mu_);
    ++boundary_;
    DrainPendingLocked();
  }
  if (checker_ != nullptr) checker_->OnFence();
}

void PmPool::Persist(PmPtr p, size_t len, const SourceLoc& loc) {
  DINOMO_CHECK(Contains(p, len));
  persist_count_.Inc();
  // Round out to whole cache lines, as CLWB flushes full lines.
  const PmPtr line_start = p & ~(kCacheLineSize - 1);
  const PmPtr line_end =
      (p + len + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
  persisted_bytes_.Inc(line_end - line_start);
  if (checker_ != nullptr) checker_->OnFlush(p, len, loc);
  if (durable_ != nullptr || trace_enabled_) {
    MutexLock lock(mu_);
    ++boundary_;
    DrainPendingLocked();  // the implied fence drains earlier flushes too
    CommitLocked(line_start, line_end - line_start, nullptr);
  }
  if (checker_ != nullptr) checker_->OnFence();
}

void PmPool::PersistPublish(PmPtr p, size_t len, const SourceLoc& loc) {
  // Check before the flush+fence: lines inside [p, p+len) become durable
  // with this very call and are exempt from the dirty scan.
  if (checker_ != nullptr) checker_->OnPublication(p, len, loc);
  Persist(p, len, loc);
}

Status PmPool::SimulateCrash() {
  if (durable_ == nullptr) {
    return Status::NotSupported("pool built without crash simulation");
  }
  MutexLock lock(mu_);
  // Unfenced flushes die with the caches.
  pending_.clear();
  pending_blob_.clear();
  std::memcpy(base_.get(), durable_.get(), capacity_);
  if (checker_ != nullptr) checker_->OnCrash();
  return Status::Ok();
}

void PmPool::EnableChecker() {
  if (checker_ == nullptr) {
    checker_ = std::make_unique<PmChecker>(&metrics_.registry());
  }
}

void PmPool::EnablePersistTrace() {
  MutexLock lock(mu_);
  if (trace_enabled_) return;
  trace_enabled_ = true;
  // Boundary numbering starts here: crash-sim pools count fences before
  // tracing too, but sweep tests want "boundary 0 = trace start".
  boundary_ = 0;
  // Clones replay the trace on top of the durable image as of this call,
  // so tracing can start mid-lifetime (e.g. after DpmNode initialization
  // already persisted its superblock).
  trace_baseline_.assign(durable_ != nullptr ? durable_.get() : base_.get(),
                         capacity_);
}

uint64_t PmPool::persist_boundaries() const {
  MutexLock lock(mu_);
  return boundary_;
}

std::unique_ptr<PmPool> PmPool::CloneAtBoundary(
    uint64_t boundary, obs::MetricsRegistry* registry) const {
  MutexLock lock(mu_);
  DINOMO_CHECK(trace_enabled_);
  auto clone = std::make_unique<PmPool>(
      capacity_, /*crash_sim=*/true,
      registry != nullptr ? registry : &metrics_.registry());
  // Start from the durable image captured at EnablePersistTrace (boundary
  // 0), then replay. Trace entries are appended in boundary order;
  // replaying the prefix in order reproduces the durable image exactly
  // (later persists of the same line overwrite earlier ones, as on the
  // device).
  std::memcpy(clone->base_.get(), trace_baseline_.data(), capacity_);
  std::memcpy(clone->durable_.get(), trace_baseline_.data(), capacity_);
  for (const TraceEntry& e : trace_) {
    if (e.boundary > boundary) break;
    std::memcpy(clone->base_.get() + e.offset, trace_blob_.data() + e.blob_off,
                e.len);
    std::memcpy(clone->durable_.get() + e.offset,
                trace_blob_.data() + e.blob_off, e.len);
  }
  if (checker_ != nullptr) clone->EnableChecker();
  return clone;
}

}  // namespace pm
}  // namespace dinomo
