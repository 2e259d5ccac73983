#include "kn/kn_worker.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "cache/dac.h"
#include "cache/static_cache.h"
#include "common/backoff.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace dinomo {
namespace kn {

namespace {

std::string WorkerPrefix(const char* component, const KnOptions& options,
                         int worker_idx) {
  return std::string(component) + ".kn" + std::to_string(options.kn_id) +
         ".w" + std::to_string(worker_idx);
}

std::unique_ptr<cache::KnCache> MakeCache(const KnOptions& options,
                                          int worker_idx, size_t bytes) {
  const obs::Scope scope(WorkerPrefix("cache", options, worker_idx),
                         options.metrics);
  switch (options.policy) {
    case CachePolicyKind::kDac:
      return std::make_unique<cache::DacCache>(bytes, scope);
    case CachePolicyKind::kShortcutOnly:
      return std::make_unique<cache::StaticCache>(bytes, 0.0, scope);
    case CachePolicyKind::kValueOnly:
      return std::make_unique<cache::StaticCache>(bytes, 1.0, scope);
    case CachePolicyKind::kStatic:
      return std::make_unique<cache::StaticCache>(
          bytes, options.static_value_fraction, scope);
  }
  return nullptr;
}

constexpr size_t kSegmentHeaderSize = pm::kCacheLineSize;
constexpr int kReadRetries = 4;
// RetryTransient budget for one-sided writes and DPM RPCs hit by
// transient faults; a budget that runs dry surfaces the transient error to
// the client.
constexpr int kTransientRetries = 4;
// Re-append attempts per buffered entry during failover recovery (each
// Busy retry first drains the target owner queue, so this only runs dry
// if the surviving DPM keeps rejecting RPCs).
constexpr int kFailoverReplayRetries = 64;
// Slots in the per-worker index-metadata cache (rounded up to a power of
// two; ~32 bytes each).
constexpr size_t kIcacheEntries = 1 << 14;

// KN CPU cost (us) of flushing one group-commit batch, of scanning one
// un-merged batch for a key (read path) or a range (scan overlay), and the
// fixed cost of a range scan (positioning + row assembly) on top of its
// batch scans. Calibrated like KnOptions::cpu_*.
constexpr double kCpuBatchFlushUs = 3.0;
constexpr double kCpuSegmentScanUs = 2.0;
constexpr double kCpuScanUs = 9.0;

Slice HashKeySlice(const uint64_t& key_hash) {
  return Slice(reinterpret_cast<const char*>(&key_hash), sizeof(key_hash));
}

// The rule for every entry read through a raw value pointer: it decodes
// (commit marker + CRC) as a put of `key_hash`. Anything else means the
// pointer went stale — superseded, relocated and reused, or torn.
bool DecodePutOf(const std::string& buf, uint64_t key_hash,
                 dpm::LogRecord* rec) {
  size_t consumed = 0;
  return dpm::DecodeEntry(buf.data(), buf.size(), rec, &consumed).ok() &&
         rec->key_hash == key_hash && rec->op == dpm::LogOp::kPut;
}

// Leaves the GET's one remaining read, of `vp`, to the caller.
void PlanRead(DirectReadPlan* plan, bool from_shortcut, dpm::ValuePtr vp) {
  plan->ready = true;
  plan->from_shortcut = from_shortcut;
  plan->vp = vp;
  plan->buf.resize(vp.indirect() ? 0 : vp.entry_size());
  plan->fused = false;
}

}  // namespace

KnWorker::KnWorker(const KnOptions& options, int worker_idx,
                   dpm::DpmPool* pool)
    : options_(options),
      worker_idx_(worker_idx),
      pool_(pool),
      metrics_(obs::Scope(WorkerPrefix("kn", options, worker_idx),
                          options.metrics)),
      ops_(metrics_.counter("ops")),
      op_latency_us_(metrics_.histogram("op_latency_us")),
      scan_runs_prefetched_(metrics_.counter("scan_runs_prefetched")),
      scan_runs_descended_(metrics_.counter("scan_runs_descended")) {
  const size_t shard_bytes =
      options_.cache_bytes / std::max(1, options_.num_workers);
  cache_ = MakeCache(options_, worker_idx, shard_bytes);
  // The icache is part of the DINOMO communication-efficient read path;
  // the shortcut-only policy models the prior-work baseline (DINOMO-S)
  // and must keep paying the full traversal on a miss.
  if (options_.icache_enabled &&
      options_.policy != CachePolicyKind::kShortcutOnly) {
    icache_ = std::make_unique<IndexCache>(kIcacheEntries, options_.metrics);
  }
  index_handles_.resize(static_cast<size_t>(pool_->num_nodes()));
  known_index_epochs_.resize(static_cast<size_t>(pool_->num_nodes()), 0);
  // Learned leaf links cost at most as much DRAM as the worker's value
  // cache shard, split across the DPM nodes' lists.
  slc_.assign(static_cast<size_t>(pool_->num_nodes()),
              SearchLayerCache(shard_bytes /
                               static_cast<size_t>(pool_->num_nodes())));
  placement_gen_ = pool_->generation();
}

KnWorker::~KnWorker() = default;

index::Clht* KnWorker::TargetIndex(int n) const {
  // The shared index, or under DINOMO-N (a partitioned node; the pool
  // clamps that variant to one node) this KN's private partition index.
  return node(n)->IndexFor(options_.kn_id);
}

KnWorker::WriteState* KnWorker::StateFor(const dpm::DpmPlacement& pl) {
  WriteState& st = write_states_[PlacementKey{pl.primary, pl.mirror}];
  if (st.bloom == nullptr) {
    st.bloom = std::make_unique<BloomFilter>(options_.batch_max_ops * 4);
  }
  return &st;
}

KnWorker::WriteState* KnWorker::ExistingStateFor(
    const dpm::DpmPlacement& pl) {
  auto it = write_states_.find(PlacementKey{pl.primary, pl.mirror});
  return it != write_states_.end() ? &it->second : nullptr;
}

void KnWorker::RefreshIndexHandle(int n) {
  index::Clht::RemoteHandle& handle = index_handles_[static_cast<size_t>(n)];
  uint64_t& known = known_index_epochs_[static_cast<size_t>(n)];
  if (!pool_->alive(n)) {
    handle = index::Clht::RemoteHandle{};
    return;
  }
  Result<index::Clht::RemoteHandle> fetched =
      Status::Unavailable("not attempted");
  (void)RetryTransient(kTransientRetries, [&] {
    fetched = TargetIndex(n)->FetchRemoteHandle(node(n)->fabric(),
                                                options_.fabric_node);
    return fetched.status();
  });
  // A failed fetch leaves the handle invalid (null bucket array), so it
  // is never traversed.
  handle = fetched.value_or(index::Clht::RemoteHandle{});
  known = std::max(known, handle.epoch);
}

void KnWorker::RefreshIndexHandle() {
  for (int n = 0; n < pool_->num_nodes(); ++n) RefreshIndexHandle(n);
}

void KnWorker::CheckPlacement() {
  if (pool_->generation() != placement_gen_) FailoverRecover();
  ApplyRelocations();
}

void KnWorker::ApplyRelocations() {
  if (!relocated_pending_.load(std::memory_order_acquire)) return;
  std::vector<std::pair<int, dpm::Relocation>> moves;
  {
    MutexLock lock(batches_mu_);
    moves.swap(relocated_);
    relocated_pending_.store(false, std::memory_order_relaxed);
  }
  for (const auto& [n, mv] : moves) {
    // Caches hold pointers into the key's primary only.
    if (pool_->PlacementOf(mv.key_hash).primary != n) continue;
    cache_->Repoint(mv.key_hash, dpm::ValuePtr(mv.from),
                    dpm::ValuePtr(mv.to));
    if (icache_ != nullptr) icache_->Repoint(mv.key_hash, n, mv.from, mv.to);
  }
}

void KnWorker::OnEntriesRelocated(int node,
                                  const std::vector<dpm::Relocation>& moves) {
  MutexLock lock(batches_mu_);
  for (const dpm::Relocation& mv : moves) relocated_.emplace_back(node, mv);
  relocated_pending_.store(true, std::memory_order_release);
}

void KnWorker::FailoverRecover() {
  const uint64_t gen = pool_->generation();
  // Cached values and shortcuts may point into a dead node's pool, or at
  // entries whose segment home moved; re-resolve everything. The icache's
  // generation stamps already refuse old-generation entries, but clearing
  // frees the slots for the new placement immediately.
  cache_->Clear();
  if (icache_ != nullptr) icache_->Clear();
  for (SearchLayerCache& slc : slc_) slc.Clear();
  {
    MutexLock lock(batches_mu_);
    // A dead node's cached batches were replicated before every ack and
    // merged on the promoted mirror when the pool drained it; the copies
    // are no longer authoritative. Batches on surviving primaries stay —
    // their merges are still pending there.
    for (auto it = unmerged_batches_.begin();
         it != unmerged_batches_.end();) {
      if (!pool_->alive(it->node)) {
        it = unmerged_batches_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Drop write states that lost a node. Their *flushed* data is covered
  // (mirrored and drained); their still-buffered entries re-bin to the
  // new placement below. States whose nodes all survive keep their
  // segments: a kill elsewhere does not move their ranges (consistent
  // hashing) and their bytes remain authoritative.
  std::vector<std::string> replay;
  for (auto it = write_states_.begin(); it != write_states_.end();) {
    const auto& [p, m] = it->first;
    const bool intact = pool_->alive(p) && (m < 0 || pool_->alive(m));
    if (intact) {
      ++it;
      continue;
    }
    WriteState& st = it->second;
    if (st.batch.entries() > 0) {
      replay.emplace_back(st.batch.data(), st.batch.bytes());
    }
    if (pool_->alive(p) && st.segment != pm::kNullPmPtr) {
      // Best effort: the orphaned segment on the surviving primary is
      // fully submitted; sealing it lets GC reclaim it once merged.
      (void)node(p)->SealSegment(options_.fabric_node, log_owner(),
                                 st.segment);
    }
    it = write_states_.erase(it);
  }
  placement_gen_ = gen;
  RefreshIndexHandle();

  // Re-append buffered entries under the new placement. These were acked
  // to clients, so they must not be dropped; fresh sequence numbers keep
  // per-key order because each key lived in exactly one dropped batch.
  for (const std::string& blob : replay) {
    dpm::LogIterator it(blob.data(), blob.size());
    dpm::LogRecord rec;
    while (it.Next(&rec)) {
      dpm::ValuePtr vp;
      Status st = Status::Ok();
      for (int tries = 0; tries < kFailoverReplayRetries; ++tries) {
        const dpm::DpmPlacement pl = pool_->PlacementOf(rec.key_hash);
        st = AppendWrite(StateFor(pl), pl, rec.op, rec.key, rec.value,
                         rec.key_hash, &vp);
        if (!st.IsBusy()) break;
        // Threshold pressure: force the backlog down, then retry.
        if (pl.primary >= 0) (void)node(pl.primary)->DrainOwner(log_owner());
        if (pl.mirror >= 0) (void)node(pl.mirror)->DrainOwner(log_owner());
      }
      if (!st.ok()) {
        DINOMO_LOG_STREAM(Error) << "failover replay could not re-append entry: "
                          << st.ToString();
      }
    }
  }
}

OpResult KnWorker::Finish(OpResult result) {
  // Wrong-owner rejections are routing noise, not serviced operations.
  if (!result.status.IsWrongOwner()) {
    ops_.Inc();
    op_latency_us_.Record(
        result.LatencyUs(node(0)->fabric()->profile()));
  }
  return result;
}

void KnWorker::TrackAccess(uint64_t key_hash) {
  if (access_counts_.size() < kMaxTrackedKeys ||
      access_counts_.count(key_hash) != 0) {
    access_counts_[key_hash]++;
  }
}

Status KnWorker::ReadEntryValue(int n, dpm::ValuePtr vp, uint64_t key_hash,
                                std::string* value, DirectReadPlan* fused) {
  net::Fabric* fabric = node(n)->fabric();
  std::string own;
  std::string& buf = fused != nullptr ? fused->buf : own;
  Status fault = Status::Ok();
  for (int attempt = 0; attempt < kReadRetries; ++attempt) {
    if (attempt == 0 && fused != nullptr && fused->fused) {
      fault = fused->fate;  // the doorbell round's read
    } else {
      dpm::ValuePtr direct = vp;
      if (vp.indirect()) {
        // Replicated key: one extra round trip through the indirect slot
        // (the cost shared keys pay, §3.4).
        const Result<uint64_t> raw =
            fabric->AtomicRead64(options_.fabric_node, vp.offset());
        fault = raw.status();
        if (IsTransient(fault)) continue;  // dropped read: retry
        if (!fault.ok()) return fault;
        if (*raw == 0) return Status::NotFound("empty indirect slot");
        direct = dpm::ValuePtr(*raw);
      }
      buf.resize(direct.entry_size());
      fault = fabric->Read(options_.fabric_node, direct.offset(), buf.data(),
                           direct.entry_size());
    }
    if (IsTransient(fault)) continue;  // dropped read: retry
    if (!fault.ok()) return fault;
    dpm::LogRecord rec;
    if (DecodePutOf(buf, key_hash, &rec)) {
      value->assign(rec.value.data(), rec.value.size());
      return Status::Ok();
    }
    // Torn/garbage-collected/raced entry. Indirect slots can legitimately
    // change under us — retry; direct pointers are stale for good.
    if (!vp.indirect()) {
      return Status::IoError("stale value pointer");
    }
  }
  // Distinguish "the fabric kept eating our reads" (transient, the client
  // retries) from a genuinely racing slot (IoError, the miss path
  // re-resolves the pointer).
  if (!fault.ok()) return fault;
  return Status::IoError("indirect read kept racing");
}

Status KnWorker::SearchCachedBatches(const WriteState* st, uint64_t key_hash,
                                     const Slice& key, std::string* value,
                                     double* cpu_us) {
  auto scan = [&](const char* data, size_t len, std::string* out,
                  bool* deleted) -> bool {
    dpm::LogIterator it(data, len);
    dpm::LogRecord rec;
    bool found = false;
    while (it.Next(&rec)) {
      if (rec.key_hash != key_hash) continue;
      // The hash is only a fingerprint: a colliding key's entries must
      // not alias this key's value (or tombstone).
      if (!(rec.key == key)) continue;
      found = true;
      if (rec.op == dpm::LogOp::kPut) {
        out->assign(rec.value.data(), rec.value.size());
        *deleted = false;
      } else {
        *deleted = true;
      }
    }
    return found;
  };

  bool deleted = false;
  // Newest first: the in-flight batch of the key's placement, then
  // unmerged flushed batches. (A key's entries only ever live in its own
  // placement's batch, so the other placements' builders need no scan.)
  obs::TraceContext* ctx = obs::CurrentTraceContext();
  if (st != nullptr && st->batch.entries() > 0 &&
      st->bloom->MayContain(HashKeySlice(key_hash))) {
    *cpu_us += kCpuSegmentScanUs;
    if (ctx != nullptr) {
      ctx->RecordLeaf(obs::SpanKind::kBatchScan, nullptr, kCpuSegmentScanUs);
    }
    if (scan(st->batch.data(), st->batch.bytes(), value, &deleted)) {
      return deleted ? Status::Aborted("tombstone") : Status::Ok();
    }
  }
  MutexLock lock(batches_mu_);
  for (auto it = unmerged_batches_.rbegin(); it != unmerged_batches_.rend();
       ++it) {
    if (!it->bloom->MayContain(HashKeySlice(key_hash))) continue;
    *cpu_us += kCpuSegmentScanUs;
    if (ctx != nullptr) {
      ctx->RecordLeaf(obs::SpanKind::kBatchScan, nullptr, kCpuSegmentScanUs);
    }
    if (scan(it->bytes.data(), it->bytes.size(), value, &deleted)) {
      return deleted ? Status::Aborted("tombstone") : Status::Ok();
    }
  }
  return Status::NotFound();
}

OpResult KnWorker::MissPath(const Slice& key, uint64_t key_hash,
                            const dpm::DpmPlacement& pl, bool shared,
                            DirectReadPlan* plan) {
  OpResult out;
  out.cpu_us = options_.cpu_miss_us;
  if (obs::TraceContext* ctx = obs::CurrentTraceContext()) {
    ctx->RecordLeaf(obs::SpanKind::kCacheProbe, "miss_probe",
                    options_.cpu_miss_us);
  }

  // The un-merged data this worker wrote is authoritative for its
  // partition (§4: "un-merged log segments are cached in the KNs that
  // wrote them ... other KNs won't access these log segments").
  std::string from_batch;
  Status st = SearchCachedBatches(ExistingStateFor(pl), key_hash, key,
                                  &from_batch, &out.cpu_us);
  if (st.ok()) {
    out.value = std::move(from_batch);
    out.status = Status::Ok();
    return out;
  }
  if (st.IsAborted()) {
    out.status = Status::NotFound("deleted");
    return out;
  }

  if (pl.primary < 0 || !pool_->alive(pl.primary)) {
    out.status = Status::Unavailable("dpm node failed");
    return out;
  }
  // Index-metadata cache: a generation-fresh pointer learned from an
  // earlier traversal (or this worker's own append) resolves the value
  // location without the index-lookup round — one one-sided read total,
  // left to the caller. Recorded as a cache probe, not an index lookup,
  // so trace attribution shows the index-lookup share falling. Shared keys
  // bypass the icache: their current version lives behind the slot.
  uint64_t raw = 0;
  if (icache_ != nullptr && !shared &&
      icache_->Lookup(key_hash, placement_gen_, pl.primary, &raw)) {
    if (obs::TraceContext* ctx = obs::CurrentTraceContext()) {
      ctx->RecordLeaf(obs::SpanKind::kCacheProbe, "icache_hit", 0.0);
    }
    PlanRead(plan, /*from_shortcut=*/false, dpm::ValuePtr(raw));
    out.status = Status::Ok();
    return out;
  }

  out.status = IndexWalk(pl.primary, key_hash, /*rts_spent=*/0, &out.value);
  return out;
}

Status KnWorker::IndexWalk(int n, uint64_t key_hash, uint32_t rts_spent,
                           std::string* value) {
  index::Clht::RemoteHandle& handle = index_handles_[static_cast<size_t>(n)];
  uint64_t& known_epoch = known_index_epochs_[static_cast<size_t>(n)];
  net::OpCost* cost = net::Fabric::ThreadOpCost();
  const uint32_t rts_before = cost != nullptr ? cost->round_trips : 0;

  // The DPM-side index traversal plus the value read; group its fabric
  // ops under one phase span.
  obs::TraceSpan lookup_span(obs::SpanKind::kIndexLookup);

  if (!handle.valid()) RefreshIndexHandle(n);
  if (!handle.valid()) {
    // Handle fetch itself kept getting dropped; nothing safe to traverse.
    return Status::Unavailable("index handle unavailable");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Result<index::Clht::RemoteResult> res = TargetIndex(n)->RemoteLookup(
        node(n)->fabric(), options_.fabric_node, handle, key_hash);
    if (!res.ok()) {
      // A failed bucket read ends the traversal without an answer: the
      // key may well exist. A transient error is retried by the client's
      // backoff loop.
      return res.status();
    }
    if (!res->found) {
      // A stale (pre-resize) table can miss keys merged after the resize;
      // refresh once if the DPM told us about a newer epoch.
      if (handle.epoch < known_epoch && attempt == 0) {
        RefreshIndexHandle(n);
        continue;
      }
      return Status::NotFound();
    }
    dpm::ValuePtr vp(res->value);
    const Status st = ReadEntryValue(n, vp, key_hash, value);
    if (st.IsIoError() && attempt == 0) {
      // GC'd under us: the index has moved on; retry the traversal.
      continue;
    }
    if (!st.ok()) return st;
    const uint32_t rts_used =
        cost != nullptr ? rts_spent + cost->round_trips - rts_before : 2;
    if (vp.indirect()) {
      // Replicated keys may only be cached as shortcuts to their slot.
      cache_->AdmitShortcutOnly(key_hash, vp);
    } else {
      cache_->AdmitOnMiss(key_hash, *value, vp, rts_used);
      // Remember where the traversal landed so the next miss for this
      // key skips the index-lookup round entirely.
      if (icache_ != nullptr) {
        icache_->Admit(key_hash, placement_gen_, n, vp.raw());
      }
    }
    return Status::Ok();
  }
  return Status::IoError("miss path kept racing");
}

OpResult KnWorker::GetImpl(const Slice& key, DirectReadPlan* plan) {
  OpResult out;
  net::ScopedOpCost scope(&out.cost);
  CheckPlacement();
  const uint64_t key_hash = KeyHash(key);
  TrackAccess(key_hash);
  stats_.reads++;

  if (routing_ != nullptr && !routing_->IsOwner(key_hash, options_.kn_id)) {
    stats_.wrong_owner++;
    out.status = Status::WrongOwner();
    return out;
  }
  plan->shared =
      routing_ != nullptr && routing_->ReplicationFactor(key_hash) > 1;
  plan->pl = pool_->PlacementOf(key_hash);
  plan->key_hash = key_hash;

  auto r = cache_->Lookup(key_hash);
  if (r.kind == cache::HitKind::kValueHit) {
    if (!plan->shared) {
      if (obs::TraceContext* ctx = obs::CurrentTraceContext()) {
        ctx->RecordLeaf(obs::SpanKind::kCacheProbe, "value_hit",
                        options_.cpu_value_hit_us);
      }
      out.status = Status::Ok();
      out.value = std::move(r.value);
      out.cpu_us = options_.cpu_value_hit_us;
      out.hit = cache::HitKind::kValueHit;
      return out;
    }
    // The key became replicated; a locally cached value may be stale.
    cache_->Invalidate(key_hash);
    r.kind = cache::HitKind::kMiss;
  }
  if (r.kind == cache::HitKind::kShortcutHit && plan->pl.primary >= 0) {
    if (obs::TraceContext* ctx = obs::CurrentTraceContext()) {
      ctx->RecordLeaf(obs::SpanKind::kCacheProbe, "shortcut_hit",
                      options_.cpu_shortcut_hit_us);
    }
    PlanRead(plan, /*from_shortcut=*/true, r.ptr);
    out.cpu_us = options_.cpu_shortcut_hit_us;
    out.hit = cache::HitKind::kShortcutHit;
    return out;
  }
  OpResult miss = MissPath(key, key_hash, plan->pl, plan->shared, plan);
  out.status = miss.status;
  out.value = std::move(miss.value);
  out.cpu_us = miss.cpu_us;
  return out;
}

OpResult KnWorker::GetPrepare(const Slice& key, DirectReadPlan* plan) {
  OpResult out = GetImpl(key, plan);
  if (plan->ready) return out;  // finished by GetComplete
  stats_.busy_us += out.cpu_us;
  return Finish(std::move(out));
}

OpResult KnWorker::GetComplete(const Slice& key, DirectReadPlan* plan,
                               OpResult partial) {
  net::OpCost more;
  {
    net::ScopedOpCost scope(&more);
    while (plan->ready) {
      plan->ready = false;
      const uint32_t rts_before = more.round_trips;
      std::string value;
      const Status st = ReadEntryValue(plan->pl.primary, plan->vp,
                                       plan->key_hash, &value, plan);
      // Round trips this read cost (a fused round counts one): the DAC's
      // admission weighs what a miss on the key costs.
      const uint32_t rts_used =
          (plan->fused ? 1 : 0) + more.round_trips - rts_before;
      if (st.ok()) {
        if (!plan->from_shortcut) {
          cache_->AdmitOnMiss(plan->key_hash, value, plan->vp, rts_used);
        } else if (!plan->vp.indirect()) {
          cache_->OnShortcutHit(plan->key_hash, value, plan->vp);
        }
        partial.status = Status::Ok();
        partial.value = std::move(value);
      } else if (!plan->from_shortcut) {
        if (IsTransient(st)) {
          // The fabric ate every read; nothing is known about the pointer.
          partial.status = st;
        } else {
          // Failed the check: the entry moved (merge GC, the log cleaner).
          // Drop the slot and take the authoritative traversal.
          icache_->NoteStale(plan->key_hash);
          partial.status = IndexWalk(plan->pl.primary, plan->key_hash,
                                     rts_used, &partial.value);
        }
      } else {
        // Stale shortcut (segment GC'd or cleaned and reused,
        // de-replication) or a fabric that kept eating the read: drop it
        // and resolve the key as a miss, whose CPU replaces the hint's.
        // An icache slot makes that one more planned read: another pass.
        cache_->Invalidate(plan->key_hash);
        OpResult miss =
            MissPath(key, plan->key_hash, plan->pl, plan->shared, plan);
        partial.status = miss.status;
        partial.value = std::move(miss.value);
        partial.cpu_us = miss.cpu_us;
        partial.hit = cache::HitKind::kMiss;
      }
    }
  }
  partial.cost.Add(more);
  stats_.busy_us += partial.cpu_us;
  return Finish(std::move(partial));
}

Status KnWorker::EnsureSegmentsFor(WriteState* st,
                                   const dpm::DpmPlacement& pl,
                                   size_t entry_bytes) {
  if (pl.primary < 0) return Status::Unavailable("no dpm node alive");
  const size_t cap =
      node(pl.primary)->options().segment_size - kSegmentHeaderSize;
  if (entry_bytes > cap) {
    return Status::InvalidArgument("entry larger than a log segment");
  }
  // The mirror stream can run ahead of the primary's (a retried flush
  // re-ships the batch to a fresh mirror offset), so capacity is judged
  // on the fuller of the two.
  const size_t used =
      pl.mirror >= 0 ? std::max(st->segment_used, st->mirror_used)
                     : st->segment_used;
  const bool roll = st->segment == pm::kNullPmPtr ||
                    used + st->batch.bytes() + entry_bytes > cap;
  if (roll) {
    // Respect the unmerged-segment threshold (§4: "KNs can add a new log
    // segment without blocking until their un-merged log-segment length
    // reaches a certain threshold (default is 2)") — on every node that
    // would host a new segment.
    const int threshold =
        node(pl.primary)->options().unmerged_segment_threshold;
    if (node(pl.primary)->UnmergedSegments(log_owner()) >= threshold) {
      return Status::Busy("unmerged-segment threshold reached");
    }
    if (pl.mirror >= 0 &&
        node(pl.mirror)->UnmergedSegments(log_owner()) >= threshold) {
      return Status::Busy("unmerged-segment threshold reached (mirror)");
    }
    // Both RPCs are idempotent (re-sealing a sealed segment is a no-op; a
    // re-requested allocation just hands out a fresh segment), so
    // transient rejections get a few immediate retries before surfacing.
    if (st->segment != pm::kNullPmPtr) {
      DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
        return pool_->SealSegment(pl.primary, placement_gen_,
                                  options_.fabric_node, log_owner(),
                                  st->segment);
      }));
    }
    if (st->mirror_segment != pm::kNullPmPtr && pl.mirror >= 0) {
      DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
        return pool_->SealSegment(pl.mirror, placement_gen_,
                                  options_.fabric_node, log_owner(),
                                  st->mirror_segment);
      }));
    }
    Result<pm::PmPtr> seg = Status::Unavailable("not attempted");
    DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
      seg = pool_->AllocateSegment(pl.primary, placement_gen_,
                                   options_.fabric_node, log_owner());
      return seg.status();
    }));
    st->segment = seg.value();
    ApplyRelocations();
    st->segment_used = 0;
    st->mirror_segment = pm::kNullPmPtr;
    st->mirror_used = 0;
  }
  if (pl.mirror >= 0 && st->mirror_segment == pm::kNullPmPtr) {
    Result<pm::PmPtr> seg = Status::Unavailable("not attempted");
    DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
      seg = pool_->AllocateSegment(pl.mirror, placement_gen_,
                                   options_.fabric_node, log_owner());
      return seg.status();
    }));
    st->mirror_segment = seg.value();
    ApplyRelocations();
    st->mirror_used = 0;
  }
  return Status::Ok();
}

Status KnWorker::AppendWrite(WriteState* st, const dpm::DpmPlacement& pl,
                             dpm::LogOp op, const Slice& key,
                             const Slice& value, uint64_t key_hash,
                             dpm::ValuePtr* out_vp) {
  const size_t need = dpm::EncodedEntrySize(
      key.size(), op == dpm::LogOp::kPut ? value.size() : 0);
  const size_t cap =
      node(pl.primary >= 0 ? pl.primary : 0)->options().segment_size -
      kSegmentHeaderSize;
  const size_t used =
      pl.mirror >= 0 ? std::max(st->segment_used, st->mirror_used)
                     : st->segment_used;
  if (st->segment == pm::kNullPmPtr ||
      (pl.mirror >= 0 && st->mirror_segment == pm::kNullPmPtr) ||
      used + st->batch.bytes() + need > cap) {
    // Flush what we have into the current segment, then roll over.
    if (st->batch.entries() > 0) {
      double cpu = 0;
      DINOMO_RETURN_IF_ERROR(
          FlushState(PlacementKey{pl.primary, pl.mirror}, st, &cpu));
      stats_.busy_us += cpu;
    }
    DINOMO_RETURN_IF_ERROR(EnsureSegmentsFor(st, pl, need));
  }
  const pm::PmPtr entry_ptr =
      st->segment + kSegmentHeaderSize + st->segment_used + st->batch.bytes();
  if (op == dpm::LogOp::kPut) {
    st->batch.AddPut(++next_seq_, key_hash, key, value);
  } else {
    st->batch.AddDelete(++next_seq_, key_hash, key);
  }
  st->bloom->Add(HashKeySlice(key_hash));
  *out_vp = dpm::ValuePtr::Pack(entry_ptr, static_cast<uint32_t>(need));
  return Status::Ok();
}

Status KnWorker::FlushState(const PlacementKey& pkey, WriteState* st,
                            double* cpu_us) {
  if (st->batch.entries() == 0) return Status::Ok();
  obs::TraceSpan flush_span(obs::SpanKind::kFlush);
  if (obs::TraceContext* ctx = obs::CurrentTraceContext()) {
    ctx->RecordLeaf(obs::SpanKind::kFlush, "flush_cpu", kCpuBatchFlushUs);
  }
  DINOMO_CHECK(st->segment != pm::kNullPmPtr);
  const int p = pkey.first;
  const int m = pkey.second;
  const pm::PmPtr dst = st->segment + kSegmentHeaderSize + st->segment_used;
  const size_t len = st->batch.bytes();
  net::Fabric* pf = node(p)->fabric();
  // A dropped write must be retried BEFORE SubmitBatch — registering a
  // batch whose bytes never landed would merge garbage. On a dry retry
  // budget the batch stays buffered (nothing was acked), so a later flush
  // repeats the identical protocol: idempotent.
  if (m < 0) {
    // Unreplicated fast path: ONE one-sided durable RDMA write ships the
    // whole batch (§3.6), exactly as in the single-DPM system.
    DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
      return pf->Write(options_.fabric_node, st->batch.data(), dst, len);
    }));
  } else {
    // Replicate-before-ack (Tsai & Zhang; AsymNVM mirroring): the
    // primary's commit marker — the byte that makes the batch decodable,
    // and the precondition for acking the flush — is published only after
    // the mirror holds and has registered a full durable copy. A crash of
    // either side before step 3 leaves the batch unacked and the primary
    // copy torn (DecodeEntry rejects it); a primary fail-stop after step
    // 3 finds every acked entry already merged-or-queued on the mirror.
    DINOMO_CHECK(st->mirror_segment != pm::kNullPmPtr);
    const pm::PmPtr mdst =
        st->mirror_segment + kSegmentHeaderSize + st->mirror_used;
    net::Fabric* mf = node(m)->fabric();
    if (options_.test_reorder_replicated_flush) {
      // TEST ONLY — deliberately reordered append: the full batch,
      // commit marker included, lands on the primary before the mirror
      // has a copy. tests/replication_test.cc proves this is detected.
      DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
        return pf->Write(options_.fabric_node, st->batch.data(), dst, len);
      }));
    } else {
      // 1. Primary payload with the final commit-marker byte withheld.
      DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
        return pf->Write(options_.fabric_node, st->batch.data(), dst,
                         len - 1);
      }));
    }
    // 2. Full durable copy to the mirror, then the mirror's SubmitBatch —
    //    its success is the mirror ack the commit marker waits for.
    DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
      return mf->Write(options_.fabric_node, st->batch.data(), mdst, len);
    }));
    auto mirror_submit =
        pool_->SubmitBatch(m, placement_gen_, options_.fabric_node,
                           log_owner(), st->mirror_segment, mdst, len,
                           st->batch.puts());
    if (!mirror_submit.ok()) return mirror_submit.status();
    // The mirror owns these bytes now even if a later step fails — a
    // retried flush ships to a fresh mirror offset (re-merging the same
    // entries is idempotent).
    st->mirror_used += len;
    known_index_epochs_[static_cast<size_t>(m)] =
        std::max(known_index_epochs_[static_cast<size_t>(m)],
                 mirror_submit.value().index_epoch);
    if (!options_.test_reorder_replicated_flush) {
      // 3. Publish the commit marker on the primary. WritePublish makes
      //    it a publication point under the PmChecker: everything the
      //    marker makes reachable must already be durable.
      DINOMO_RETURN_IF_ERROR(RetryTransient(kTransientRetries, [&] {
        return pf->WritePublish(options_.fabric_node,
                                st->batch.data() + (len - 1),
                                dst + (len - 1), 1);
      }));
    }
  }
  // Register the cached copy BEFORE the DPM learns about the batch:
  // SubmitBatch schedules the merge, so with merge threads running the
  // ack can fire immediately — and it must find this batch to evict, or
  // the stale copy would shadow later merges forever.
  {
    MutexLock lock(batches_mu_);
    CachedBatch cached;
    cached.bytes.assign(st->batch.data(), len);
    cached.base = dst;
    cached.node = p;
    cached.bloom = std::move(st->bloom);
    unmerged_batches_.push_back(std::move(cached));
  }
  auto submit = pool_->SubmitBatch(p, placement_gen_, options_.fabric_node,
                                   log_owner(), st->segment, dst, len,
                                   st->batch.puts());
  if (!submit.ok()) {
    // The DPM never accepted the batch (no merge was scheduled): undo
    // the provisional registration. The ops stay buffered in batch, so
    // a later flush repeats the identical protocol.
    MutexLock lock(batches_mu_);
    for (auto it = unmerged_batches_.rbegin(); it != unmerged_batches_.rend();
         ++it) {
      if (it->base != dst || it->node != p) continue;
      st->bloom = std::move(it->bloom);
      unmerged_batches_.erase(std::next(it).base());
      break;
    }
    return submit.status();
  }
  uint64_t& known_epoch = known_index_epochs_[static_cast<size_t>(p)];
  if (submit.value().index_epoch > known_epoch) {
    known_epoch = submit.value().index_epoch;
    index::Clht::RemoteHandle& handle =
        index_handles_[static_cast<size_t>(p)];
    if (handle.valid() && handle.epoch < known_epoch) {
      RefreshIndexHandle(p);
    }
  }
  st->segment_used += len;
  st->batch.Clear();
  st->bloom = std::make_unique<BloomFilter>(options_.batch_max_ops * 4);
  *cpu_us += kCpuBatchFlushUs;
  return Status::Ok();
}

Status KnWorker::FlushAllStates(double* cpu_us) {
  for (auto& [pkey, st] : write_states_) {
    DINOMO_RETURN_IF_ERROR(FlushState(pkey, &st, cpu_us));
  }
  return Status::Ok();
}

OpResult KnWorker::SharedWrite(const Slice& key, const Slice& value,
                               uint64_t key_hash) {
  OpResult out;
  out.cpu_us = options_.cpu_write_us;

  // Shared writes are not batched: the new version must be published
  // immediately through the indirect slot (write value, then CAS, §3.4).
  // They are also primary-only — the slot lives on the key's primary, and
  // the runtimes drop shared mode around a DPM membership change.
  double cpu = 0;
  Status st = FlushAllStates(&cpu);
  out.cpu_us += cpu;
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  const dpm::DpmPlacement pl = pool_->PlacementOf(key_hash);
  if (pl.primary < 0) {
    out.status = Status::Unavailable("no dpm node alive");
    return out;
  }
  WriteState* ws = StateFor(pl);
  const size_t need = dpm::EncodedEntrySize(key.size(), value.size());
  st = EnsureSegmentsFor(ws, pl, need);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  const pm::PmPtr entry_ptr =
      ws->segment + kSegmentHeaderSize + ws->segment_used;
  std::string buf(need, '\0');
  dpm::EncodeEntry(buf.data(), dpm::LogOp::kPut, ++next_seq_, key_hash, key,
                   value);
  // As in FlushState: the entry must actually land before it is
  // registered and published through the slot CAS below.
  net::Fabric* fabric = node(pl.primary)->fabric();
  st = RetryTransient(kTransientRetries, [&] {
    return fabric->Write(options_.fabric_node, buf.data(), entry_ptr, need);
  });
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  auto submit = pool_->SubmitBatch(pl.primary, placement_gen_,
                                   options_.fabric_node, log_owner(),
                                   ws->segment, entry_ptr, need, /*puts=*/1);
  if (!submit.ok()) {
    out.status = submit.status();
    return out;
  }
  ws->segment_used += need;

  const pm::PmPtr slot = node(pl.primary)->SharedSlot(key_hash);
  if (slot == pm::kNullPmPtr) {
    out.status = Status::Unavailable("replication metadata out of date");
    return out;
  }
  const dpm::ValuePtr packed =
      dpm::ValuePtr::Pack(entry_ptr, static_cast<uint32_t>(need));
  for (int attempt = 0; attempt < 16; ++attempt) {
    // A failed slot read leaves nothing to CAS against, and a dropped
    // CAS is retried like a lost race.
    const Result<uint64_t> cur =
        fabric->AtomicRead64(options_.fabric_node, slot);
    if (!cur.ok()) continue;
    if (fabric->CompareAndSwap64(options_.fabric_node, slot, *cur,
                                 packed.raw())
            .value_or(false)) {
      cache_->AdmitShortcutOnly(
          key_hash, dpm::ValuePtr::Pack(slot, 8, /*indirect=*/true));
      // Any direct pointer learned before the key became shared is now
      // behind the slot's version; drop it so a later de-replication
      // cannot resurrect it.
      if (icache_ != nullptr) icache_->Invalidate(key_hash);
      out.status = Status::Ok();
      return out;
    }
  }
  out.status = Status::Busy("indirect slot CAS kept failing");
  return out;
}

OpResult KnWorker::WriteImpl(dpm::LogOp op, const Slice& key,
                             const Slice& value) {
  OpResult out;
  net::ScopedOpCost scope(&out.cost);
  CheckPlacement();
  const uint64_t key_hash = KeyHash(key);
  TrackAccess(key_hash);
  stats_.writes++;

  if (routing_ != nullptr && !routing_->IsOwner(key_hash, options_.kn_id)) {
    stats_.wrong_owner++;
    out.status = Status::WrongOwner();
    return out;
  }
  if (op == dpm::LogOp::kPut && routing_ != nullptr &&
      routing_->ReplicationFactor(key_hash) > 1) {
    OpResult shared = SharedWrite(key, value, key_hash);
    stats_.busy_us += shared.cpu_us;
    shared.cost = out.cost;
    return shared;
  }

  const dpm::DpmPlacement pl = pool_->PlacementOf(key_hash);
  WriteState* ws = StateFor(pl);
  dpm::ValuePtr vp;
  Status st = AppendWrite(ws, pl, op, key, value, key_hash, &vp);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  if (op == dpm::LogOp::kPut) {
    cache_->AdmitOnWrite(key_hash, value, vp);
    // The appended entry's home is fixed at append time (segment offsets
    // are reserved before the flush ships the bytes), so the icache can
    // learn it now; pre-flush reads are satisfied by the batch scan before
    // the icache is ever consulted.
    if (icache_ != nullptr) {
      icache_->Admit(key_hash, placement_gen_, pl.primary, vp.raw());
    }
  } else {
    cache_->Invalidate(key_hash);
    if (icache_ != nullptr) icache_->Invalidate(key_hash);
  }
  out.cpu_us = options_.cpu_write_us;

  if (ws->batch.entries() >= options_.batch_max_ops ||
      ws->batch.bytes() >= options_.batch_max_bytes) {
    st = FlushState(PlacementKey{pl.primary, pl.mirror}, ws, &out.cpu_us);
    if (!st.ok()) {
      out.status = st;
      return out;
    }
  }
  out.status = Status::Ok();
  stats_.busy_us += out.cpu_us;
  return out;
}

Status KnWorker::ScanNode(int n, uint64_t start_okey, uint32_t limit,
                          const std::vector<uint64_t>& deleted_hashes,
                          std::map<std::string, std::string>* merged) {
  using index::PmSkipList;
  net::Fabric* fabric = node(n)->fabric();
  const pm::PmPtr header = node(n)->ordered()->header_ptr();
  SearchLayerCache& slc = slc_[static_cast<size_t>(n)];

  // Node images fetched during this op, keyed by PM pointer: the descent
  // revisits its down-level successors, and a node already read this op
  // (or prefetched) costs no second fabric round.
  std::unordered_map<pm::PmPtr, PmSkipList::NodeImage> images;
  auto read_node = [&](pm::PmPtr p, PmSkipList::NodeImage** img) -> Status {
    auto it = images.find(p);
    if (it != images.end()) {
      *img = &it->second;
      return Status::Ok();
    }
    PmSkipList::NodeImage fresh;
    DINOMO_RETURN_IF_ERROR(RetryTransient(kReadRetries, [&] {
      return PmSkipList::ReadRemoteNode(fabric, options_.fabric_node, p,
                                        &fresh);
    }));
    *img = &images.emplace(p, fresh).first->second;
    return Status::Ok();
  };

  PmSkipList::NodeImage* img = nullptr;
  std::vector<pm::PmPtr> run;
  if (slc.PredictRun(header, placement_gen_, start_okey, limit, &run)) {
    // Warm path: the learned links name the start key's exact predecessor
    // and its successors; fetch them all in ONE doorbell round. Stale
    // links are harmless — the walk below follows only the images' real
    // next[0] pointers, so the prefetch can only be unused, never wrong.
    std::vector<char> raw(run.size() * PmSkipList::kNodeBytes);
    net::Fabric::OpBatch batch(fabric, options_.fabric_node);
    for (size_t i = 0; i < run.size(); ++i) {
      batch.AddRead(run[i], &raw[i * PmSkipList::kNodeBytes],
                    PmSkipList::kNodeBytes);
    }
    // A failed read zero-fills its image, which fails to decode and
    // stays out of the memo: the walk re-reads that node on its own.
    (void)batch.Execute();
    for (size_t i = 0; i < run.size(); ++i) {
      PmSkipList::NodeImage decoded;
      if (PmSkipList::DecodeNode(&raw[i * PmSkipList::kNodeBytes],
                                 &decoded)) {
        images.emplace(run[i], decoded);
      }
    }
    DINOMO_RETURN_IF_ERROR(read_node(run.front(), &img));
    scan_runs_prefetched_.Inc();
  } else {
    // Cold path: position via the cached search layer. The cached
    // predecessor starts at most kSearchLayerHeight levels above the
    // leaves, so the descent is O(kSearchLayerHeight) expected hops
    // instead of O(log n).
    DINOMO_RETURN_IF_ERROR(
        slc.EnsureFresh(fabric, options_.fabric_node, header, placement_gen_));
    pm::PmPtr cur = slc.Seek(start_okey);
    DINOMO_RETURN_IF_ERROR(read_node(cur, &img));
    for (int level = PmSkipList::kSearchLayerHeight - 1; level >= 0;
         --level) {
      while (level < static_cast<int>(img->height)) {
        const pm::PmPtr nxt = img->next[level];
        if (nxt == pm::kNullPmPtr) break;
        PmSkipList::NodeImage* nimg = nullptr;
        DINOMO_RETURN_IF_ERROR(read_node(nxt, &nimg));
        if (nimg->okey >= start_okey) break;
        cur = nxt;
        img = nimg;
      }
    }
    scan_runs_descended_.Inc();
  }

  // Level-0 leaf walk from the predecessor, following real next[0]
  // pointers: memo hits are free, anything else (a node inserted since
  // the links were learned) is one dependent read. Tombstones yield no
  // row, and rows this worker deleted but has not merged yet do not
  // count toward the window (the overlay erases them).
  struct Pending {
    pm::PmPtr node;  // the row's skiplist node (never moved or freed)
    uint64_t key_hash;
    dpm::ValuePtr vp;
  };
  std::vector<Pending> pend;
  uint32_t live = 0;
  pm::PmPtr p = img->next[0];
  while (p != pm::kNullPmPtr && live < limit) {
    PmSkipList::NodeImage* pi = nullptr;
    DINOMO_RETURN_IF_ERROR(read_node(p, &pi));
    if (pi->okey >= start_okey && !pi->tombstone()) {
      pend.push_back(Pending{p, pi->key_hash, dpm::ValuePtr(pi->value)});
      if (!std::binary_search(deleted_hashes.begin(), deleted_hashes.end(),
                              pi->key_hash)) {
        ++live;
      }
    }
    p = pi->next[0];
  }

  // Teach the cache every image this scan read (the descent's included);
  // Learn writes only links it did not already hold.
  for (const auto& [ptr, image] : images) {
    slc.Learn(image.okey, ptr, image.next[0]);
  }
  if (pend.empty()) return Status::Ok();

  // ONE fused value-read round for the whole leaf run (the doorbell
  // OpBatch path). Exactly the rows whose reads were dropped are re-read
  // (all in one round, bounded retries); the scan fails with the fault
  // rather than silently coming back short.
  std::vector<std::string> bufs(pend.size());
  std::vector<Status> fates(pend.size());
  std::vector<size_t> todo(pend.size());
  for (size_t i = 0; i < pend.size(); ++i) {
    bufs[i].resize(pend[i].vp.entry_size());
    todo[i] = i;
  }
  for (int attempt = 0; !todo.empty(); ++attempt) {
    const bool last = attempt + 1 >= kReadRetries;
    net::Fabric::OpBatch batch(fabric, options_.fabric_node);
    for (size_t i : todo) {
      batch.AddRead(pend[i].vp.offset(), bufs[i].data(), bufs[i].size(),
                    &fates[i]);
    }
    const Status fault = batch.Execute();
    std::vector<size_t> again;
    for (size_t i : todo) {
      if (IsTransient(fates[i])) {
        if (last) return fault;
        again.push_back(i);
        continue;
      }
      if (!fates[i].ok()) return fates[i];
      dpm::LogRecord rec;
      if (DecodePutOf(bufs[i], pend[i].key_hash, &rec)) {
        // emplace: first writer wins, so a mirror's identical copy of a
        // replicated row never duplicates (or clobbers) the primary's.
        merged->emplace(std::string(rec.key.data(), rec.key.size()),
                        std::string(rec.value.data(), rec.value.size()));
        continue;
      }
      // The value left that address after the walk read the node: a merge
      // superseded it, or the log cleaner relocated it and its old segment
      // was freed and reused. Only the node knows which, so re-read it: a
      // tombstone is a deleted row, anything else names the row's value.
      if (last) continue;
      PmSkipList::NodeImage fresh;
      DINOMO_RETURN_IF_ERROR(RetryTransient(kReadRetries, [&] {
        return PmSkipList::ReadRemoteNode(fabric, options_.fabric_node,
                                          pend[i].node, &fresh);
      }));
      if (fresh.tombstone()) continue;
      pend[i].vp = dpm::ValuePtr(fresh.value);
      bufs[i].resize(pend[i].vp.entry_size());
      again.push_back(i);
    }
    todo.swap(again);
  }
  return Status::Ok();
}

OpResult KnWorker::ScanImpl(const Slice& start_key, uint32_t scan_len,
                            std::vector<ScanRow>* rows) {
  OpResult out;
  net::ScopedOpCost scope(&out.cost);
  CheckPlacement();
  rows->clear();
  stats_.scans++;
  out.cpu_us = kCpuScanUs;
  if (scan_len == 0) {
    out.status = Status::Ok();
    return out;
  }
  const std::string start(start_key.data(), start_key.size());
  const uint64_t start_okey =
      index::PmSkipList::OrderedKey(start_key.data(), start_key.size());

  // This worker's not-yet-merged writes, which are authoritative for its
  // partition (§4): oldest batch first, the in-flight builders last, so a
  // key's newest entry wins. nullopt marks a delete.
  std::map<std::string, std::optional<std::string>> overlay;
  auto collect = [&](const char* data, size_t len) {
    out.cpu_us += kCpuSegmentScanUs;
    dpm::LogIterator it(data, len);
    dpm::LogRecord rec;
    while (it.Next(&rec)) {
      std::string k(rec.key.data(), rec.key.size());
      if (k < start) continue;
      if (rec.op == dpm::LogOp::kPut) {
        overlay[std::move(k)] = std::string(rec.value.data(),
                                            rec.value.size());
      } else {
        overlay[std::move(k)] = std::nullopt;
      }
    }
  };
  {
    MutexLock lock(batches_mu_);
    for (const CachedBatch& b : unmerged_batches_) {
      collect(b.bytes.data(), b.bytes.size());
    }
  }
  for (const auto& [pkey, ws] : write_states_) {
    if (ws.batch.entries() > 0) collect(ws.batch.data(), ws.batch.bytes());
  }
  // The leaf walks skip these rows when counting the window, so a run
  // still yields scan_len rows after the overlay erases them.
  std::vector<uint64_t> deleted_hashes;
  for (const auto& [k, v] : overlay) {
    if (!v.has_value()) deleted_hashes.push_back(KeyHash(Slice(k)));
  }
  std::sort(deleted_hashes.begin(), deleted_hashes.end());

  // Keys hash-partition across DPM nodes, so a key *range* spans all of
  // them: collect each alive node's run and merge by key (lexicographic
  // order == okey-major order, the ordered index's sort key).
  std::map<std::string, std::string> merged;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    if (!pool_->alive(n)) continue;
    Status st = ScanNode(n, start_okey, scan_len, deleted_hashes, &merged);
    if (!st.ok()) {
      out.status = st;
      return out;
    }
  }
  for (auto& [k, v] : overlay) {
    if (v.has_value()) {
      merged[k] = std::move(*v);
    } else {
      merged.erase(k);
    }
  }

  rows->reserve(std::min<size_t>(merged.size(), scan_len));
  for (auto& [k, v] : merged) {
    if (rows->size() >= scan_len) break;
    // Aliasing guard: a key longer than 8 bytes sharing the start key's
    // okey prefix can sort below the start key; drop it here.
    if (k < start) continue;
    rows->push_back(ScanRow{k, std::move(v)});
  }
  out.status = Status::Ok();
  stats_.busy_us += out.cpu_us;
  return out;
}

OpResult KnWorker::FlushWrites() {
  OpResult out;
  net::ScopedOpCost scope(&out.cost);
  CheckPlacement();
  out.status = FlushAllStates(&out.cpu_us);
  stats_.busy_us += out.cpu_us;
  return out;
}

bool KnWorker::WriteWouldBlock() const {
  const size_t cap = node(0)->options().segment_size - kSegmentHeaderSize;
  const int threshold = node(0)->options().unmerged_segment_threshold;
  const size_t headroom = dpm::EncodedEntrySize(64, 4096);
  if (write_states_.empty()) {
    // No segment yet anywhere: the first write blocks only if some alive
    // node already holds a threshold's worth of this owner's segments
    // (possible right after a failover re-bin).
    for (int n = 0; n < pool_->num_nodes(); ++n) {
      if (!pool_->alive(n)) continue;
      if (node(n)->UnmergedSegments(log_owner()) >= threshold) return true;
    }
    return false;
  }
  for (const auto& [pkey, st] : write_states_) {
    const size_t used =
        pkey.second >= 0
            ? std::max(st.segment_used, st.mirror_used)
            : st.segment_used;
    if (st.segment != pm::kNullPmPtr &&
        (pkey.second < 0 || st.mirror_segment != pm::kNullPmPtr) &&
        used + st.batch.bytes() + headroom <= cap) {
      continue;  // this placement still has segment headroom
    }
    if (node(pkey.first)->UnmergedSegments(log_owner()) >= threshold) {
      return true;
    }
    if (pkey.second >= 0 &&
        node(pkey.second)->UnmergedSegments(log_owner()) >= threshold) {
      return true;
    }
  }
  return false;
}

Status KnWorker::DrainLog() {
  CheckPlacement();
  OpResult flush = FlushWrites();
  if (!flush.status.ok() && !flush.status.IsBusy()) return flush.status;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    if (!pool_->alive(n)) continue;
    DINOMO_RETURN_IF_ERROR(node(n)->DrainOwner(log_owner()));
  }
  return Status::Ok();
}

void KnWorker::ResetForOwnershipChange() {
  cache_->Clear();
  if (icache_ != nullptr) icache_->Clear();
  for (SearchLayerCache& slc : slc_) slc.Clear();
  {
    MutexLock lock(batches_mu_);
    unmerged_batches_.clear();
  }
  RefreshIndexHandle();
}

void KnWorker::OnOwnerBatchMerged(int ack_node, pm::PmPtr batch_base) {
  MutexLock lock(batches_mu_);
  for (auto it = unmerged_batches_.begin(); it != unmerged_batches_.end();
       ++it) {
    if (it->base == batch_base && it->node == ack_node) {
      unmerged_batches_.erase(it);
      return;
    }
  }
  // No matching (node, base): the ack is for a batch this cache no longer
  // tracks (a mirror's copy of a batch — same bytes, different pool — an
  // untracked shared-write submit, or a late ack from before an ownership
  // change). Evicting anything here would drop a batch that is still
  // authoritative for reads.
}

std::vector<pm::PmPtr> KnWorker::UnmergedBatchBases() const {
  MutexLock lock(batches_mu_);
  std::vector<pm::PmPtr> bases;
  bases.reserve(unmerged_batches_.size());
  for (const auto& b : unmerged_batches_) bases.push_back(b.base);
  return bases;
}

void KnWorker::InjectUnmergedBatchForTest(std::string bytes, pm::PmPtr base,
                                          int inject_node) {
  CachedBatch cached;
  cached.bloom = std::make_unique<BloomFilter>(options_.batch_max_ops * 4);
  dpm::LogIterator it(bytes.data(), bytes.size());
  dpm::LogRecord rec;
  while (it.Next(&rec)) cached.bloom->Add(HashKeySlice(rec.key_hash));
  cached.bytes = std::move(bytes);
  cached.base = base;
  cached.node = inject_node;
  MutexLock lock(batches_mu_);
  unmerged_batches_.push_back(std::move(cached));
}

WorkerStats KnWorker::SnapshotStats() const {
  WorkerStats out = stats_;
  const cache::CacheStats cs = cache_->stats();
  out.value_hits = cs.value_hits;
  out.shortcut_hits = cs.shortcut_hits;
  out.misses = cs.misses;
  return out;
}

EpochLoad KnWorker::DrainEpochLoad() {
  EpochLoad out;
  out.busy_us = std::exchange(stats_.busy_us, 0.0);

  // Hot-key summary for the M-node's selective-replication policy.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [key, count] : access_counts_) {
    sum += count;
    sum_sq += static_cast<double>(count) * count;
  }
  const double n = static_cast<double>(access_counts_.size());
  if (n > 0) {
    out.key_freq_mean = sum / n;
    const double var = sum_sq / n - out.key_freq_mean * out.key_freq_mean;
    out.key_freq_stddev = var > 0 ? std::sqrt(var) : 0.0;
  }
  std::vector<std::pair<uint64_t, uint64_t>> top(access_counts_.begin(),
                                                 access_counts_.end());
  const size_t k = std::min<size_t>(16, top.size());
  std::partial_sort(top.begin(), top.begin() + k, top.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  top.resize(k);
  out.hot_keys = std::move(top);
  access_counts_.clear();
  return out;
}

void DeliverRelocations(
    const cluster::RoutingTable& table, int node,
    const std::vector<dpm::Relocation>& moves,
    const std::function<KnWorker*(uint64_t, int)>& worker_of) {
  if (table.global_ring.empty()) return;
  std::map<KnWorker*, std::vector<dpm::Relocation>> by_worker;
  for (const dpm::Relocation& mv : moves) {
    const uint64_t kn_id = table.PrimaryOwner(mv.key_hash);
    KnWorker* w = worker_of(kn_id, table.ThreadFor(mv.key_hash, kn_id));
    if (w != nullptr) by_worker[w].push_back(mv);
  }
  for (const auto& [w, group] : by_worker) w->OnEntriesRelocated(node, group);
}

}  // namespace kn
}  // namespace dinomo
