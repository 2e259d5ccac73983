#include "dpm/dpm_node.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/logging.h"

namespace dinomo {
namespace dpm {

namespace {

// Persistent segment header occupying the first cache line of a segment.
struct SegmentPmHeader {
  uint64_t capacity;
  uint64_t owner;
  uint64_t state;
  uint64_t used_bytes;
  uint64_t merged_bytes;
  uint64_t puts_total;
  uint64_t puts_invalid;
  uint64_t pad;
};
static_assert(sizeof(SegmentPmHeader) == pm::kCacheLineSize);

constexpr size_t kSegmentHeaderSize = pm::kCacheLineSize;
// DPM processor time to serve a segment-allocation RPC, us.
constexpr double kAllocRpcCpuUs = 3.0;

// Recovery superblock: the first allocation of a fresh pool, so its
// offset is deterministic (region start + allocator block header).
struct alignas(pm::kCacheLineSize) Superblock {
  uint64_t magic;
  pm::PmPtr index_header;
  pm::PmPtr segdir;
  uint64_t segdir_slots;
  pm::PmPtr high_water;  // allocator bump high-water (absolute offset)
  pm::PmPtr ordered_header;  // PmSkipList (range-scan index) header
  uint64_t pad[2];
};
static_assert(sizeof(Superblock) == pm::kCacheLineSize);

constexpr uint64_t kSuperMagic = 0xD120130FEED5EEDULL;
constexpr uint64_t kSegDirSlots = 8192;

// Persistent segment-directory entry; live iff base != 0.
struct SegDirEntry {
  pm::PmPtr base;
  uint64_t owner;
};

}  // namespace

DpmNode::DpmNode(const DpmOptions& options)
    : options_(options),
      metrics_(obs::Scope("dpm", options.metrics)),
      segments_allocated_(metrics_.counter("segments_allocated")),
      segments_gced_(metrics_.counter("segments_gced")),
      log_batches_(metrics_.counter("log.batches")),
      log_bytes_(metrics_.counter("log.bytes")),
      log_puts_(metrics_.counter("log.puts")) {
  WireLockMetrics();
  pool_ = std::make_unique<pm::PmPool>(options_.pool_size, options_.crash_sim,
                                       options_.metrics);
  InitFresh();
}

DpmNode::DpmNode(const DpmOptions& options, std::unique_ptr<pm::PmPool> pool)
    : options_(options),
      metrics_(obs::Scope("dpm", options.metrics)),
      segments_allocated_(metrics_.counter("segments_allocated")),
      segments_gced_(metrics_.counter("segments_gced")),
      log_batches_(metrics_.counter("log.batches")),
      log_bytes_(metrics_.counter("log.bytes")),
      log_puts_(metrics_.counter("log.puts")),
      pool_(std::move(pool)) {
  WireLockMetrics();
}

void DpmNode::WireLockMetrics() {
  seg_shards_.SetContentionCounters(&metrics_.counter("lock.seg.acquired"),
                                    &metrics_.counter("lock.seg.contended"));
  shared_slots_.SetContentionCounters(
      &metrics_.counter("lock.shared.acquired"),
      &metrics_.counter("lock.shared.contended"));
  partition_index_.SetContentionCounters(
      &metrics_.counter("lock.part.acquired"),
      &metrics_.counter("lock.part.contended"));
}

void DpmNode::InitFresh() {
  alloc_ = std::make_unique<pm::PmAllocator>(pool_.get(), pm::kCacheLineSize,
                                             options_.pool_size -
                                                 pm::kCacheLineSize);
  fabric_ = std::make_unique<net::Fabric>(pool_.get(), options_.link_profile,
                                          options_.metrics);

  auto sb_alloc = alloc_->Alloc(sizeof(Superblock));
  DINOMO_CHECK(sb_alloc.ok());
  superblock_ = sb_alloc.value();
  auto dir_alloc = alloc_->Alloc(kSegDirSlots * sizeof(SegDirEntry));
  DINOMO_CHECK(dir_alloc.ok());

  auto idx = index::Clht::Create(pool_.get(), alloc_.get(),
                                 options_.index_log2_buckets);
  DINOMO_CHECK(idx.ok());
  index_.reset(idx.value());
  auto ordered = index::PmSkipList::Create(pool_.get(), alloc_.get());
  DINOMO_CHECK(ordered.ok());
  ordered_.reset(ordered.value());

  Superblock sb{};
  sb.index_header = index_->header_ptr();
  sb.ordered_header = ordered_->header_ptr();
  sb.segdir = dir_alloc.value();
  sb.segdir_slots = kSegDirSlots;
  sb.high_water = alloc_->region_start() + alloc_->high_water();
  sb.magic = 0;
  pool_->Store(superblock_, sb);
  // The magic is written last and its persist is the commit point that
  // makes the whole superblock (and everything it points at) reachable.
  pool_->StoreRelease64(superblock_ + offsetof(Superblock, magic),
                        kSuperMagic);
  pool_->PersistPublish(superblock_, sizeof(Superblock));

  alloc_->SetHighWaterHook([this](pm::PmPtr hw) { PersistHighWater(); (void)hw; });
  PersistHighWater();
  merge_ = std::make_unique<MergeService>(this, options_.merge_profile,
                                          options_.metrics);
}

void DpmNode::PersistHighWater() {
  if (superblock_ == pm::kNullPmPtr) return;
  // The high-water hook fires outside the allocator's lock, so concurrent
  // allocations race here; serialize the read-check-store on the
  // superblock word.
  MutexLock lock(sb_mu_);
  const pm::PmPool& ro = *pool_;
  const auto* sb =
      reinterpret_cast<const Superblock*>(ro.Translate(superblock_));
  const pm::PmPtr hw = alloc_->region_start() + alloc_->high_water();
  if (hw > sb->high_water) {
    pool_->Store(superblock_ + offsetof(Superblock, high_water), hw);
    pool_->Persist(superblock_, sizeof(Superblock));
  }
}

Result<std::unique_ptr<DpmNode>> DpmNode::Recover(
    const DpmOptions& options, std::unique_ptr<pm::PmPool> pool) {
  if (options.partitioned_metadata) {
    return Status::NotSupported(
        "recovery of partitioned (DINOMO-N) metadata is not implemented");
  }
  std::unique_ptr<DpmNode> node(new DpmNode(options, std::move(pool)));
  DINOMO_RETURN_IF_ERROR(node->InitRecovered());
  return node;
}

std::unique_ptr<pm::PmPool> DpmNode::DetachPool() && {
  merge_->StopThreads();
  return std::move(pool_);
}

void DpmNode::RegisterSegment(pm::PmPtr base, const SegmentInfo& info) {
  seg_shards_.WithShard(info.owner, [&](OwnerSegmentMap& m) {
    m[info.owner].segments[base] = info;
  });
  // Stripe first, index second: a resolver that finds the base in the
  // index is then guaranteed to find the segment in its owner's stripe.
  WriterLock lock(seg_index_mu_);
  seg_index_[base] = SegRef{info.owner, info.gen};
}

bool DpmNode::LookupSegRef(pm::PmPtr base, SegRef* ref) const {
  ReaderLock lock(seg_index_mu_);
  auto it = seg_index_.find(base);
  if (it == seg_index_.end()) return false;
  *ref = it->second;
  return true;
}

Status DpmNode::InitRecovered() {
  // The superblock is the first allocation of a fresh pool: its offset is
  // region start (one cache line) + the allocator block header.
  superblock_ = 2 * pm::kCacheLineSize;
  if (!pool_->Contains(superblock_, sizeof(Superblock))) {
    return Status::Corruption("pool too small for a superblock");
  }
  const pm::PmPool& ro = *pool_;
  const auto* sb =
      reinterpret_cast<const Superblock*>(ro.Translate(superblock_));
  if (sb->magic != kSuperMagic) {
    return Status::Corruption("bad superblock magic");
  }
  // Resume allocation above everything ever handed out before the crash
  // (memory freed pre-crash is leaked — a bounded, documented cost).
  const pm::PmPtr resume =
      (sb->high_water + pm::kCacheLineSize - 1) & ~(pm::kCacheLineSize - 1);
  if (resume >= options_.pool_size) {
    return Status::Corruption("high-water beyond pool");
  }
  alloc_ = std::make_unique<pm::PmAllocator>(pool_.get(), resume,
                                             options_.pool_size - resume);
  fabric_ = std::make_unique<net::Fabric>(pool_.get(), options_.link_profile,
                                          options_.metrics);

  auto idx = index::Clht::Recover(pool_.get(), alloc_.get(),
                                  sb->index_header);
  if (!idx.ok()) return idx.status();
  index_.reset(idx.value());
  if (sb->ordered_header == pm::kNullPmPtr) {
    return Status::Corruption("superblock missing ordered-index header");
  }
  // Recover the ordered index before replaying un-merged log suffixes:
  // the replay goes through ApplyRecord, which mutates both indexes.
  auto ordered = index::PmSkipList::Recover(pool_.get(), alloc_.get(),
                                            sb->ordered_header);
  if (!ordered.ok()) return ordered.status();
  ordered_.reset(ordered.value());
  merge_ = std::make_unique<MergeService>(this, options_.merge_profile,
                                          options_.metrics);
  alloc_->SetHighWaterHook([this](pm::PmPtr hw) { PersistHighWater(); (void)hw; });

  // Rebuild the segment registry from the persistent directory and queue
  // the un-merged committed log suffixes for (idempotent) replay.
  const auto* dir =
      reinterpret_cast<const SegDirEntry*>(ro.Translate(sb->segdir));
  for (uint64_t slot = 0; slot < sb->segdir_slots; ++slot) {
    if (dir[slot].base == pm::kNullPmPtr) continue;
    const pm::PmPtr base = dir[slot].base;
    if (!pool_->Contains(base, options_.segment_size)) {
      return Status::Corruption("segment directory entry out of range");
    }
    const auto* hdr =
        reinterpret_cast<const SegmentPmHeader*>(ro.Translate(base));
    SegmentInfo info;
    info.owner = hdr->owner;
    info.gen = seg_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
    info.state = static_cast<SegmentState>(hdr->state);
    info.used_bytes = hdr->used_bytes;
    info.merged_bytes = hdr->merged_bytes;
    info.puts_total = hdr->puts_total;
    info.puts_invalid = hdr->puts_invalid;
    if (info.merged_bytes < info.used_bytes) info.unmerged_batches = 1;
    RegisterSegment(base, info);
    {
      MutexLock lock(dir_mu_);
      segment_dir_slots_[base] = static_cast<int>(slot);
    }
    segments_allocated_.Inc();
    if (info.merged_bytes < info.used_bytes) {
      MergeTask task;
      task.owner = info.owner;
      task.segment = base;
      task.data = base + kSegmentHeaderSize + info.merged_bytes;
      task.bytes = info.used_bytes - info.merged_bytes;
      task.puts = 0;
      merge_->Enqueue(task);
    }
  }
  DINOMO_RETURN_IF_ERROR(merge_->DrainAll());

  // Rebuild the shared-key directory from the indirect markers the index
  // still carries (the slots themselves are persistent).
  index_->ForEach([&](uint64_t key_hash, pm::PmPtr value) {
    ValuePtr vp(value);
    if (vp.indirect()) {
      shared_slots_.WithShard(key_hash, [&](auto& m) {
        m[key_hash] = vp.offset();
      });
    }
  });
  return Status::Ok();
}

DpmNode::~DpmNode() = default;

Result<pm::PmPtr> DpmNode::AllocateSegment(int kn_node, uint64_t owner) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  auto seg = alloc_->Alloc(options_.segment_size);
  if (!seg.ok()) return seg.status();
  const pm::PmPtr base = seg.value();

  SegmentPmHeader hdr{};
  hdr.capacity = options_.segment_size - kSegmentHeaderSize;
  hdr.owner = owner;
  hdr.state = static_cast<uint64_t>(SegmentState::kActive);
  pool_->Store(base, hdr);
  pool_->Persist(base, sizeof(SegmentPmHeader));

  DINOMO_RETURN_IF_ERROR(DirectoryAdd(base, owner));
  SegmentInfo info;
  info.owner = owner;
  info.gen = seg_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
  RegisterSegment(base, info);
  segments_allocated_.Inc();
  // Segment pre-allocation is a two-sided operation (paper §4: "KNs
  // proactively preallocate log segments for their own use using
  // two-sided operations").
  fabric_->ChargeRpc(kn_node, /*req=*/24, /*resp=*/16,
                     kAllocRpcCpuUs, "rpc:allocate_segment");
  return base;
}

Result<DpmNode::SubmitResult> DpmNode::SubmitBatch(int kn_node,
                                                   uint64_t owner,
                                                   pm::PmPtr segment,
                                                   pm::PmPtr data,
                                                   size_t bytes,
                                                   uint64_t puts) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  (void)kn_node;  // No fabric charge: the batch itself was the one-sided
                  // write; the DPM processors discover sealed batches by
                  // polling segment headers, off the KN's critical path.
  SegRef ref;
  if (!LookupSegRef(segment, &ref)) {
    return Status::InvalidArgument("unknown segment");
  }
  if (ref.owner != owner) {
    return Status::WrongOwner("segment owned by another KN");
  }
  int unmerged = 0;
  Status st = seg_shards_.WithShard(owner, [&](OwnerSegmentMap& m) -> Status {
    auto oit = m.find(owner);
    if (oit == m.end()) return Status::InvalidArgument("unknown segment");
    auto sit = oit->second.segments.find(segment);
    if (sit == oit->second.segments.end()) {
      return Status::InvalidArgument("unknown segment");
    }
    SegmentInfo& info = sit->second;
    if (info.state != SegmentState::kActive) {
      return Status::InvalidArgument("segment not active");
    }
    const size_t rel_end = (data + bytes) - (segment + kSegmentHeaderSize);
    if (data < segment + kSegmentHeaderSize ||
        rel_end > options_.segment_size - kSegmentHeaderSize) {
      return Status::InvalidArgument("batch outside segment");
    }
    info.used_bytes = std::max(info.used_bytes, rel_end);
    info.puts_total += puts;
    info.unmerged_batches++;

    // Persisting used_bytes commits the batch: recovery replays exactly
    // [merged_bytes, used_bytes), so this is the publication point for the
    // payload the KN wrote (and persisted) via the fabric.
    pool_->Store(segment + offsetof(SegmentPmHeader, used_bytes),
                 info.used_bytes);
    pool_->Store(segment + offsetof(SegmentPmHeader, puts_total),
                 info.puts_total);
    pool_->PersistPublish(segment, sizeof(SegmentPmHeader));

    for (const auto& [base, si] : oit->second.segments) {
      if (si.unmerged_batches > 0) unmerged++;
    }
    return Status::Ok();
  });
  DINOMO_RETURN_IF_ERROR(st);

  log_batches_.Inc();
  log_bytes_.Inc(bytes);
  log_puts_.Inc(puts);

  MergeTask task;
  task.owner = owner;
  task.segment = segment;
  task.data = data;
  task.bytes = bytes;
  task.puts = puts;
  merge_->Enqueue(task);

  SubmitResult result;
  result.index_epoch = index_->Epoch();
  result.unmerged_segments = unmerged;
  return result;
}

Status DpmNode::SealSegment(int kn_node, uint64_t owner, pm::PmPtr segment) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  (void)kn_node;
  SegRef ref;
  if (!LookupSegRef(segment, &ref)) {
    return Status::InvalidArgument("unknown segment");
  }
  if (ref.owner != owner) return Status::WrongOwner();
  return seg_shards_.WithShard(owner, [&](OwnerSegmentMap& m) -> Status {
    auto oit = m.find(owner);
    if (oit == m.end()) return Status::InvalidArgument("unknown segment");
    auto sit = oit->second.segments.find(segment);
    if (sit == oit->second.segments.end()) {
      return Status::InvalidArgument("unknown segment");
    }
    sit->second.state = SegmentState::kSealed;
    pool_->Store(segment + offsetof(SegmentPmHeader, state),
                 static_cast<uint64_t>(SegmentState::kSealed));
    pool_->Persist(segment, sizeof(SegmentPmHeader));
    MaybeGcOwnerLocked(oit->second, segment, &sit->second);
    return Status::Ok();
  });
}

int DpmNode::UnmergedSegments(uint64_t owner) const {
  return seg_shards_.WithShard(owner, [&](const OwnerSegmentMap& m) {
    auto oit = m.find(owner);
    if (oit == m.end()) return 0;
    int n = 0;
    for (const auto& [base, info] : oit->second.segments) {
      if (info.unmerged_batches > 0) n++;
    }
    return n;
  });
}

index::Clht* DpmNode::IndexFor(uint64_t kn_id) {
  if (!options_.partitioned_metadata) return index_.get();
  return partition_index_.WithShard(kn_id, [&](auto& m) -> index::Clht* {
    auto it = m.find(kn_id);
    if (it != m.end()) return it->second.get();
    auto created = index::Clht::Create(pool_.get(), alloc_.get(),
                                       options_.index_log2_buckets);
    DINOMO_CHECK(created.ok());
    auto* raw = created.value();
    m[kn_id] = std::unique_ptr<index::Clht>(raw);
    return raw;
  });
}

namespace {
// Log owners encode (kn_id << 8) | worker; partition indexes are per KN.
inline uint64_t KnOfOwner(uint64_t owner) { return owner >> 8; }
}  // namespace

void DpmNode::NoteSuperseded(pm::PmPtr entry_ptr) {
  pm::PmPtr base = pm::kNullPmPtr;
  SegRef ref;
  {
    ReaderLock lock(seg_index_mu_);
    auto it = seg_index_.upper_bound(entry_ptr);
    if (it == seg_index_.begin()) return;
    --it;
    if (entry_ptr < it->first || entry_ptr >= it->first + options_.segment_size) {
      return;  // segment already GCed
    }
    base = it->first;
    ref = it->second;
  }
  // The index lock is released before taking the stripe (lock order), so
  // the segment can be GCed — and its base reused — in between; the
  // generation check rejects such a stale resolution.
  seg_shards_.WithShard(ref.owner, [&](OwnerSegmentMap& m) {
    auto oit = m.find(ref.owner);
    if (oit == m.end()) return;
    auto sit = oit->second.segments.find(base);
    if (sit == oit->second.segments.end()) return;
    if (sit->second.gen != ref.gen) return;
    sit->second.puts_invalid++;
    MaybeGcOwnerLocked(oit->second, base, &sit->second);
  });
}

void DpmNode::ApplyRecord(uint64_t owner, const LogRecord& rec,
                          pm::PmPtr entry_ptr, uint32_t entry_size) {
  index::Clht* index = IndexFor(KnOfOwner(owner));
  const ValuePtr packed = ValuePtr::Pack(entry_ptr, entry_size);
  const uint64_t okey =
      index::PmSkipList::OrderedKey(rec.key.data(), rec.key.size());

  // Selectively-replicated keys are published through their indirect slot
  // by the writing KN's one-sided CAS; the merge only settles GC state.
  pm::PmPtr slot = SharedSlot(rec.key_hash);
  if (slot != pm::kNullPmPtr) {
    const pm::PmPool& ro = *pool_;
    auto* slot_word =
        reinterpret_cast<uint64_t*>(const_cast<char*>(ro.Translate(slot)));
    const uint64_t current =
        std::atomic_ref<uint64_t>(*slot_word).load(std::memory_order_acquire);
    if (rec.op == LogOp::kPut && current != packed.raw()) {
      // This version was already superseded through the slot.
      NoteSuperseded(entry_ptr);
    } else if (rec.op == LogOp::kPut) {
      // This entry is the slot's live version: reflect it in the ordered
      // index. Stale versions are skipped — their winning successor's own
      // merge refreshes the list — so a scan of a shared key serves the
      // latest *merged* version (scans read committed merge state; the
      // slot's CAS-published tip is a point-lookup concern).
      auto prev = ordered_->UpsertHashed(okey, rec.key_hash, packed.raw());
      DINOMO_CHECK(prev.ok());
    } else {
      auto prev = ordered_->Remove(okey);
      DINOMO_CHECK(prev.ok());
    }
    return;
  }

  if (rec.op == LogOp::kDelete) {
    auto old = index->Remove(rec.key_hash);
    DINOMO_CHECK(old.ok());
    auto oldo = ordered_->Remove(okey);
    DINOMO_CHECK(oldo.ok());
    if (old.value() != pm::kNullPmPtr && !ValuePtr(old.value()).indirect()) {
      NoteSuperseded(ValuePtr(old.value()).offset());
    }
    return;
  }

  auto old = index->Upsert(rec.key_hash, packed.raw());
  DINOMO_CHECK(old.ok());
  auto oldo = ordered_->UpsertHashed(okey, rec.key_hash, packed.raw());
  DINOMO_CHECK(oldo.ok());
  if (old.value() == packed.raw()) return;  // crash-recovery replay
  if (old.value() != pm::kNullPmPtr && !ValuePtr(old.value()).indirect()) {
    NoteSuperseded(ValuePtr(old.value()).offset());
  }
}

void DpmNode::CompleteBatch(uint64_t owner, pm::PmPtr segment, pm::PmPtr data,
                            size_t bytes) {
  seg_shards_.WithShard(owner, [&](OwnerSegmentMap& m) {
    auto oit = m.find(owner);
    if (oit == m.end()) return;  // segment already GCed
    auto sit = oit->second.segments.find(segment);
    if (sit == oit->second.segments.end()) return;
    SegmentInfo& info = sit->second;
    const size_t rel_end = (data + bytes) - (segment + kSegmentHeaderSize);
    info.merged_bytes = std::max(info.merged_bytes, rel_end);
    info.unmerged_batches--;
    pool_->Store(segment + offsetof(SegmentPmHeader, merged_bytes),
                 info.merged_bytes);
    pool_->Store(segment + offsetof(SegmentPmHeader, puts_invalid),
                 info.puts_invalid);
    pool_->Persist(segment, sizeof(SegmentPmHeader));
    MaybeGcOwnerLocked(oit->second, segment, &info);
  });
}

void DpmNode::MaybeGcOwnerLocked(OwnerSegments& os, pm::PmPtr base,
                                 SegmentInfo* info) {
  if (info->state != SegmentState::kSealed) return;
  if (info->unmerged_batches != 0) return;
  if (info->puts_invalid < info->puts_total) return;
  // Every value in the segment is superseded and everything merged:
  // reclaim (paper §4, per-log-segment valid/invalid counters).
  DirectoryRemove(base);
  alloc_->Free(base);
  os.segments.erase(base);
  {
    WriterLock lock(seg_index_mu_);
    seg_index_.erase(base);
  }
  segments_gced_.Inc();
}

Status DpmNode::DirectoryAdd(pm::PmPtr base, uint64_t owner) {
  const pm::PmPool& ro = *pool_;
  const auto* sb =
      reinterpret_cast<const Superblock*>(ro.Translate(superblock_));
  const auto* dir =
      reinterpret_cast<const SegDirEntry*>(ro.Translate(sb->segdir));
  MutexLock lock(dir_mu_);
  for (uint64_t slot = 0; slot < sb->segdir_slots; ++slot) {
    if (dir[slot].base != pm::kNullPmPtr) continue;
    const pm::PmPtr entry = sb->segdir + slot * sizeof(SegDirEntry);
    pool_->Store(entry + offsetof(SegDirEntry, owner), owner);
    // base is written last and its persist is the commit point that makes
    // the segment reachable by recovery.
    pool_->StoreRelease64(entry + offsetof(SegDirEntry, base), base);
    pool_->PersistPublish(entry, sizeof(SegDirEntry));
    segment_dir_slots_[base] = static_cast<int>(slot);
    return Status::Ok();
  }
  return Status::OutOfMemory("segment directory full");
}

void DpmNode::DirectoryRemove(pm::PmPtr base) {
  MutexLock lock(dir_mu_);
  auto it = segment_dir_slots_.find(base);
  if (it == segment_dir_slots_.end()) return;
  const pm::PmPool& ro = *pool_;
  const auto* sb =
      reinterpret_cast<const Superblock*>(ro.Translate(superblock_));
  const pm::PmPtr entry = sb->segdir + it->second * sizeof(SegDirEntry);
  pool_->StoreRelease64(entry + offsetof(SegDirEntry, base), pm::kNullPmPtr);
  pool_->Persist(entry, sizeof(SegDirEntry));
  segment_dir_slots_.erase(it);
}

Result<pm::PmPtr> DpmNode::InstallIndirect(int kn_node, uint64_t key_hash) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  return shared_slots_.WithShard(
      key_hash, [&](auto& slots) -> Result<pm::PmPtr> {
        auto it = slots.find(key_hash);
        if (it != slots.end()) return it->second;  // idempotent

        const pm::PmPtr current = index_->Lookup(key_hash);
        if (current == pm::kNullPmPtr) {
          return Status::NotFound("cannot share a non-existent key");
        }
        auto slot_alloc = alloc_->Alloc(pm::kCacheLineSize);
        if (!slot_alloc.ok()) return slot_alloc.status();
        const pm::PmPtr slot = slot_alloc.value();

        pool_->StoreRelease64(slot, current);
        pool_->Persist(slot, sizeof(uint64_t));

        // Re-point the index at the slot, flagged indirect. Readers that
        // came through the index now take one extra hop (the cost shared
        // keys pay, §3.4).
        auto old = index_->Upsert(
            key_hash, ValuePtr::Pack(slot, 8, /*indirect=*/true).raw());
        DINOMO_CHECK(old.ok());
        slots[key_hash] = slot;
        fabric_->ChargeRpc(kn_node, 16, 16, 2.0, "rpc:install_indirect");
        return slot;
      });
}

Status DpmNode::RemoveIndirect(int kn_node, uint64_t key_hash) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  return shared_slots_.WithShard(key_hash, [&](auto& slots) -> Status {
    auto it = slots.find(key_hash);
    if (it == slots.end()) {
      return Status::NotFound("key not in shared mode");
    }
    const pm::PmPtr slot = it->second;
    const pm::PmPool& ro = *pool_;
    auto* word =
        reinterpret_cast<uint64_t*>(const_cast<char*>(ro.Translate(slot)));
    const uint64_t final_value =
        std::atomic_ref<uint64_t>(*word).load(std::memory_order_acquire);
    auto old = index_->Upsert(key_hash, final_value);
    DINOMO_CHECK(old.ok());
    slots.erase(it);
    alloc_->Free(slot);
    fabric_->ChargeRpc(kn_node, 16, 16, 2.0, "rpc:remove_indirect");
    return Status::Ok();
  });
}

bool DpmNode::IsShared(uint64_t key_hash) const {
  return shared_slots_.WithShard(key_hash, [&](const auto& slots) {
    return slots.count(key_hash) != 0;
  });
}

pm::PmPtr DpmNode::SharedSlot(uint64_t key_hash) const {
  return shared_slots_.WithShard(key_hash, [&](const auto& slots) {
    auto it = slots.find(key_hash);
    return it == slots.end() ? pm::kNullPmPtr : it->second;
  });
}

void DpmNode::ReleaseOwnerSegments(uint64_t owner) {
  seg_shards_.WithShard(owner, [&](OwnerSegmentMap& m) {
    auto oit = m.find(owner);
    if (oit == m.end()) return;
    // Seal any still-active segments of the (departed) owner so GC can
    // eventually reclaim them once their values are superseded.
    auto& segs = oit->second.segments;
    for (auto it = segs.begin(); it != segs.end();) {
      auto cur = it++;
      if (cur->second.state == SegmentState::kActive) {
        cur->second.state = SegmentState::kSealed;
        pool_->Store(cur->first + offsetof(SegmentPmHeader, state),
                     static_cast<uint64_t>(SegmentState::kSealed));
        pool_->Persist(cur->first, sizeof(SegmentPmHeader));
      }
      MaybeGcOwnerLocked(oit->second, cur->first, &cur->second);  // may erase
    }
  });
}

DpmStats DpmNode::Stats() const {
  DpmStats stats;
  stats.segments_allocated = segments_allocated_.value();
  stats.segments_gced = segments_gced_.value();
  uint64_t live = 0;
  seg_shards_.ForEachShard([&](const OwnerSegmentMap& m) {
    for (const auto& [owner, os] : m) live += os.segments.size();
  });
  stats.live_segments = live;
  stats.merged_batches = merge_->merged_batches();
  stats.merged_entries = merge_->merged_entries();
  stats.index_count = index_->Count();
  stats.index_epoch = index_->Epoch();
  stats.ordered_count = ordered_->Count();
  stats.ordered_version = ordered_->Version();
  return stats;
}

}  // namespace dpm
}  // namespace dinomo
