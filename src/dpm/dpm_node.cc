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
      log_puts_(metrics_.counter("log.puts")),
      clean_victims_(metrics_.counter("clean.victims")),
      clean_relocated_(metrics_.counter("clean.relocated")),
      clean_lost_(metrics_.counter("clean.lost")) {
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
      clean_victims_(metrics_.counter("clean.victims")),
      clean_relocated_(metrics_.counter("clean.relocated")),
      clean_lost_(metrics_.counter("clean.lost")),
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

  // Rebuild the shared-key directory from the indirect markers the index
  // still carries (the slots themselves are persistent). Replay and the
  // cleaner both route a shared key's versions through its slot, so the
  // directory must be whole before either runs.
  index_->ForEach([&](uint64_t key_hash, pm::PmPtr value) {
    ValuePtr vp(value);
    if (vp.indirect()) {
      shared_slots_.WithShard(key_hash, [&](auto& m) {
        m[key_hash] = vp.offset();
      });
    }
  });

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
    if (info.owner == kCleanerOwner && info.state == SegmentState::kActive) {
      // The cleaner opens a fresh segment after a restart; this one
      // becomes an ordinary candidate.
      info.state = SegmentState::kSealed;
      info.sealed_at = seal_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
      pool_->Store(base + offsetof(SegmentPmHeader, state),
                   static_cast<uint64_t>(SegmentState::kSealed));
      pool_->Persist(base, sizeof(SegmentPmHeader));
    }
    // Its block came from the pre-crash allocator: adopt it, so a segment
    // that dies after recovery is freed for reuse like any other.
    alloc_->Adopt(base, options_.segment_size);
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
  RecountLiveEntries();
  // Segments that were worth cleaning before the crash stay so: let the
  // first merge after recovery queue a pass.
  clean_wanted_.store(!options_.partitioned_metadata,
                      std::memory_order_release);
  return Status::Ok();
}

DpmNode::~DpmNode() = default;

Result<pm::PmPtr> DpmNode::NewSegment(uint64_t owner, size_t merged_bytes) {
  auto seg = alloc_->Alloc(options_.segment_size);
  if (!seg.ok()) return seg.status();
  const pm::PmPtr base = seg.value();

  SegmentPmHeader hdr{};
  hdr.capacity = options_.segment_size - kSegmentHeaderSize;
  hdr.owner = owner;
  hdr.state = static_cast<uint64_t>(SegmentState::kActive);
  hdr.merged_bytes = merged_bytes;
  pool_->Store(base, hdr);
  pool_->Persist(base, sizeof(SegmentPmHeader));

  Status listed = DirectoryAdd(base, owner);
  if (!listed.ok()) {
    alloc_->Free(base);
    return listed;
  }
  SegmentInfo info;
  info.owner = owner;
  info.gen = seg_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
  info.merged_bytes = merged_bytes;
  RegisterSegment(base, info);
  segments_allocated_.Inc();
  return base;
}

Result<pm::PmPtr> DpmNode::AllocateSegment(int kn_node, uint64_t owner) {
  DINOMO_RETURN_IF_ERROR(RpcFault(kn_node));
  auto base = NewSegment(owner, /*merged_bytes=*/0);
  if (!base.ok()) return base.status();
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
    SealLocked(segment, &sit->second);
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

void DpmNode::SealLocked(pm::PmPtr base, SegmentInfo* info) {
  if (info->state != SegmentState::kSealed) {
    info->sealed_at = seal_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  info->state = SegmentState::kSealed;
  pool_->Store(base + offsetof(SegmentPmHeader, state),
               static_cast<uint64_t>(SegmentState::kSealed));
  pool_->Persist(base, sizeof(SegmentPmHeader));
}

namespace {
// A cleaning candidate: sealed, fully merged, not being cleaned, and at
// least 40% of its puts superseded. (At one half, cold copies parked in
// 50-100%-live segments kept hostbench update_mix's space amplification
// growing with run length; at 40% it holds steady.) Fully dead segments
// never get here; GC frees them outright.
template <typename Info>
bool Cleanable(const Info& info) {
  return info.state == SegmentState::kSealed && !info.cleaning &&
         info.unmerged_batches == 0 && info.puts_total > 0 &&
         5 * info.puts_invalid >= 2 * info.puts_total;
}
}  // namespace

void DpmNode::MaybeGcOwnerLocked(OwnerSegments& os, pm::PmPtr base,
                                 SegmentInfo* info) {
  if (info->state != SegmentState::kSealed || info->cleaning) return;
  if (info->unmerged_batches != 0) return;
  if (info->puts_invalid < info->puts_total) {
    // Garbage, not pool pressure, triggers cleaning.
    if (Cleanable(*info) && !options_.partitioned_metadata) {
      clean_wanted_.store(true, std::memory_order_release);
    }
    return;
  }
  // Every value in the segment is superseded and everything merged:
  // reclaim (paper §4, per-log-segment valid/invalid counters).
  FreeSegmentLocked(os, base);
}

void DpmNode::FreeSegmentLocked(OwnerSegments& os, pm::PmPtr base) {
  os.segments.erase(base);
  {
    WriterLock lock(seg_index_mu_);
    seg_index_.erase(base);
  }
  DirectoryRemove(base);
  // Last: once the allocator has the block, a segment of another owner
  // (another stripe) may be registered at the same base, and erasing by
  // base after that would unregister it.
  alloc_->Free(base);
  segments_gced_.Inc();
}

// ----- Log cleaning --------------------------------------------------------

bool DpmNode::ClaimVictim(Victim* v, bool* more) {
  // LFS cost-benefit: benefit/cost = (1 - u) * age / (1 + u), with u the
  // live fraction and age in segments sealed since (deterministic, so the
  // virtual-time sim replays the same choices). Ties go to the lowest base.
  const uint64_t now = seal_clock_.load(std::memory_order_relaxed);
  Victim best;
  double best_score = -1.0;
  int candidates = 0;
  seg_shards_.ForEachShard([&](const OwnerSegmentMap& m) {
    for (const auto& [owner, os] : m) {
      for (const auto& [base, info] : os.segments) {
        if (!Cleanable(info)) continue;
        candidates++;
        const double u = 1.0 - static_cast<double>(info.puts_invalid) /
                                   static_cast<double>(info.puts_total);
        const double age = static_cast<double>(now - info.sealed_at) + 1.0;
        const double score = (1.0 - u) * age / (1.0 + u);
        if (score > best_score || (score == best_score && base < best.base)) {
          best_score = score;
          best = Victim{base, owner, info.gen, 0};
        }
      }
    }
  });
  *more = candidates > 1;
  if (candidates == 0) return false;
  return seg_shards_.WithShard(best.owner, [&](OwnerSegmentMap& m) {
    auto oit = m.find(best.owner);
    if (oit == m.end()) return false;
    auto sit = oit->second.segments.find(best.base);
    if (sit == oit->second.segments.end() || sit->second.gen != best.gen ||
        !Cleanable(sit->second)) {
      *more = true;  // it changed under us; look again next pass
      return false;
    }
    sit->second.cleaning = true;
    best.used_bytes = sit->second.used_bytes;
    *v = best;
    return true;
  });
}

bool DpmNode::Referenced(uint64_t key_hash, uint64_t okey,
                         ValuePtr packed) const {
  const pm::PmPtr slot = SharedSlot(key_hash);
  if (slot != pm::kNullPmPtr) {
    const pm::PmPool& ro = *pool_;
    auto* word =
        reinterpret_cast<uint64_t*>(const_cast<char*>(ro.Translate(slot)));
    if (std::atomic_ref<uint64_t>(*word).load(std::memory_order_acquire) ==
        packed.raw()) {
      return true;
    }
  } else if (index_->Lookup(key_hash) == packed.raw()) {
    return true;
  }
  // The skiplist can lag the CLHT for a moment (a merge between its two
  // upserts, a crash between a relocation's two swaps): check it too.
  return ordered_->Lookup(okey) == packed.raw();
}

uint64_t DpmNode::PublishMoves() {
  if (clean_staged_.empty()) return 0;
  // 1. The copies are durable before anything can point at them.
  pool_->Persist(clean_dest_ + kSegmentHeaderSize + clean_dest_used_,
                 clean_staged_bytes_);
  clean_dest_used_ += clean_staged_bytes_;
  clean_staged_bytes_ = 0;
  // 2. Counted as puts of the cleaner segment, durably, before a merge
  // can supersede one: GC must never see more superseded than written.
  const uint64_t staged = clean_staged_.size();
  seg_shards_.WithShard(kCleanerOwner, [&](OwnerSegmentMap& m) {
    SegmentInfo& info = m[kCleanerOwner].segments.at(clean_dest_);
    info.used_bytes = clean_dest_used_;
    info.puts_total += staged;
    pool_->Store(clean_dest_ + offsetof(SegmentPmHeader, used_bytes),
                 info.used_bytes);
    pool_->Store(clean_dest_ + offsetof(SegmentPmHeader, puts_total),
                 info.puts_total);
    pool_->Persist(clean_dest_, sizeof(SegmentPmHeader));
  });
  // 3. Publish each move where the old pointer is still current. The
  // key's shared-slot stripe holds off InstallIndirect/RemoveIndirect; a
  // merge that got there first keeps its newer value.
  uint64_t won = 0;   // moves at least one index took
  uint64_t sole = 0;  // of those, moves the CLHT or a slot took
  for (const StagedMove& mv : clean_staged_) {
    bool direct = false;  // the CLHT took it: KN caches may repoint
    bool slot = false;    // the key's indirect slot took it
    bool listed = false;  // the skiplist took it
    shared_slots_.WithShard(mv.key_hash, [&](const auto& slots) {
      auto it = slots.find(mv.key_hash);
      if (it != slots.end()) {
        slot = pool_->CompareExchange64(it->second, mv.from.raw(),
                                        mv.to.raw());
        if (slot) pool_->PersistPublish(it->second, sizeof(uint64_t));
      } else {
        direct = index_->ReplaceIf(mv.key_hash, mv.from.raw(), mv.to.raw());
      }
      listed = ordered_->ReplaceIf(mv.okey, mv.from.raw(), mv.to.raw());
    });
    // A skiplist-only move means a merge already swapped the CLHT off the
    // old entry: that merge charges it, so it is not counted here.
    if (direct || slot) sole++;
    if (direct || slot || listed) won++;
    if (direct) {
      clean_notices_.push_back(
          Relocation{mv.key_hash, mv.from.raw(), mv.to.raw()});
    }
  }
  clean_staged_.clear();
  clean_relocated_.Inc(won);
  if (won < staged) {
    // A copy no index took is dead on arrival.
    clean_lost_.Inc(staged - won);
    seg_shards_.WithShard(kCleanerOwner, [&](OwnerSegmentMap& m) {
      m[kCleanerOwner].segments.at(clean_dest_).puts_invalid +=
          staged - won;
    });
  }
  return sole;
}

Status DpmNode::RollCleanerSegment() {
  if (clean_dest_ != pm::kNullPmPtr) {
    seg_shards_.WithShard(kCleanerOwner, [&](OwnerSegmentMap& m) {
      OwnerSegments& os = m[kCleanerOwner];
      SegmentInfo* info = &os.segments.at(clean_dest_);
      SealLocked(clean_dest_, info);
      MaybeGcOwnerLocked(os, clean_dest_, info);  // may all be superseded
    });
    clean_dest_ = pm::kNullPmPtr;
    clean_dest_used_ = 0;
  }
  // Born merged through its whole capacity: recovery never replays it,
  // so a copy can never be re-applied over a newer merge.
  auto seg = NewSegment(kCleanerOwner,
                        options_.segment_size - kSegmentHeaderSize);
  if (!seg.ok()) return seg.status();
  clean_dest_ = seg.value();
  return Status::Ok();
}

double DpmNode::CleanPass() {
  if (options_.partitioned_metadata) return 0.0;
  Victim v;
  bool more = false;
  if (!ClaimVictim(&v, &more)) {
    if (more) clean_wanted_.store(true, std::memory_order_release);
    return 0.0;
  }
  const MergeProfile& profile = merge_->profile();
  const size_t capacity = options_.segment_size - kSegmentHeaderSize;
  const pm::PmPool& ro = *pool_;
  // The merge verified every entry's CRC, and the copies keep them: walk
  // the victim's structure only.
  LogIterator it(ro.Translate(v.base + kSegmentHeaderSize), v.used_bytes,
                 /*verify_crc=*/false);
  LogRecord rec;
  size_t prev = 0;
  uint64_t moved = 0;  // victim entries no merge will charge (PublishMoves)
  Status st;
  double cpu_us = 0.0;
  while (st.ok() && it.Next(&rec)) {
    const pm::PmPtr from = v.base + kSegmentHeaderSize + prev;
    const size_t size = it.offset() - prev;
    prev = it.offset();
    cpu_us += profile.per_entry_us;  // the liveness lookups
    // A tombstone in a merged segment is never replayed: drop it.
    if (rec.op != LogOp::kPut) continue;
    const uint64_t okey =
        index::PmSkipList::OrderedKey(rec.key.data(), rec.key.size());
    const ValuePtr packed = ValuePtr::Pack(from, static_cast<uint32_t>(size));
    if (!Referenced(rec.key_hash, okey, packed)) continue;
    if (clean_dest_ == pm::kNullPmPtr ||
        clean_dest_used_ + clean_staged_bytes_ + size > capacity) {
      moved += PublishMoves();
      st = RollCleanerSegment();
      if (!st.ok()) break;
    }
    // Verbatim copy: an encoded entry names no address, so its CRC and
    // commit marker stay valid at the new home.
    const pm::PmPtr to =
        clean_dest_ + kSegmentHeaderSize + clean_dest_used_ +
        clean_staged_bytes_;
    pool_->StoreBytes(to, ro.Translate(from), size);
    clean_staged_.push_back(StagedMove{
        rec.key_hash, okey, packed,
        ValuePtr::Pack(to, static_cast<uint32_t>(size))});
    clean_staged_bytes_ += size;
    cpu_us += profile.per_entry_us +
              static_cast<double>(size) * profile.per_byte_us;
  }
  moved += PublishMoves();
  if (st.ok()) st = it.status();
  // Notices go out before the victim's block can be reused (see
  // MergeService::NotifyRelocations).
  if (!clean_notices_.empty()) {
    merge_->NotifyRelocations(std::exchange(clean_notices_, {}));
  }

  // Free the victim only now that every move is durable, and once no
  // merge that could still charge one of its entries is applying: after
  // the wait, NoteSuperseded can no longer resolve a pointer into it (and
  // so never into a segment that reuses its base). A pass cut short (no
  // room for a cleaner segment, an undecodable entry) hands the victim
  // back with the entries it moved for good counted as superseded.
  if (st.ok()) merge_->WaitForExecutingMerges();
  seg_shards_.WithShard(v.owner, [&](OwnerSegmentMap& m) {
    OwnerSegments& os = m.at(v.owner);
    SegmentInfo* info = &os.segments.at(v.base);
    if (st.ok()) {
      FreeSegmentLocked(os, v.base);
      clean_victims_.Inc();
      return;
    }
    info->cleaning = false;
    info->puts_invalid += moved;
    MaybeGcOwnerLocked(os, v.base, info);
  });
  if (st.ok() && more) clean_wanted_.store(true, std::memory_order_release);
  return cpu_us;
}

void DpmNode::RecountLiveEntries() {
  // A header's invalid count is persisted only with its segment's merge
  // progress: a supersession after the last merged batch, and every one
  // charged to a cleaner segment, lived in DRAM. Left as read, a segment
  // that was mostly dead would look live for good. Recount each merged
  // segment against the recovered indexes instead (an entry either index
  // or a slot still names is live; the rest are dead).
  struct Walk {
    pm::PmPtr base;
    SegRef ref;
    size_t used_bytes;
  };
  std::vector<Walk> walks;
  seg_shards_.ForEachShard([&](const OwnerSegmentMap& m) {
    for (const auto& [owner, os] : m) {
      for (const auto& [base, info] : os.segments) {
        if (info.unmerged_batches == 0 && !info.cleaning) {
          walks.push_back(
              Walk{base, SegRef{owner, info.gen}, info.used_bytes});
        }
      }
    }
  });
  const pm::PmPool& ro = *pool_;
  for (const Walk& w : walks) {
    LogIterator it(ro.Translate(w.base + kSegmentHeaderSize), w.used_bytes,
                   /*verify_crc=*/false);
    LogRecord rec;
    size_t prev = 0;
    uint64_t puts = 0;
    uint64_t live = 0;
    while (it.Next(&rec)) {
      const pm::PmPtr at = w.base + kSegmentHeaderSize + prev;
      const size_t size = it.offset() - prev;
      prev = it.offset();
      if (rec.op != LogOp::kPut) continue;
      puts++;
      const uint64_t okey =
          index::PmSkipList::OrderedKey(rec.key.data(), rec.key.size());
      if (Referenced(rec.key_hash, okey,
                     ValuePtr::Pack(at, static_cast<uint32_t>(size)))) {
        live++;
      }
    }
    // A walk that stopped short keeps the header's (lower) count.
    if (!it.status().ok() || it.offset() != w.used_bytes) continue;
    seg_shards_.WithShard(w.ref.owner, [&](OwnerSegmentMap& m) {
      OwnerSegments& os = m.at(w.ref.owner);
      auto sit = os.segments.find(w.base);
      if (sit == os.segments.end() || sit->second.gen != w.ref.gen) return;
      sit->second.puts_total = puts;
      sit->second.puts_invalid = puts - live;
      MaybeGcOwnerLocked(os, w.base, &sit->second);  // may free it
    });
  }
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
        SealLocked(cur->first, &cur->second);
      }
      MaybeGcOwnerLocked(oit->second, cur->first, &cur->second);  // may erase
    }
  });
}

DpmStats DpmNode::Stats() const {
  DpmStats stats;
  stats.segments_allocated = segments_allocated_.value();
  stats.segments_gced = segments_gced_.value();
  stats.clean_victims = clean_victims_.value();
  stats.clean_relocated = clean_relocated_.value();
  stats.clean_lost = clean_lost_.value();
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
