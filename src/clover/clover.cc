#include "clover/clover.h"

#include <cstring>
#include <vector>

#include "common/logging.h"
#include "dpm/log.h"

namespace dinomo {
namespace clover {

namespace {

// Version record layout. `next` holds the packed ValuePtr of the next
// (newer) version, so one one-sided read both fetches the value and tells
// the reader where (and how much) to read next.
struct VersionHeader {
  uint64_t next;      // packed ValuePtr raw, 0 = chain end
  uint64_t key_hash;
  uint32_t value_len;
  uint32_t pad;
};
static_assert(sizeof(VersionHeader) == CloverStore::kVersionHeader);

inline dpm::ValuePtr PackVersion(pm::PmPtr ptr, size_t total) {
  return dpm::ValuePtr::Pack(ptr, static_cast<uint32_t>(total));
}

// Every kLeaseBatch version allocations cost one MS RPC (space leasing).
constexpr int kLeaseBatch = 32;
// MS CPU time per metadata RPC, us.
constexpr double kMsRpcCpuUs = 12.0;
// GC truncates version chains once they exceed this many versions.
constexpr int kGcChainThreshold = 2;
// KN-side CPU model (us): a shortcut-hit read, a miss resolved through the
// MS, and a write.
constexpr double kCpuReadUs = 6.0;
constexpr double kCpuMissUs = 8.0;
constexpr double kCpuWriteUs = 7.0;

}  // namespace

CloverStore::CloverStore(const CloverOptions& options)
    : options_(options),
      metrics_(obs::Scope("clover.ms", options.metrics)),
      ms_rpcs_(metrics_.counter("rpcs")),
      gc_freed_(metrics_.counter("gc_freed")),
      ms_cpu_us_(metrics_.gauge("cpu_us")) {
  pool_ = std::make_unique<pm::PmPool>(options_.pool_size, /*crash_sim=*/false,
                                       options_.metrics);
  alloc_ = std::make_unique<pm::PmAllocator>(
      pool_.get(), pm::kCacheLineSize,
      options_.pool_size - pm::kCacheLineSize);
  fabric_ = std::make_unique<net::Fabric>(pool_.get(), net::LinkProfile(),
                                          options_.metrics);
}

CloverStore::~CloverStore() = default;

size_t CloverStore::VersionSize(size_t value_len) {
  return (kVersionHeader + value_len + 7) & ~size_t{7};
}

void CloverStore::EncodeVersion(char* buf, uint64_t key_hash,
                                const Slice& value) {
  VersionHeader hdr{};
  hdr.next = 0;
  hdr.key_hash = key_hash;
  hdr.value_len = static_cast<uint32_t>(value.size());
  std::memcpy(buf, &hdr, sizeof(hdr));
  std::memcpy(buf + sizeof(hdr), value.data(), value.size());
}

Result<pm::PmPtr> CloverStore::MsLookup(int kn_node, uint64_t key_hash) {
  fabric_->ChargeRpc(kn_node, 16, 16, kMsRpcCpuUs);
  MutexLock lock(ms_mu_);
  ms_rpcs_.Inc();
  ms_cpu_us_.Add(kMsRpcCpuUs);
  auto it = chains_.find(key_hash);
  if (it == chains_.end()) return Status::NotFound();
  return it->second;
}

Status CloverStore::MsInsert(int kn_node, uint64_t key_hash,
                             pm::PmPtr version) {
  fabric_->ChargeRpc(kn_node, 24, 8, kMsRpcCpuUs);
  MutexLock lock(ms_mu_);
  ms_rpcs_.Inc();
  ms_cpu_us_.Add(kMsRpcCpuUs);
  auto [it, inserted] = chains_.emplace(key_hash, version);
  if (!inserted) return Status::Busy("key already exists");
  return Status::Ok();
}

Result<pm::PmPtr> CloverStore::MsAllocateVersion(int kn_node, size_t bytes) {
  // Leased in batches: only every kLeaseBatch-th allocation pays the RPC.
  {
    MutexLock lock(ms_mu_);
    if (ms_rpcs_.value() % kLeaseBatch == 0) {
      fabric_->ChargeRpc(kn_node, 16, 16, kMsRpcCpuUs);
      ms_cpu_us_.Add(kMsRpcCpuUs);
    }
    ms_rpcs_.Inc();
  }
  return alloc_->Alloc(bytes);
}

uint64_t CloverStore::RunGcOnce() {
  // MS GC thread: truncate over-long chains to their newest version and
  // recycle the older ones. Stale KN shortcuts into recycled space are
  // detected by the key-fingerprint check on read.
  std::vector<std::pair<uint64_t, pm::PmPtr>> snapshot;
  {
    MutexLock lock(ms_mu_);
    snapshot.assign(chains_.begin(), chains_.end());
  }
  uint64_t freed = 0;
  for (const auto& [key, head_raw] : snapshot) {
    // Walk the chain locally (the MS runs next to the PM pool).
    std::vector<pm::PmPtr> versions;
    uint64_t cur = head_raw;
    const pm::PmPool& ro = *pool_;
    while (cur != 0) {
      dpm::ValuePtr vp(cur);
      versions.push_back(vp.offset());
      const auto* hdr = reinterpret_cast<const VersionHeader*>(
          ro.Translate(vp.offset()));
      cur = std::atomic_ref<const uint64_t>(hdr->next)
                .load(std::memory_order_acquire);
    }
    if (static_cast<int>(versions.size()) <= kGcChainThreshold) {
      continue;
    }
    // New head = the latest version; everything before it is recycled.
    const pm::PmPtr latest = versions.back();
    const auto* latest_hdr =
        reinterpret_cast<const VersionHeader*>(ro.Translate(latest));
    const dpm::ValuePtr latest_packed =
        PackVersion(latest, VersionSize(latest_hdr->value_len));
    {
      MutexLock lock(ms_mu_);
      chains_[key] = latest_packed.raw();
    }
    for (size_t i = 0; i + 1 < versions.size(); ++i) {
      // Poison the fingerprint so stale readers fail verification even
      // before the block is reused. Durability is intentionally not
      // required: after a crash the chain map is rebuilt and the block is
      // reclaimed anyway, so a resurrected fingerprint is harmless.
      auto* hdr = reinterpret_cast<VersionHeader*>(
          pool_->Translate(versions[i]));
      hdr->key_hash = ~key;  // pm-lint: allow(GC poison, volatile hint only)
      alloc_->Free(versions[i]);
      freed++;
    }
  }
  gc_freed_.Inc(freed);
  return freed;
}

// ----- CloverKn -----

CloverKn::CloverKn(CloverStore* store, int fabric_node, size_t cache_bytes)
    : store_(store),
      fabric_node_(fabric_node),
      cache_(cache_bytes, /*value_fraction=*/0.0,
             obs::Scope("cache.clover.kn" + std::to_string(fabric_node),
                        store->options().metrics)) {}

Status CloverKn::ReadVersion(pm::PmPtr raw, uint64_t key_hash,
                             std::string* value, pm::PmPtr* next) {
  dpm::ValuePtr vp(raw);
  if (vp.null() || vp.entry_size() < CloverStore::kVersionHeader) {
    return Status::IoError("stale version pointer");
  }
  // Clover fetches the chain node first and the payload second (variable
  // sizes; Table 6 measures ~2 RTs/op for Clover even on pure reads).
  VersionHeader hdr;
  DINOMO_RETURN_IF_ERROR(
      store_->fabric()->Read(fabric_node_, vp.offset(), &hdr, sizeof(hdr)));
  if (hdr.key_hash != key_hash ||
      CloverStore::VersionSize(hdr.value_len) != vp.entry_size()) {
    return Status::IoError("stale version pointer");  // recycled by GC
  }
  value->resize(hdr.value_len);
  DINOMO_RETURN_IF_ERROR(store_->fabric()->Read(
      fabric_node_, vp.offset() + CloverStore::kVersionHeader, value->data(),
      hdr.value_len));
  *next = hdr.next;
  return Status::Ok();
}

Status CloverKn::WalkToLatest(pm::PmPtr start, uint64_t key_hash,
                              pm::PmPtr* latest, std::string* value) {
  pm::PmPtr cur = start;
  for (int hops = 0; hops < 1024; ++hops) {
    pm::PmPtr next = 0;
    DINOMO_RETURN_IF_ERROR(ReadVersion(cur, key_hash, value, &next));
    if (next == 0) {
      *latest = cur;
      return Status::Ok();
    }
    cur = next;  // stale entry: walk the chain of versions (§5, "stale
                 // cached entries require KNs to walk through a chain")
  }
  return Status::Corruption("version chain absurdly long");
}

kn::OpResult CloverKn::Get(const Slice& key) {
  kn::OpResult out;
  net::ScopedOpCost scope(&out.cost);
  const uint64_t key_hash = kn::KeyHash(key);

  auto r = cache_.Lookup(key_hash);
  pm::PmPtr start = 0;
  if (r.kind == cache::HitKind::kShortcutHit) {
    out.cpu_us = kCpuReadUs;
    out.hit = cache::HitKind::kShortcutHit;
    start = r.ptr.raw();
    pm::PmPtr latest = 0;
    Status st = WalkToLatest(start, key_hash, &latest, &out.value);
    if (st.ok()) {
      cache_.OnShortcutHit(key_hash, Slice(), dpm::ValuePtr(latest));
      out.status = Status::Ok();
      return out;
    }
    cache_.Invalidate(key_hash);
  }

  // Miss (or stale pointer): the metadata server resolves the key.
  out.hit = cache::HitKind::kMiss;
  out.cpu_us = kCpuMissUs;
  auto head = store_->MsLookup(fabric_node_, key_hash);
  if (!head.ok()) {
    out.status = head.status();
    return out;
  }
  pm::PmPtr latest = 0;
  Status st = WalkToLatest(head.value(), key_hash, &latest, &out.value);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  cache_.AdmitOnMiss(key_hash, Slice(), dpm::ValuePtr(latest), 2);
  out.status = Status::Ok();
  return out;
}

kn::OpResult CloverKn::Put(const Slice& key, const Slice& value) {
  kn::OpResult out;
  net::ScopedOpCost scope(&out.cost);
  const uint64_t key_hash = kn::KeyHash(key);
  out.cpu_us = kCpuWriteUs;

  // Out-of-place: allocate + write the new version (one one-sided write).
  const size_t bytes = CloverStore::VersionSize(value.size());
  auto alloc = store_->MsAllocateVersion(fabric_node_, bytes);
  if (!alloc.ok()) {
    out.status = alloc.status();
    return out;
  }
  std::string buf(bytes, '\0');
  CloverStore::EncodeVersion(buf.data(), key_hash, value);
  Status st = store_->fabric()->Write(fabric_node_, buf.data(),
                                      alloc.value(), bytes);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  const dpm::ValuePtr new_packed = PackVersion(alloc.value(), bytes);

  // Find the tail, starting from the cached shortcut when possible.
  pm::PmPtr start = 0;
  auto r = cache_.Lookup(key_hash);
  if (r.kind == cache::HitKind::kShortcutHit) start = r.ptr.raw();

  for (int attempt = 0; attempt < 64; ++attempt) {
    if (start == 0) {
      auto head = store_->MsLookup(fabric_node_, key_hash);
      if (head.status().IsNotFound()) {
        // First version of the key: install through the MS.
        st = store_->MsInsert(fabric_node_, key_hash, new_packed.raw());
        if (st.ok()) {
          cache_.AdmitOnWrite(key_hash, Slice(), new_packed);
          out.status = Status::Ok();
          return out;
        }
        // Raced with another inserter: retry as an update.
        continue;
      }
      if (!head.ok()) {
        out.status = head.status();
        return out;
      }
      start = head.value();
    }
    pm::PmPtr latest = 0;
    std::string scratch;
    st = WalkToLatest(start, key_hash, &latest, &scratch);
    if (!st.ok()) {
      start = 0;  // stale; restart from the MS
      continue;
    }
    // Link the new version: CAS the tail's next from 0. A lost race means
    // another KN appended first — advance and retry (the synchronization
    // overhead of sharing, §2.2). A dropped CAS retries like a lost race.
    const pm::PmPtr tail_off = dpm::ValuePtr(latest).offset();
    if (store_->fabric()
            ->CompareAndSwap64(fabric_node_, tail_off, 0, new_packed.raw())
            .value_or(false)) {
      cache_.AdmitOnWrite(key_hash, Slice(), new_packed);
      out.status = Status::Ok();
      return out;
    }
    start = latest;
  }
  out.status = Status::Busy("chain append kept losing races");
  return out;
}

}  // namespace clover
}  // namespace dinomo
