#ifndef DINOMO_CLOVER_CLOVER_H_
#define DINOMO_CLOVER_CLOVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cache/static_cache.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "kn/kn_worker.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace clover {

/// Configuration of the Clover baseline.
/// Clover runs on the default (paper testbed) link profile; its CPU costs
/// and GC threshold are constants in clover.cc.
struct CloverOptions {
  size_t pool_size = 512 * 1024 * 1024;
  /// Registry the store, its fabric/pool and its KNs publish metrics
  /// into; nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Clover (ATC'20), re-implemented from its architecture as the paper's
/// baseline (§5, "Comparison points"): a *shared-everything* DPM KVS.
///
///  * Data: per-key chains of immutable versions in DPM. An update writes
///    a new version out-of-place with a one-sided write, then links it by
///    CASing the chain tail's `next` pointer — so concurrent writers on
///    different KNs contend, and readers holding stale pointers must walk
///    the chain forward, paying extra round trips ("stale cached entries
///    require KNs to walk through a chain of versions to find the most
///    recent data").
///  * Metadata: a metadata server (MS) maps keys to chain heads. Cache
///    misses and inserts are MS RPCs that consume MS worker CPU — the
///    CPU bottleneck that caps Clover's scaling in Figure 5.
///  * KNs: shortcut-only caches; every KN can serve every key, so hot
///    keys are cached redundantly on all KNs and misses repeat per KN
///    (the falling hit ratios of Table 6).
///  * GC: an MS-side pass truncates long chains and recycles versions;
///    KNs holding freed pointers detect the key-fingerprint mismatch and
///    retry through the MS.
class CloverStore {
 public:
  explicit CloverStore(const CloverOptions& options = CloverOptions());
  ~CloverStore();

  CloverStore(const CloverStore&) = delete;
  CloverStore& operator=(const CloverStore&) = delete;

  const CloverOptions& options() const { return options_; }
  net::Fabric* fabric() { return fabric_.get(); }
  pm::PmPool* pool() { return pool_.get(); }

  // ----- Metadata-server RPCs (two-sided; consume MS CPU) -----

  /// Looks up the chain head for a key. NotFound if absent.
  Result<pm::PmPtr> MsLookup(int kn_node, uint64_t key_hash);

  /// Installs a new key with its first version. Fails with Busy if the
  /// key already exists (caller falls back to the update path).
  Status MsInsert(int kn_node, uint64_t key_hash, pm::PmPtr version);

  /// Allocates raw version space for a KN (leased in bulk, so the RPC
  /// amortizes; the returned block holds one version of `bytes` bytes).
  Result<pm::PmPtr> MsAllocateVersion(int kn_node, size_t bytes);

  // ----- Version-record layout helpers (one-sided access by KNs) -----

  /// Bytes a version with `value_len` payload occupies.
  static size_t VersionSize(size_t value_len);

  /// Writes a version record (next=0) into local buffer `buf`.
  static void EncodeVersion(char* buf, uint64_t key_hash,
                            const Slice& value);

  /// Size of the version header (next + key_hash + value_len + pad).
  static constexpr size_t kVersionHeader = 24;

  // ----- Garbage collection (MS GC thread) -----

  /// One GC pass: truncates chains longer than the threshold to their
  /// latest version and recycles the old ones. Returns versions freed.
  uint64_t RunGcOnce();

  /// MS CPU time consumed so far (us) — the DES charges this against the
  /// MS worker pool.
  double ms_cpu_us() const { return ms_cpu_us_.value(); }
  uint64_t ms_rpcs() const { return ms_rpcs_.value(); }
  uint64_t gc_freed() const { return gc_freed_.value(); }

 private:
  friend class CloverKn;

  CloverOptions options_;
  obs::MetricGroup metrics_;  // clover.ms.*
  obs::Counter& ms_rpcs_;
  obs::Counter& gc_freed_;
  obs::Gauge& ms_cpu_us_;
  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<pm::PmAllocator> alloc_;
  std::unique_ptr<net::Fabric> fabric_;

  Mutex ms_mu_;
  // key -> head version
  std::unordered_map<uint64_t, pm::PmPtr> chains_ GUARDED_BY(ms_mu_);
};

/// One Clover KVS-node worker: shortcut-only cache over the shared store.
/// Returns the same OpResult as DINOMO's workers so harnesses can drive
/// both uniformly. Any worker may serve any key (shared-everything).
class CloverKn {
 public:
  CloverKn(CloverStore* store, int fabric_node, size_t cache_bytes);

  kn::OpResult Get(const Slice& key);
  kn::OpResult Put(const Slice& key, const Slice& value);

  cache::StaticCache* cache() { return &cache_; }

  /// Cumulative hit/miss statistics (shared with the cache).
  cache::CacheStats stats() const { return cache_.stats(); }

 private:
  // Reads the version at `ptr`; fills *value, *next. IoError if the
  // record does not belong to key_hash (stale pointer into recycled
  // memory), or the failed read's error.
  Status ReadVersion(pm::PmPtr ptr, uint64_t key_hash, std::string* value,
                     pm::PmPtr* next);

  // Walks the chain from `start` to the newest version; returns its
  // pointer and value. Each hop is one round trip.
  Status WalkToLatest(pm::PmPtr start, uint64_t key_hash,
                      pm::PmPtr* latest, std::string* value);

  CloverStore* store_;
  int fabric_node_;
  cache::StaticCache cache_;
};

}  // namespace clover
}  // namespace dinomo

#endif  // DINOMO_CLOVER_CLOVER_H_
