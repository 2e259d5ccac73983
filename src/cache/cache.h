#ifndef DINOMO_CACHE_CACHE_H_
#define DINOMO_CACHE_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/slice.h"
#include "dpm/log.h"
#include "obs/metrics.h"

namespace dinomo {
namespace cache {

/// What a cache lookup produced (paper §3.3):
///  * value hit    — the full value is local, zero round trips;
///  * shortcut hit — only the 64-bit DPM pointer is local, one one-sided
///                   round trip fetches the value;
///  * miss         — the KN must traverse the DPM index (M round trips).
enum class HitKind { kMiss = 0, kShortcutHit = 1, kValueHit = 2 };

struct LookupResult {
  HitKind kind = HitKind::kMiss;
  /// Set on a value hit.
  std::string value;
  /// Set on value and shortcut hits: where (and how big) the DPM copy is.
  dpm::ValuePtr ptr;
};

/// Approximate DRAM charge of cache entries. A shortcut is a fixed-size
/// record (key fingerprint + packed pointer + bookkeeping); a value entry
/// additionally holds a copy of the value bytes.
inline constexpr size_t kShortcutCharge = 24;
inline constexpr size_t kValueEntryOverhead = 40;

inline size_t ValueCharge(size_t value_size) {
  return kValueEntryOverhead + value_size;
}

/// Snapshot of the cumulative statistics of one cache instance. The live
/// counts are obs::Counter objects published to the metrics registry (see
/// CacheMetrics); this plain-value view serves tests and harness code.
struct CacheStats {
  uint64_t value_hits = 0;
  uint64_t shortcut_hits = 0;
  uint64_t misses = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t shortcut_evictions = 0;

  uint64_t lookups() const { return value_hits + shortcut_hits + misses; }
  double HitRatio() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(value_hits + shortcut_hits) / n;
  }
};

/// The registry-published counters behind CacheStats. Each cache instance
/// owns one, scoped to its position in the cluster (`cache.kn1.w0.*`), so
/// the registry can aggregate hit/miss traffic across workers while each
/// instance's stats stay exact.
struct CacheMetrics {
  explicit CacheMetrics(obs::Scope scope)
      : group(std::move(scope)),
        value_hits(group.counter("value_hits")),
        shortcut_hits(group.counter("shortcut_hits")),
        misses(group.counter("misses")),
        promotions(group.counter("promotions")),
        demotions(group.counter("demotions")),
        shortcut_evictions(group.counter("shortcut_evictions")) {}

  obs::MetricGroup group;
  obs::Counter& value_hits;
  obs::Counter& shortcut_hits;
  obs::Counter& misses;
  obs::Counter& promotions;
  obs::Counter& demotions;
  obs::Counter& shortcut_evictions;

  CacheStats snapshot() const {
    CacheStats s;
    s.value_hits = value_hits.value();
    s.shortcut_hits = shortcut_hits.value();
    s.misses = misses.value();
    s.promotions = promotions.value();
    s.demotions = demotions.value();
    s.shortcut_evictions = shortcut_evictions.value();
    return s;
  }
};

/// Interface of a KN-side cache policy. One instance per KN worker thread
/// (threads own disjoint sub-partitions, so no locking is needed — the
/// same reason OP removes consistency overheads across KNs).
///
/// The owning read path drives it:
///   1. Lookup(key)                         -> value/shortcut hit or miss
///   2a. on shortcut hit, fetch value (1 RT), then OnShortcutHit(...)
///   2b. on miss, resolve remotely (M RTs), then AdmitOnMiss(...)
/// Writes call AdmitOnWrite with the value they just logged.
class KnCache {
 public:
  virtual ~KnCache() = default;

  virtual LookupResult Lookup(uint64_t key) = 0;

  /// After a miss was resolved remotely with `miss_rts` round trips,
  /// admit the key. `value` may be cached or only its shortcut, at the
  /// policy's discretion.
  virtual void AdmitOnMiss(uint64_t key, const Slice& value,
                           dpm::ValuePtr ptr, uint32_t miss_rts) = 0;

  /// After a shortcut hit fetched the value (1 RT): a promotion
  /// opportunity for adaptive policies.
  virtual void OnShortcutHit(uint64_t key, const Slice& value,
                             dpm::ValuePtr ptr) = 0;

  /// The KN wrote this key (it owns it, so its cached copy stays
  /// consistent); the new value is available for free.
  virtual void AdmitOnWrite(uint64_t key, const Slice& value,
                            dpm::ValuePtr ptr) = 0;

  /// Admits (or refreshes) a key as a shortcut only, never caching the
  /// value bytes. Used for selectively-replicated keys, whose values must
  /// not be cached at KNs ("our use of indirect pointers in accessing hot
  /// keys restricts KNs from caching values", §5.3).
  virtual void AdmitShortcutOnly(uint64_t key, dpm::ValuePtr ptr) = 0;

  /// Drops one key (de-replication invalidation).
  virtual void Invalidate(uint64_t key) = 0;

  /// The DPM's log cleaner moved `key`'s entry from `from` to a verbatim
  /// copy at `to`: a cached pointer still equal to `from` becomes `to`.
  /// Anything else (a newer write, no entry) is left alone.
  virtual void Repoint(uint64_t key, dpm::ValuePtr from, dpm::ValuePtr to) = 0;

  /// Drops every key for which `pred` returns true. Reconfiguration uses
  /// this so a KN only empties the partitions it actually lost (§3.4).
  virtual void InvalidateIf(const std::function<bool(uint64_t)>& pred) = 0;

  /// Drops everything (ownership hand-off empties the cache, §3.4).
  virtual void Clear() = 0;

  /// Bytes currently charged / capacity.
  virtual size_t charge() const = 0;
  virtual size_t capacity() const = 0;

  /// Cumulative since construction; counts never decrease.
  virtual CacheStats stats() const = 0;

  /// Number of value entries and shortcut entries (diagnostics).
  virtual size_t value_entries() const = 0;
  virtual size_t shortcut_entries() const = 0;
};

}  // namespace cache
}  // namespace dinomo

#endif  // DINOMO_CACHE_CACHE_H_
