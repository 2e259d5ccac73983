#ifndef DINOMO_KN_INDEX_CACHE_H_
#define DINOMO_KN_INDEX_CACHE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"

namespace dinomo {
namespace kn {

/// Counters mirrored into the kn.icache.* metric family (instances share
/// the metric names, so registry snapshots aggregate across workers).
struct IndexCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale = 0;
  uint64_t invalidations = 0;
};

/// Per-worker cache of index routing metadata: the packed ValuePtr a
/// remote CLHT traversal (or this worker's own append) resolved a key
/// hash to, stamped with the DPM placement generation it was learned
/// under. A hit lets the common-case read skip the dedicated index-lookup
/// fabric round and go straight to the one-sided value read (~1 RT, the
/// Outback-style compute-side metadata split).
///
/// Coherence is optimistic, in two layers:
///  * generation stamps — an entry learned under an older placement
///    generation (or a different primary node) never hits, and the
///    existing generation-bounce path (FailoverRecover / ownership
///    change) clears the cache wholesale;
///  * fingerprint verification — a hit's pointer is only trusted after
///    ReadEntryValue re-checks the key fingerprint in the fetched entry,
///    exactly the contract the shortcut cache relies on, so a pointer
///    gone stale between stamps (merge GC, racing writer) falls back to
///    the full traversal after NoteStale().
///
/// Direct-mapped, fixed size: one slot per (key_hash & mask); collisions
/// simply overwrite (newest wins). Single-threaded by the KnWorker
/// contract — no locks.
class IndexCache {
 public:
  /// `entries` is rounded up to a power of two (minimum 1). Counters
  /// publish under kn.icache.* in `registry` (nullptr = global).
  IndexCache(size_t entries, obs::MetricsRegistry* registry);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns true and sets *vp_raw iff the slot holds `key_hash` learned
  /// under placement generation `gen` on primary `node`.
  bool Lookup(uint64_t key_hash, uint64_t gen, int node, uint64_t* vp_raw);

  /// Installs (or overwrites) the slot for `key_hash`.
  void Admit(uint64_t key_hash, uint64_t gen, int node, uint64_t vp_raw);

  /// Drops `key_hash`'s slot if it holds that key (tombstones,
  /// replication changes).
  void Invalidate(uint64_t key_hash);

  /// The log cleaner moved the entry `key_hash`'s slot names on `node`
  /// from `from` to `to`: repoint the slot if it still holds `from`.
  void Repoint(uint64_t key_hash, int node, uint64_t from, uint64_t to);

  /// A hit's pointer failed fingerprint verification: count it and drop
  /// the slot so the next read goes straight to the traversal.
  void NoteStale(uint64_t key_hash);

  /// Drops every slot whose key satisfies `pred` (ownership hand-off).
  void InvalidateIf(const std::function<bool(uint64_t)>& pred);

  /// Drops everything (generation bounce / failover).
  void Clear();

  size_t capacity() const { return slots_.size(); }
  const IndexCacheStats& stats() const { return stats_; }

 private:
  struct Slot {
    uint64_t key_hash = 0;  // 0 = empty (KeyHash never produces 0)
    uint64_t vp_raw = 0;
    uint64_t gen = 0;
    int32_t node = -1;
  };

  Slot& SlotFor(uint64_t key_hash) {
    return slots_[key_hash & mask_];
  }

  std::vector<Slot> slots_;
  uint64_t mask_;
  IndexCacheStats stats_;
  obs::MetricGroup metrics_;  // kn.icache.*
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& stale_;
  obs::Counter& invalidations_;
};

}  // namespace kn
}  // namespace dinomo

#endif  // DINOMO_KN_INDEX_CACHE_H_
