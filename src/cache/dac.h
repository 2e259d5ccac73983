#ifndef DINOMO_CACHE_DAC_H_
#define DINOMO_CACHE_DAC_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>

#include "cache/cache.h"

namespace dinomo {
namespace cache {

/// Disaggregated Adaptive Caching (paper §3.3, Table 3, Eq. 1).
///
/// The cache holds two kinds of entries — full values and shortcuts — and
/// continuously adapts the split between them to the workload and the
/// (reconfiguration-dependent) cache size:
///
///  * BEGIN   — with spare space, cache values.
///  * MISS    — admit the key as a shortcut; make space by demoting the
///              least-recently-used value to a shortcut, or by evicting
///              the least-frequently-used shortcut.
///  * HIT     — on a shortcut hit, consider promoting it to a value:
///              promote iff  Hits(P) * avg_shortcut_hit_RTs(=1)  >=
///              sum_{i=1..N} Hits(lfu_i) * avg_cache_miss_RTs, where the
///              lfu_i are the N least-frequently-used shortcuts that would
///              have to be evicted to fit the value (Eq. 1).
///  * The average miss cost is a moving average of observed miss round
///    trips — it is measured, not assumed, exactly as the paper requires.
///
/// Values are evicted (demoted) by recency; shortcuts by frequency.
/// Promoted shortcuts inherit their access counts (§4, "DAC").
class DacCache final : public KnCache {
 public:
  /// `scope` names where the cache's counters publish (default: the
  /// global registry under "cache.*"); workers pass "cache.kn<id>.w<idx>".
  explicit DacCache(size_t capacity_bytes, obs::Scope scope = {"cache"});

  LookupResult Lookup(uint64_t key) override;
  void AdmitOnMiss(uint64_t key, const Slice& value, dpm::ValuePtr ptr,
                   uint32_t miss_rts) override;
  void OnShortcutHit(uint64_t key, const Slice& value,
                     dpm::ValuePtr ptr) override;
  void AdmitOnWrite(uint64_t key, const Slice& value,
                    dpm::ValuePtr ptr) override;
  void AdmitShortcutOnly(uint64_t key, dpm::ValuePtr ptr) override;
  void Invalidate(uint64_t key) override;
  void Repoint(uint64_t key, dpm::ValuePtr from, dpm::ValuePtr to) override;
  void InvalidateIf(const std::function<bool(uint64_t)>& pred) override;
  void Clear() override;

  size_t charge() const override { return charge_; }
  size_t capacity() const override { return capacity_; }
  CacheStats stats() const override { return metrics_.snapshot(); }
  size_t value_entries() const override { return values_.size(); }
  size_t shortcut_entries() const override { return shortcuts_.size(); }

  /// Current moving-average miss cost in round trips (diagnostics).
  double avg_miss_rts() const { return avg_miss_rts_; }

 private:
  struct ValueEntry {
    std::string value;
    dpm::ValuePtr ptr;
    uint64_t hits = 0;
    std::list<uint64_t>::iterator lru_it;  // position in lru_
  };

  struct ShortcutEntry {
    dpm::ValuePtr ptr;
    uint64_t hits = 0;
    std::multimap<uint64_t, uint64_t>::iterator lfu_it;  // hits -> key
  };

  void TouchValue(uint64_t key, ValueEntry* entry);
  void BumpShortcut(uint64_t key, ShortcutEntry* entry);

  /// Frees space until `need` bytes fit. Never touches `protect_key`.
  /// Miss admissions demote LRU values first (Table 3, MISS row);
  /// promotions evict LFU shortcuts first — that is the trade Eq. 1
  /// priced. Returns false if the capacity cannot accommodate `need`.
  bool MakeSpace(size_t need, uint64_t protect_key,
                 bool prefer_shortcut_eviction = false);

  /// Inserts a shortcut entry (no space check; caller made space).
  void InsertShortcutLocked(uint64_t key, dpm::ValuePtr ptr, uint64_t hits);
  /// Inserts a value entry (no space check).
  void InsertValueLocked(uint64_t key, const Slice& value, dpm::ValuePtr ptr,
                         uint64_t hits);
  void EraseValue(uint64_t key);
  void EraseShortcut(uint64_t key);

  /// Demotes the LRU value to a shortcut. Returns bytes freed (0 if no
  /// values exist or only `protect_key` does).
  size_t DemoteLruValue(uint64_t protect_key);
  /// Evicts the LFU shortcut. Returns bytes freed.
  size_t EvictLfuShortcut(uint64_t protect_key);

  /// Eq. 1: should `key` (a shortcut with `hits` accesses) be promoted to
  /// a value of `value_size` bytes?
  bool ShouldPromote(uint64_t key, uint64_t hits, size_t value_size);

  void UpdateMissAverage(uint32_t miss_rts);

  size_t capacity_;
  size_t charge_ = 0;

  std::unordered_map<uint64_t, ValueEntry> values_;
  std::list<uint64_t> lru_;  // front = most recent
  std::unordered_map<uint64_t, ShortcutEntry> shortcuts_;
  std::multimap<uint64_t, uint64_t> lfu_;  // hits -> key, begin() = coldest

  double avg_miss_rts_ = 2.0;  // prior: one bucket hop + one value read
  CacheMetrics metrics_;
};

}  // namespace cache
}  // namespace dinomo

#endif  // DINOMO_CACHE_DAC_H_
