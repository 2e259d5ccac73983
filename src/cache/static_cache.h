#ifndef DINOMO_CACHE_STATIC_CACHE_H_
#define DINOMO_CACHE_STATIC_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "cache/cache.h"

namespace dinomo {
namespace cache {

/// The static caching policies DAC is evaluated against in Figure 3 and
/// Table 5: `value_fraction` of the capacity is reserved for full values,
/// the rest holds shortcuts; both regions use LRU replacement ("All
/// non-DAC policies use LRU", §5.1).
///
///   value_fraction = 0.0  -> shortcut-only (Clover-style cache)
///   value_fraction = 1.0  -> value-only
///   0 < f < 1             -> static-X
///
/// Values evicted from the value region demote into the shortcut region
/// (their pointer is still known); shortcut evictions drop the key.
class StaticCache final : public KnCache {
 public:
  /// `scope` names where the cache's counters publish (default: the
  /// global registry under "cache.*"); workers pass "cache.kn<id>.w<idx>".
  StaticCache(size_t capacity_bytes, double value_fraction,
              obs::Scope scope = {"cache"});

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

  size_t charge() const override { return value_charge_ + shortcut_charge_; }
  size_t capacity() const override { return capacity_; }
  CacheStats stats() const override { return metrics_.snapshot(); }
  size_t value_entries() const override { return values_.size(); }
  size_t shortcut_entries() const override { return shortcuts_.size(); }

  size_t value_capacity() const { return value_capacity_; }
  size_t shortcut_capacity() const { return capacity_ - value_capacity_; }

 private:
  struct ValueEntry {
    std::string value;
    dpm::ValuePtr ptr;
    std::list<uint64_t>::iterator lru_it;
  };
  struct ShortcutEntry {
    dpm::ValuePtr ptr;
    std::list<uint64_t>::iterator lru_it;
  };

  void AdmitValue(uint64_t key, const Slice& value, dpm::ValuePtr ptr);
  void AdmitShortcut(uint64_t key, dpm::ValuePtr ptr);
  void EvictValuesFor(size_t need);
  void EvictShortcutsFor(size_t need);
  void EraseValue(uint64_t key);
  void EraseShortcut(uint64_t key);

  size_t capacity_;
  size_t value_capacity_;

  size_t value_charge_ = 0;
  size_t shortcut_charge_ = 0;

  std::unordered_map<uint64_t, ValueEntry> values_;
  std::list<uint64_t> value_lru_;  // front = most recent
  std::unordered_map<uint64_t, ShortcutEntry> shortcuts_;
  std::list<uint64_t> shortcut_lru_;

  CacheMetrics metrics_;
};

}  // namespace cache
}  // namespace dinomo

#endif  // DINOMO_CACHE_STATIC_CACHE_H_
