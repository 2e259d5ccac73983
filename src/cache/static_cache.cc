#include "cache/static_cache.h"

#include <algorithm>

#include <vector>

#include "common/logging.h"

namespace dinomo {
namespace cache {

StaticCache::StaticCache(size_t capacity_bytes, double value_fraction,
                         obs::Scope scope)
    : capacity_(capacity_bytes),
      value_capacity_(static_cast<size_t>(capacity_bytes * value_fraction)),
      metrics_(std::move(scope)) {
  DINOMO_CHECK(value_fraction >= 0.0 && value_fraction <= 1.0);
}

LookupResult StaticCache::Lookup(uint64_t key) {
  LookupResult result;
  auto vit = values_.find(key);
  if (vit != values_.end()) {
    value_lru_.erase(vit->second.lru_it);
    value_lru_.push_front(key);
    vit->second.lru_it = value_lru_.begin();
    metrics_.value_hits.Inc();
    result.kind = HitKind::kValueHit;
    result.value = vit->second.value;
    result.ptr = vit->second.ptr;
    return result;
  }
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    shortcut_lru_.erase(sit->second.lru_it);
    shortcut_lru_.push_front(key);
    sit->second.lru_it = shortcut_lru_.begin();
    metrics_.shortcut_hits.Inc();
    result.kind = HitKind::kShortcutHit;
    result.ptr = sit->second.ptr;
    return result;
  }
  metrics_.misses.Inc();
  return result;
}

void StaticCache::AdmitOnMiss(uint64_t key, const Slice& value,
                              dpm::ValuePtr ptr, uint32_t miss_rts) {
  (void)miss_rts;  // static policies do not learn
  if (values_.count(key) != 0) {
    EraseValue(key);
  }
  EraseShortcut(key);
  if (ValueCharge(value.size()) <= value_capacity_) {
    AdmitValue(key, value, ptr);
  } else {
    AdmitShortcut(key, ptr);
  }
}

void StaticCache::OnShortcutHit(uint64_t key, const Slice& value,
                                dpm::ValuePtr ptr) {
  (void)value;
  // No promotion in static policies; refresh the pointer.
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) sit->second.ptr = ptr;
}

void StaticCache::AdmitOnWrite(uint64_t key, const Slice& value,
                               dpm::ValuePtr ptr) {
  auto vit = values_.find(key);
  if (vit != values_.end()) {
    value_charge_ -= ValueCharge(vit->second.value.size());
    vit->second.value.assign(value.data(), value.size());
    vit->second.ptr = ptr;
    value_charge_ += ValueCharge(value.size());
    value_lru_.erase(vit->second.lru_it);
    value_lru_.push_front(key);
    vit->second.lru_it = value_lru_.begin();
    if (value_charge_ > value_capacity_) EvictValuesFor(0);
    return;
  }
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    sit->second.ptr = ptr;
    return;
  }
  AdmitOnMiss(key, value, ptr, 0);
}

void StaticCache::AdmitValue(uint64_t key, const Slice& value,
                             dpm::ValuePtr ptr) {
  const size_t need = ValueCharge(value.size());
  EvictValuesFor(need);
  ValueEntry entry;
  entry.value.assign(value.data(), value.size());
  entry.ptr = ptr;
  value_lru_.push_front(key);
  entry.lru_it = value_lru_.begin();
  values_.emplace(key, std::move(entry));
  value_charge_ += need;
}

void StaticCache::AdmitShortcut(uint64_t key, dpm::ValuePtr ptr) {
  if (shortcut_capacity() < kShortcutCharge) return;  // no shortcut region
  EvictShortcutsFor(kShortcutCharge);
  ShortcutEntry entry;
  entry.ptr = ptr;
  shortcut_lru_.push_front(key);
  entry.lru_it = shortcut_lru_.begin();
  shortcuts_.emplace(key, entry);
  shortcut_charge_ += kShortcutCharge;
}

void StaticCache::EvictValuesFor(size_t need) {
  while (value_charge_ + need > value_capacity_ && !value_lru_.empty()) {
    const uint64_t victim = value_lru_.back();
    auto it = values_.find(victim);
    DINOMO_CHECK(it != values_.end());
    const dpm::ValuePtr ptr = it->second.ptr;
    EraseValue(victim);
    metrics_.demotions.Inc();
    // Demote into the shortcut region (if one exists).
    if (shortcut_capacity() >= kShortcutCharge &&
        shortcuts_.count(victim) == 0) {
      AdmitShortcut(victim, ptr);
    }
  }
}

void StaticCache::EvictShortcutsFor(size_t need) {
  while (shortcut_charge_ + need > shortcut_capacity() &&
         !shortcut_lru_.empty()) {
    EraseShortcut(shortcut_lru_.back());
    metrics_.shortcut_evictions.Inc();
  }
}

void StaticCache::EraseValue(uint64_t key) {
  auto it = values_.find(key);
  if (it == values_.end()) return;
  value_charge_ -= ValueCharge(it->second.value.size());
  value_lru_.erase(it->second.lru_it);
  values_.erase(it);
}

void StaticCache::EraseShortcut(uint64_t key) {
  auto it = shortcuts_.find(key);
  if (it == shortcuts_.end()) return;
  shortcut_charge_ -= kShortcutCharge;
  shortcut_lru_.erase(it->second.lru_it);
  shortcuts_.erase(it);
}

void StaticCache::AdmitShortcutOnly(uint64_t key, dpm::ValuePtr ptr) {
  EraseValue(key);
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    sit->second.ptr = ptr;
    return;
  }
  AdmitShortcut(key, ptr);
}

void StaticCache::Repoint(uint64_t key, dpm::ValuePtr from, dpm::ValuePtr to) {
  auto vit = values_.find(key);
  if (vit != values_.end() && vit->second.ptr == from) vit->second.ptr = to;
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end() && sit->second.ptr == from) sit->second.ptr = to;
}

void StaticCache::Invalidate(uint64_t key) {
  EraseValue(key);
  EraseShortcut(key);
}

void StaticCache::InvalidateIf(const std::function<bool(uint64_t)>& pred) {
  std::vector<uint64_t> victims;
  for (const auto& [key, entry] : values_) {
    if (pred(key)) victims.push_back(key);
  }
  for (const auto& [key, entry] : shortcuts_) {
    if (pred(key)) victims.push_back(key);
  }
  for (uint64_t key : victims) Invalidate(key);
}

void StaticCache::Clear() {
  values_.clear();
  value_lru_.clear();
  shortcuts_.clear();
  shortcut_lru_.clear();
  value_charge_ = 0;
  shortcut_charge_ = 0;
}

}  // namespace cache
}  // namespace dinomo
