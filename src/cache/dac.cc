#include "cache/dac.h"

#include <cmath>

#include <vector>

#include "common/logging.h"

namespace dinomo {
namespace cache {

namespace {
// Exponential moving-average factor for the measured miss cost.
constexpr double kMissEmaAlpha = 0.05;
}  // namespace

DacCache::DacCache(size_t capacity_bytes, obs::Scope scope)
    : capacity_(capacity_bytes), metrics_(std::move(scope)) {}

LookupResult DacCache::Lookup(uint64_t key) {
  LookupResult result;
  auto vit = values_.find(key);
  if (vit != values_.end()) {
    TouchValue(key, &vit->second);
    vit->second.hits++;
    metrics_.value_hits.Inc();
    result.kind = HitKind::kValueHit;
    result.value = vit->second.value;
    result.ptr = vit->second.ptr;
    return result;
  }
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    BumpShortcut(key, &sit->second);
    metrics_.shortcut_hits.Inc();
    result.kind = HitKind::kShortcutHit;
    result.ptr = sit->second.ptr;
    return result;
  }
  metrics_.misses.Inc();
  return result;
}

void DacCache::UpdateMissAverage(uint32_t miss_rts) {
  avg_miss_rts_ =
      (1.0 - kMissEmaAlpha) * avg_miss_rts_ + kMissEmaAlpha * miss_rts;
}

void DacCache::AdmitOnMiss(uint64_t key, const Slice& value,
                           dpm::ValuePtr ptr, uint32_t miss_rts) {
  UpdateMissAverage(miss_rts);

  // Already present (e.g. admitted by a racing write)? Refresh.
  auto vit = values_.find(key);
  if (vit != values_.end()) {
    charge_ -= ValueCharge(vit->second.value.size());
    vit->second.value.assign(value.data(), value.size());
    vit->second.ptr = ptr;
    charge_ += ValueCharge(value.size());
    return;
  }
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    sit->second.ptr = ptr;
    return;
  }

  // BEGIN rule: while there is spare space, cache the value itself.
  if (charge_ + ValueCharge(value.size()) <= capacity_) {
    InsertValueLocked(key, value, ptr, /*hits=*/1);
    return;
  }
  // Steady state: admit the shortcut, making space by demoting an LRU
  // value or evicting the LFU shortcut (Table 3, MISS row).
  if (!MakeSpace(kShortcutCharge, key)) return;  // pathological capacity
  InsertShortcutLocked(key, ptr, /*hits=*/1);
}

void DacCache::OnShortcutHit(uint64_t key, const Slice& value,
                             dpm::ValuePtr ptr) {
  auto sit = shortcuts_.find(key);
  if (sit == shortcuts_.end()) return;
  const uint64_t hits = sit->second.hits;

  // Free-space promotion: value caching is an optimization applied
  // whenever it costs nothing.
  const size_t extra = ValueCharge(value.size()) - kShortcutCharge;
  if (charge_ + extra <= capacity_ ||
      ShouldPromote(key, hits, value.size())) {
    if (charge_ + extra > capacity_ &&
        !MakeSpace(ValueCharge(value.size()) - kShortcutCharge, key,
                   /*prefer_shortcut_eviction=*/true)) {
      sit->second.ptr = ptr;
      return;
    }
    EraseShortcut(key);
    InsertValueLocked(key, value, ptr, hits);  // inherits access history
    metrics_.promotions.Inc();
    return;
  }
  sit->second.ptr = ptr;
}

void DacCache::AdmitOnWrite(uint64_t key, const Slice& value,
                            dpm::ValuePtr ptr) {
  auto vit = values_.find(key);
  if (vit != values_.end()) {
    // The owner wrote a new version; its cached copy stays authoritative.
    charge_ -= ValueCharge(vit->second.value.size());
    vit->second.value.assign(value.data(), value.size());
    vit->second.ptr = ptr;
    vit->second.hits++;
    charge_ += ValueCharge(value.size());
    TouchValue(key, &vit->second);
    if (charge_ > capacity_) MakeSpace(0, key);
    return;
  }
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    sit->second.ptr = ptr;
    BumpShortcut(key, &sit->second);
    return;
  }
  // New key: same admission rule as a miss — values while space lasts,
  // otherwise the shortcut (which we get for free: the KN knows the log
  // address it just wrote, §4 "DPM log segments").
  if (charge_ + ValueCharge(value.size()) <= capacity_) {
    InsertValueLocked(key, value, ptr, 1);
    return;
  }
  if (!MakeSpace(kShortcutCharge, key)) return;
  InsertShortcutLocked(key, ptr, 1);
}

void DacCache::AdmitShortcutOnly(uint64_t key, dpm::ValuePtr ptr) {
  EraseValue(key);  // replicated keys must not hold value bytes
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end()) {
    sit->second.ptr = ptr;
    return;
  }
  if (!MakeSpace(kShortcutCharge, key)) return;
  InsertShortcutLocked(key, ptr, 1);
}

void DacCache::Repoint(uint64_t key, dpm::ValuePtr from, dpm::ValuePtr to) {
  auto vit = values_.find(key);
  if (vit != values_.end() && vit->second.ptr == from) vit->second.ptr = to;
  auto sit = shortcuts_.find(key);
  if (sit != shortcuts_.end() && sit->second.ptr == from) sit->second.ptr = to;
}

void DacCache::Invalidate(uint64_t key) {
  EraseValue(key);
  EraseShortcut(key);
}

void DacCache::InvalidateIf(const std::function<bool(uint64_t)>& pred) {
  std::vector<uint64_t> victims;
  for (const auto& [key, entry] : values_) {
    if (pred(key)) victims.push_back(key);
  }
  for (const auto& [key, entry] : shortcuts_) {
    if (pred(key)) victims.push_back(key);
  }
  for (uint64_t key : victims) Invalidate(key);
}

void DacCache::Clear() {
  values_.clear();
  lru_.clear();
  shortcuts_.clear();
  lfu_.clear();
  charge_ = 0;
}

void DacCache::TouchValue(uint64_t key, ValueEntry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(key);
  entry->lru_it = lru_.begin();
}

void DacCache::BumpShortcut(uint64_t key, ShortcutEntry* entry) {
  entry->hits++;
  lfu_.erase(entry->lfu_it);
  entry->lfu_it = lfu_.emplace(entry->hits, key);
}

bool DacCache::MakeSpace(size_t need, uint64_t protect_key,
                         bool prefer_shortcut_eviction) {
  while (charge_ + need > capacity_) {
    size_t freed = 0;
    if (prefer_shortcut_eviction) {
      // Promotion path: Eq. 1 justified evicting the N coldest shortcuts,
      // not cannibalizing other cached values.
      freed = EvictLfuShortcut(protect_key);
      if (freed == 0) freed = DemoteLruValue(protect_key);
    } else {
      // Miss path (Table 3): demote the LRU value, else evict the LFU
      // shortcut.
      freed = DemoteLruValue(protect_key);
      if (freed == 0) freed = EvictLfuShortcut(protect_key);
    }
    if (freed == 0) return false;
  }
  return true;
}

size_t DacCache::DemoteLruValue(uint64_t protect_key) {
  if (values_.empty()) return 0;
  // Walk from the LRU end, skipping the protected key.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const uint64_t victim = *it;
    if (victim == protect_key) continue;
    auto vit = values_.find(victim);
    DINOMO_CHECK(vit != values_.end());
    const dpm::ValuePtr ptr = vit->second.ptr;
    const uint64_t hits = vit->second.hits;
    const size_t freed = ValueCharge(vit->second.value.size());
    EraseValue(victim);
    // Demoted values stay cached as shortcuts (§4 "DAC"): the pointer is
    // still known, only the bytes are dropped.
    InsertShortcutLocked(victim, ptr, hits);
    metrics_.demotions.Inc();
    return freed - kShortcutCharge;
  }
  return 0;
}

size_t DacCache::EvictLfuShortcut(uint64_t protect_key) {
  for (auto it = lfu_.begin(); it != lfu_.end(); ++it) {
    const uint64_t victim = it->second;
    if (victim == protect_key) continue;
    EraseShortcut(victim);
    metrics_.shortcut_evictions.Inc();
    return kShortcutCharge;
  }
  return 0;
}

bool DacCache::ShouldPromote(uint64_t key, uint64_t hits, size_t value_size) {
  // How many LFU shortcuts must go to fit the value bytes?
  const size_t extra = ValueCharge(value_size) - kShortcutCharge;
  const size_t n =
      (extra + kShortcutCharge - 1) / kShortcutCharge;  // ceil division
  uint64_t lfu_hits = 0;
  size_t counted = 0;
  for (auto it = lfu_.begin(); it != lfu_.end() && counted < n; ++it) {
    if (it->second == key) continue;
    lfu_hits += it->first;
    counted++;
  }
  if (counted < n) {
    // Not enough shortcuts to evict — space would have to come from
    // values, which promotion must not cannibalize.
    return false;
  }
  // Eq. 1: Hits(P) * avg_shortcut_hit_RTs(=1) >= sum Hits(i) * avg_miss.
  return static_cast<double>(hits) >=
         static_cast<double>(lfu_hits) * avg_miss_rts_;
}

void DacCache::InsertShortcutLocked(uint64_t key, dpm::ValuePtr ptr,
                                    uint64_t hits) {
  ShortcutEntry entry;
  entry.ptr = ptr;
  entry.hits = hits;
  entry.lfu_it = lfu_.emplace(hits, key);
  shortcuts_.emplace(key, entry);
  charge_ += kShortcutCharge;
}

void DacCache::InsertValueLocked(uint64_t key, const Slice& value,
                                 dpm::ValuePtr ptr, uint64_t hits) {
  ValueEntry entry;
  entry.value.assign(value.data(), value.size());
  entry.ptr = ptr;
  entry.hits = hits;
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  values_.emplace(key, std::move(entry));
  charge_ += ValueCharge(value.size());
}

void DacCache::EraseValue(uint64_t key) {
  auto it = values_.find(key);
  if (it == values_.end()) return;
  charge_ -= ValueCharge(it->second.value.size());
  lru_.erase(it->second.lru_it);
  values_.erase(it);
}

void DacCache::EraseShortcut(uint64_t key) {
  auto it = shortcuts_.find(key);
  if (it == shortcuts_.end()) return;
  charge_ -= kShortcutCharge;
  lfu_.erase(it->second.lfu_it);
  shortcuts_.erase(it);
}

}  // namespace cache
}  // namespace dinomo
