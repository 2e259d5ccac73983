#include "kn/index_cache.h"

namespace dinomo {
namespace kn {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

IndexCache::IndexCache(size_t entries, obs::MetricsRegistry* registry)
    : slots_(RoundUpPow2(entries == 0 ? 1 : entries)),
      mask_(slots_.size() - 1),
      metrics_(obs::Scope("kn.icache", registry)),
      hits_(metrics_.counter("hits")),
      misses_(metrics_.counter("misses")),
      stale_(metrics_.counter("stale")),
      invalidations_(metrics_.counter("invalidations")) {}

bool IndexCache::Lookup(uint64_t key_hash, uint64_t gen, int node,
                        uint64_t* vp_raw) {
  const Slot& s = SlotFor(key_hash);
  if (s.key_hash == key_hash && s.gen == gen &&
      s.node == static_cast<int32_t>(node) && s.vp_raw != 0) {
    *vp_raw = s.vp_raw;
    stats_.hits++;
    hits_.Inc();
    return true;
  }
  stats_.misses++;
  misses_.Inc();
  return false;
}

void IndexCache::Admit(uint64_t key_hash, uint64_t gen, int node,
                       uint64_t vp_raw) {
  Slot& s = SlotFor(key_hash);
  s.key_hash = key_hash;
  s.vp_raw = vp_raw;
  s.gen = gen;
  s.node = static_cast<int32_t>(node);
}

void IndexCache::Invalidate(uint64_t key_hash) {
  Slot& s = SlotFor(key_hash);
  if (s.key_hash != key_hash) return;
  s = Slot{};
  stats_.invalidations++;
  invalidations_.Inc();
}

void IndexCache::Repoint(uint64_t key_hash, int node, uint64_t from,
                         uint64_t to) {
  Slot& s = SlotFor(key_hash);
  if (s.key_hash == key_hash && s.node == static_cast<int32_t>(node) &&
      s.vp_raw == from) {
    s.vp_raw = to;
  }
}

void IndexCache::NoteStale(uint64_t key_hash) {
  stats_.stale++;
  stale_.Inc();
  Invalidate(key_hash);
}

void IndexCache::InvalidateIf(const std::function<bool(uint64_t)>& pred) {
  for (Slot& s : slots_) {
    if (s.key_hash != 0 && pred(s.key_hash)) {
      s = Slot{};
      stats_.invalidations++;
      invalidations_.Inc();
    }
  }
}

void IndexCache::Clear() {
  for (Slot& s : slots_) {
    if (s.key_hash != 0) {
      stats_.invalidations++;
      invalidations_.Inc();
    }
    s = Slot{};
  }
}

}  // namespace kn
}  // namespace dinomo
