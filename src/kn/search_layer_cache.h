#ifndef DINOMO_KN_SEARCH_LAYER_CACHE_H_
#define DINOMO_KN_SEARCH_LAYER_CACHE_H_

#include <cstdint>
#include <vector>

#include "index/skiplist.h"
#include "net/fabric.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace kn {

/// KN-side cache of the ordered index's "search layer": the (okey, node)
/// pairs of every skiplist node at or above PmSkipList::kSearchLayerHeight,
/// fetched with one-sided reads and kept in worker DRAM. A scan binary-
/// searches this layer compute-side, so the remote part of the positioning
/// descent starts at most kSearchLayerHeight levels above the leaves
/// instead of at the list head.
///
/// Staleness model (mirrors IndexCache's generation stamping): entries are
/// keyed by the DPM placement generation and by the list's version word,
/// polled with one AtomicRead64 per use. Because skiplist nodes are never
/// moved, unlinked or freed, a stale layer is still *safe* — it only
/// starts the leaf walk earlier than an up-to-date one would — so the
/// layer is rebuilt only when the version has drifted past a slack
/// threshold (or the generation/header changed), not on every tall-node
/// insert. One worker owns one cache per DPM node; not thread-safe.
class SearchLayerCache {
 public:
  /// Version drift tolerated before a rebuild. Each unit is one tall-node
  /// insert (~1/64 of inserts), so the default re-fetches the layer about
  /// every 4k inserts into the scanned range.
  static constexpr uint64_t kVersionSlack = 64;

  struct Entry {
    uint64_t okey = 0;
    pm::PmPtr node = pm::kNullPmPtr;
  };

  /// Makes the cached layer usable against `header` under `generation`:
  /// fast-path is one AtomicRead64 (the version poll); a drifted or
  /// mismatched layer is rebuilt by walking the top retained level via
  /// one-sided node reads. Returns false when the fabric kept dropping
  /// the reads and no safe layer is available.
  bool EnsureFresh(net::Fabric* fabric, int fabric_node, pm::PmPtr header,
                   uint64_t generation);

  /// Best cached start for a scan: the cached node with the greatest
  /// okey < start_okey (a strict predecessor: the leaf walk begins after
  /// it), or the list head when none qualifies.
  pm::PmPtr Seek(uint64_t start_okey) const;

  bool valid() const { return valid_; }
  pm::PmPtr head() const { return head_; }
  uint64_t version() const { return version_; }
  size_t size() const { return entries_.size(); }
  uint64_t rebuilds() const { return rebuilds_; }

  void Clear() {
    valid_ = false;
    entries_.clear();
  }

 private:
  bool Rebuild(net::Fabric* fabric, int fabric_node, pm::PmPtr header,
               uint64_t generation);

  bool valid_ = false;
  uint64_t generation_ = 0;
  uint64_t version_ = 0;
  pm::PmPtr header_ = pm::kNullPmPtr;
  pm::PmPtr head_ = pm::kNullPmPtr;
  uint64_t rebuilds_ = 0;
  std::vector<Entry> entries_;  // ascending okey
};

}  // namespace kn
}  // namespace dinomo

#endif  // DINOMO_KN_SEARCH_LAYER_CACHE_H_
