#ifndef DINOMO_KN_SEARCH_LAYER_CACHE_H_
#define DINOMO_KN_SEARCH_LAYER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/skiplist.h"
#include "net/fabric.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace kn {

/// KN-side cache of the ordered index, in two parts:
///
/// * the "search layer": the (okey, node) pairs of every skiplist node at
///   or above PmSkipList::kSearchLayerHeight, fetched with one-sided reads
///   and kept in worker DRAM. A cold scan binary-searches this layer
///   compute-side, so the remote part of its positioning descent starts
///   at most kSearchLayerHeight levels above the leaves instead of at the
///   list head;
/// * learned leaf links: for every node a scan has read, its okey, its
///   PM pointer and the level-0 successor pointer last seen in its image.
///   A warm scan finds the start key's exact predecessor here and fetches
///   the predicted leaf run in one doorbell round (see PredictRun).
///
/// Staleness model (mirrors IndexCache's generation stamping): the cache
/// is keyed by the DPM placement generation and by the list header, and
/// the search layer also by the list's version word, polled with one
/// AtomicRead64 per cold scan. Because skiplist nodes are never moved,
/// unlinked or freed, stale state is still *safe*: a stale layer only
/// starts the leaf walk earlier than an up-to-date one would, and a stale
/// link only predicts a prefetch the walk may not use. So the layer is
/// rebuilt only when the version has drifted past a slack threshold (or
/// the generation/header changed), links are dropped only on a
/// generation/header change or Clear(), and links never carry value
/// pointers (merges upsert those in place). One worker owns one cache per
/// DPM node; not thread-safe.
class SearchLayerCache {
 public:
  /// Version drift tolerated before a rebuild. Each unit is one tall-node
  /// insert (~1/64 of inserts), so the default re-fetches the layer about
  /// every 4k inserts into the scanned range.
  static constexpr uint64_t kVersionSlack = 64;
  /// Links per storage chunk (see Learn); a full chunk splits in two.
  static constexpr size_t kChunkLinks = 64;

  struct Entry {
    uint64_t okey = 0;
    pm::PmPtr node = pm::kNullPmPtr;
  };

  /// One learned level-0 link: `node` (ordering key `okey`) was last seen
  /// pointing at `next`.
  struct Link {
    uint64_t okey = 0;
    pm::PmPtr node = pm::kNullPmPtr;
    pm::PmPtr next = pm::kNullPmPtr;
  };

  /// `link_budget_bytes` bounds the learned links' storage (every chunk
  /// is counted at its full reserved size); 0 disables link learning.
  explicit SearchLayerCache(size_t link_budget_bytes = 0);

  /// Makes the cached layer usable against `header` under `generation`:
  /// fast-path is one AtomicRead64 (the version poll); a drifted or
  /// mismatched layer is rebuilt by walking the top retained level via
  /// one-sided node reads. Returns the failed read's error when no safe
  /// layer is available (the fabric kept dropping the reads, or a read
  /// found corruption).
  Status EnsureFresh(net::Fabric* fabric, int fabric_node, pm::PmPtr header,
                     uint64_t generation);

  /// Best cached start for a scan: the cached node with the greatest
  /// okey < start_okey (a strict predecessor: the leaf walk begins after
  /// it), or the list head when none qualifies.
  pm::PmPtr Seek(uint64_t start_okey) const;

  /// Predicts the leaf run a scan from `start_okey` walks, with no fabric
  /// traffic. Succeeds only when the cache (built for `header` under
  /// `generation`) knows the start key's exact predecessor P: the last
  /// learned node with okey < start_okey (or the list head) whose learned
  /// successor is the next learned node, which then has okey >=
  /// start_okey — or nothing, when P is the learned tail. On success
  /// *run holds P followed by up to `limit` learned successors, in list
  /// order, stopping early where a learned link does not point at the
  /// next learned node.
  bool PredictRun(pm::PmPtr header, uint64_t generation, uint64_t start_okey,
                  size_t limit, std::vector<pm::PmPtr>* run) const;

  /// Records that `node` (ordering key `okey`) points at `next` on level
  /// 0, as read in a node image. Writes only a new or changed link. When
  /// the budget is full a whole chunk is evicted (round robin). The list
  /// head is remembered separately and never counts against the budget.
  void Learn(uint64_t okey, pm::PmPtr node, pm::PmPtr next);

  bool valid() const { return valid_; }
  pm::PmPtr head() const { return head_; }
  uint64_t version() const { return version_; }
  size_t size() const { return entries_.size(); }
  uint64_t rebuilds() const { return rebuilds_; }
  size_t links() const { return num_links_; }

  /// Drops the layer and every learned link.
  void Clear();

 private:
  Status Rebuild(net::Fabric* fabric, int fabric_node, pm::PmPtr header,
                 uint64_t generation);
  void ClearLinks();
  /// Index of the chunk whose okey range holds `okey`: the last chunk
  /// whose first okey is <= okey, or 0 when none is.
  size_t ChunkFor(uint64_t okey) const;
  /// Drops one chunk other than `keep` (round robin); returns the index
  /// `keep` moved to.
  size_t EvictChunk(size_t keep);

  bool valid_ = false;
  uint64_t generation_ = 0;
  uint64_t version_ = 0;
  pm::PmPtr header_ = pm::kNullPmPtr;
  pm::PmPtr head_ = pm::kNullPmPtr;
  uint64_t rebuilds_ = 0;
  std::vector<Entry> entries_;  // ascending okey

  // Learned links, sorted by okey across a list of chunks so that an
  // insert moves at most one chunk's entries. Each chunk is non-empty and
  // reserves kChunkLinks + 1 slots; chunk_front_[i] mirrors
  // chunks_[i].front().okey for a cache-friendly binary search.
  size_t max_chunks_ = 0;
  size_t num_links_ = 0;
  size_t evict_cursor_ = 0;
  bool head_known_ = false;
  pm::PmPtr head_next_ = pm::kNullPmPtr;
  std::vector<std::vector<Link>> chunks_;
  std::vector<uint64_t> chunk_front_;
};

}  // namespace kn
}  // namespace dinomo

#endif  // DINOMO_KN_SEARCH_LAYER_CACHE_H_
