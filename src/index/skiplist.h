#ifndef DINOMO_INDEX_SKIPLIST_H_
#define DINOMO_INDEX_SKIPLIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace index {

/// PmSkipList: the ordered DPM index that opens the scan workload class
/// (YCSB-E). It lives beside the hash index (Clht serves point lookups;
/// the skiplist serves range scans) and is mutated only by the same DPM
/// merge path. Like Clht, it maps 64-bit keys to opaque value pointers and
/// lives inside a PmPool behind a recoverable header.
///
/// Layout: fixed 192-byte nodes (3 cache lines). The first line holds
/// {okey, value, height, key_hash}; the next two hold the 16 level
/// pointers. `okey` is the big-endian interpretation of the first 8 key
/// bytes, so numeric okey order equals lexicographic key order — scans
/// walk level 0 in key order. Values are opaque PmPtrs (packed log-entry
/// locations); a scan reads the full key back out of the log entry, which
/// also disambiguates the (documented) aliasing of keys longer than 8
/// bytes that share a prefix.
///
/// Concurrency: writers serialize on one spinlock (the DPM merge threads);
/// readers — local iteration and the KN's one-sided remote walks — are
/// lock-free. Nodes are never unlinked or freed: a remove writes a null
/// value (tombstone), so a reader can never follow a pointer into reused
/// memory and remote readers need no epoch protection.
///
/// Persistence ordering (crash-consistent in the style of the log commit
/// marker; see DESIGN.md "Ordered index"):
///   1. the new node is fully written and persisted while unreachable;
///   2. the predecessor's level-0 pointer is the publication point
///      (StoreRelease64 + PersistPublish) — recovery sees the insert iff
///      this pointer is durable;
///   3. upper-level pointers are persisted one by one afterwards. A crash
///      between them leaves a valid structure: an upper chain that skips
///      the node still reaches every key through level 0, so torn upper
///      links are a performance artifact, never a correctness one.
/// In-place updates and tombstones publish the 8-byte value with
/// StoreRelease64 + PersistPublish.
///
/// Remote access: the header exposes a `version` word bumped whenever a
/// node at or above kSearchLayerHeight is linked. KNs cache the tall-node
/// "search layer" keyed by that version (see kn::SearchLayerCache); a
/// stale layer is still safe — nodes never move — it just starts the leaf
/// walk a little earlier.
class PmSkipList {
 public:
  static constexpr int kMaxHeight = 16;
  /// Nodes at or above this height form the KN-cached search layer.
  static constexpr int kSearchLayerHeight = 4;
  static constexpr size_t kNodeBytes = 3 * pm::kCacheLineSize;
  /// Byte offset of the version word inside the header (remote readers
  /// poll it with one AtomicRead64).
  static constexpr size_t kVersionOffset = 2 * sizeof(uint64_t);

  /// Creates an empty list (header + head sentinel) inside `alloc`'s
  /// region, or returns an error on PM exhaustion.
  static Result<PmSkipList*> Create(pm::PmPool* pool, pm::PmAllocator* alloc);

  /// Re-attaches to an existing list after a (simulated) crash. Recounts
  /// live entries and bumps the version so remote search-layer caches
  /// refetch.
  static Result<PmSkipList*> Recover(pm::PmPool* pool, pm::PmAllocator* alloc,
                                     pm::PmPtr header);

  ~PmSkipList() = default;

  PmSkipList(const PmSkipList&) = delete;
  PmSkipList& operator=(const PmSkipList&) = delete;

  // ----- Local (DPM-processor side) operations -----

  /// PM offset of the header (stable across recovery; a node records it in
  /// its superblock and re-attaches with Recover).
  pm::PmPtr header_ptr() const { return header_ptr_; }
  /// Inserts or updates okey -> value and persists it. Returns the previous
  /// value pointer, or kNullPmPtr if the key was absent. Thread-safe.
  Result<pm::PmPtr> Upsert(uint64_t okey, pm::PmPtr value);
  /// Tombstones okey. Returns the removed value pointer, or kNullPmPtr if
  /// the key was absent. Thread-safe.
  Result<pm::PmPtr> Remove(uint64_t okey);
  /// Lock-free local lookup. Returns kNullPmPtr if absent.
  pm::PmPtr Lookup(uint64_t okey) const;
  /// Sets okey's value to `desired` only if it currently is `expected`,
  /// persisting it as a publication point; returns whether it did.
  /// Serializes with the merge path's upserts on the writer lock, so a
  /// racing merge wins (the log cleaner's relocation publish).
  bool ReplaceIf(uint64_t okey, pm::PmPtr expected, pm::PmPtr desired);
  /// Approximate number of live entries.
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  /// Walks the structure verifying invariants (crash-recovery tests).
  Status CheckConsistency() const;
  /// Visits every live (okey, value) pair. Quiescent use only.
  void ForEach(const std::function<void(uint64_t, pm::PmPtr)>& fn) const;

  /// Visits live (okey, value) pairs with okey >= start in ascending okey
  /// order until `fn` returns false. Lock-free.
  void ForEachFrom(uint64_t start,
                   const std::function<bool(uint64_t, pm::PmPtr)>& fn) const;

  /// Tall-node insertions since creation (the search-layer version).
  uint64_t Version() const;

  // ----- Remote (KN side, one-sided) operations -----

  /// A KN-side view of the list header.
  struct RemoteHandle {
    pm::PmPtr head = pm::kNullPmPtr;
    uint64_t version = 0;
    bool valid() const { return head != pm::kNullPmPtr; }
  };

  /// Decoded 192-byte node image, as fetched by one one-sided read.
  struct NodeImage {
    uint64_t okey = 0;
    pm::PmPtr value = pm::kNullPmPtr;
    uint64_t height = 0;
    uint64_t key_hash = 0;
    pm::PmPtr next[kMaxHeight] = {};

    bool tombstone() const { return value == pm::kNullPmPtr; }
  };

  /// Reads the list header with one one-sided round trip. Returns the
  /// read's error if it failed; a header without the list magic yields an
  /// invalid handle.
  static Result<RemoteHandle> FetchRemoteHandle(net::Fabric* fabric,
                                                int node, pm::PmPtr header);

  /// Reads one node with one one-sided round trip. Returns the read's
  /// error if it failed (dropped, or `ptr` outside the pool), and
  /// Corruption if the image is invalid (bad height).
  static Status ReadRemoteNode(net::Fabric* fabric, int node, pm::PmPtr ptr,
                               NodeImage* out);

  /// Decodes a raw kNodeBytes node image fetched by any one-sided read
  /// (e.g. one op of a doorbell batch). Same validity rule as
  /// ReadRemoteNode.
  static bool DecodeNode(const void* raw, NodeImage* out);

  /// Maps a variable-length key onto its ordering key: the big-endian
  /// value of the first 8 bytes, zero-padded. Bijective for the 8-byte
  /// workload keys; longer keys sharing a prefix alias to one slot.
  static uint64_t OrderedKey(const char* data, size_t len);
  static uint64_t OrderedKey(const std::string& key) {
    return OrderedKey(key.data(), key.size());
  }

  /// Pre-tombstone upsert used by the merge path: like Upsert but also
  /// records the key hash so consistency checks can match entries back to
  /// their log records.
  Result<pm::PmPtr> UpsertHashed(uint64_t okey, uint64_t key_hash,
                                 pm::PmPtr value);

 private:
  // First cache line of a node; next[kMaxHeight] PmPtrs follow.
  struct alignas(pm::kCacheLineSize) NodeHeader {
    uint64_t okey;
    pm::PmPtr value;  // kNullPmPtr = tombstone
    uint64_t height;
    uint64_t key_hash;
    uint64_t pad[4];
  };
  static_assert(sizeof(NodeHeader) == pm::kCacheLineSize);
  static_assert(sizeof(NodeHeader) + kMaxHeight * sizeof(pm::PmPtr) ==
                kNodeBytes);

  struct alignas(pm::kCacheLineSize) Header {
    uint64_t magic;
    pm::PmPtr head;
    uint64_t version;
    uint64_t pad[5];
  };
  static_assert(sizeof(Header) == pm::kCacheLineSize);
  static_assert(offsetof(Header, version) == kVersionOffset);

  static constexpr uint64_t kMagic = 0x534b49504c495354ULL;  // "SKIPLIST"

  PmSkipList(pm::PmPool* pool, pm::PmAllocator* alloc, pm::PmPtr header);

  Header* header() {
    return reinterpret_cast<Header*>(pool_->Translate(header_ptr_));
  }
  const Header* header() const {
    return reinterpret_cast<const Header*>(pool_->Translate(header_ptr_));
  }
  NodeHeader* NodeAt(pm::PmPtr p) {
    return reinterpret_cast<NodeHeader*>(pool_->Translate(p));
  }
  const NodeHeader* NodeAt(pm::PmPtr p) const {
    return reinterpret_cast<const NodeHeader*>(pool_->Translate(p));
  }
  /// PM offset of node p's level-l pointer.
  static pm::PmPtr NextPtrAt(pm::PmPtr p, int level) {
    return p + sizeof(NodeHeader) + level * sizeof(pm::PmPtr);
  }
  pm::PmPtr LoadNext(pm::PmPtr p, int level) const;

  /// Finds the predecessor of okey at every level (preds[l].next[l] is the
  /// first node with node.okey >= okey). Lock-free.
  void FindPreds(uint64_t okey, pm::PmPtr preds[kMaxHeight]) const;

  int RandomHeight() REQUIRES(write_mu_);

  pm::PmPool* pool_;
  pm::PmAllocator* alloc_;
  pm::PmPtr header_ptr_;

  SpinLock write_mu_;
  Random height_rng_ GUARDED_BY(write_mu_){0x5b1a9e4d3c2f1705ULL};
  std::atomic<uint64_t> count_{0};
};

}  // namespace index
}  // namespace dinomo

#endif  // DINOMO_INDEX_SKIPLIST_H_
