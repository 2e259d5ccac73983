#ifndef DINOMO_INDEX_CLHT_H_
#define DINOMO_INDEX_CLHT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace index {

/// P-CLHT: persistent cache-line hash table (RECIPE, SOSP'19), the DPM
/// metadata index of the paper (§4).
///
/// Layout: an array of 64-byte buckets, each holding a lock word, three
/// 8-byte keys, three 8-byte value pointers and an overflow-chain pointer —
/// so the common-case lookup touches exactly one cache line (and exactly
/// one one-sided round trip when traversed remotely by a KN).
///
/// Concurrency contract (matching the paper's requirements in §3.2):
///  * Reads are lock-free. A reader takes a per-slot atomic snapshot:
///    read key, read value, re-read key; writers order value-before-key
///    stores so any snapshot is consistent.
///  * Writes are log-free and in-place: updates atomically overwrite the
///    8-byte value pointer (values themselves live out-of-place in log
///    entries, so either pointer a reader observes is a committed value).
///    Writers serialize per bucket with the bucket lock word.
///  * Every mutation persists (CLWB+fence model) in an order that keeps
///    the table recoverable: value slot before key slot on insert.
///
/// Resizing doubles the bucket array under a global resize lock while
/// holding every old-bucket lock; the new array is published by bumping
/// the epoch in the header. Old arrays are retired, not freed, until
/// FreeRetiredTables() is called at a quiescent point, so remote readers
/// holding a stale handle never read reused memory. Remote readers detect
/// staleness via the epoch piggybacked on merge notifications (see
/// dpm::MergeService).
///
/// Keys are non-zero 64-bit values (the paper's workloads use 8-byte keys;
/// the KVS layer maps variable-length keys onto 64-bit fingerprints and
/// verifies the full key stored in the log entry on reads).
class Clht {
 public:
  /// One reader-visible result of a remote lookup.
  struct RemoteResult {
    bool found = false;
    pm::PmPtr value = pm::kNullPmPtr;
    /// One-sided round trips consumed by the index traversal (bucket
    /// line reads; the subsequent value read is charged by the caller).
    uint32_t hops = 0;
  };

  /// A KN-side cached view of the table header: which epoch/array the KN
  /// believes is current. Refreshed via FetchRemoteHandle.
  struct RemoteHandle {
    uint64_t epoch = 0;
    pm::PmPtr buckets = pm::kNullPmPtr;
    uint64_t num_buckets = 0;

    bool valid() const { return buckets != pm::kNullPmPtr; }
  };

  /// Creates a new table with 2^log2_buckets buckets inside `alloc`'s
  /// region, or returns an error on PM exhaustion.
  static Result<Clht*> Create(pm::PmPool* pool, pm::PmAllocator* alloc,
                              int log2_buckets);

  /// Re-attaches to an existing table header after a (simulated) crash.
  static Result<Clht*> Recover(pm::PmPool* pool, pm::PmAllocator* alloc,
                               pm::PmPtr header);

  ~Clht();

  Clht(const Clht&) = delete;
  Clht& operator=(const Clht&) = delete;

  /// PM offset of the header (stable across recovery; a node records it in
  /// its superblock and re-attaches with Recover).
  pm::PmPtr header_ptr() const { return header_ptr_; }

  // ----- Local (DPM-processor side) operations -----

  /// Inserts or updates key -> value. Returns the previous value pointer,
  /// or kNullPmPtr if the key was absent. Thread-safe.
  Result<pm::PmPtr> Upsert(uint64_t key, pm::PmPtr value);

  /// Removes the key. Returns the removed value pointer, or kNullPmPtr if
  /// the key was absent. Thread-safe.
  Result<pm::PmPtr> Remove(uint64_t key);

  /// Lock-free local lookup. Returns kNullPmPtr if absent.
  pm::PmPtr Lookup(uint64_t key) const;

  /// Sets key -> desired only if the key currently maps to `expected`,
  /// and persists the slot; returns whether it did. Serializes with
  /// Upsert/Remove on the bucket lock, so a concurrent merge either lands
  /// first (and this fails) or supersedes `desired` afterwards. The log
  /// cleaner publishes a relocated entry this way.
  bool ReplaceIf(uint64_t key, pm::PmPtr expected, pm::PmPtr desired);

  /// Approximate number of live entries.
  uint64_t Count() const;
  /// Current bucket-array size.
  uint64_t NumBuckets() const;
  /// Number of completed resizes.
  uint64_t Epoch() const;

  /// Walks the whole table verifying structural invariants (slot pairs
  /// complete, chain pointers in-pool). Used by crash-recovery tests.
  Status CheckConsistency() const;

  /// Visits every live (key, value) pair. Quiescent use only (no
  /// concurrent resize); DINOMO-N's data reorganization and recovery
  /// scans use this.
  void ForEach(const std::function<void(uint64_t, pm::PmPtr)>& fn) const;

  /// Frees retired (pre-resize) bucket arrays. Callers must guarantee no
  /// remote reader still holds a handle to them (quiescent point).
  void FreeRetiredTables();

  // ----- Remote (KN side, one-sided) operations -----

  /// Reads the table header with one-sided reads until two consecutive
  /// snapshots agree (two round trips without a racing resize). Returns
  /// the failed read's error, Busy if the header kept changing, or
  /// Corruption for a bucket count no table can have.
  Result<RemoteHandle> FetchRemoteHandle(net::Fabric* fabric,
                                         int node) const;

  /// Traverses the index with one-sided bucket reads against the array in
  /// `handle`. Each bucket line costs one round trip. The caller still
  /// needs one more round trip to fetch the value itself. A failed bucket
  /// read (dropped, or a chain link outside the pool) returns its error.
  Result<RemoteResult> RemoteLookup(net::Fabric* fabric, int node,
                                    const RemoteHandle& handle,
                                    uint64_t key) const;

 private:
  // 64-byte bucket: lock | k0 k1 k2 | v0 v1 v2 | next.
  struct alignas(pm::kCacheLineSize) Bucket {
    uint64_t lock;
    uint64_t keys[3];
    pm::PmPtr vals[3];
    pm::PmPtr next;
  };
  static_assert(sizeof(Bucket) == pm::kCacheLineSize,
                "bucket must be exactly one cache line");
  static constexpr int kSlotsPerBucket = 3;

  // Header cache line. `packed` = (epoch << 8) | log2_buckets, published
  // with release ordering after `buckets`, so readers can snapshot the
  // pair by re-checking `packed`.
  struct alignas(pm::kCacheLineSize) Header {
    uint64_t packed;
    pm::PmPtr buckets;
    uint64_t count;
    uint64_t resize_lock;
    uint64_t pad[4];
  };
  static_assert(sizeof(Header) == pm::kCacheLineSize);

  Clht(pm::PmPool* pool, pm::PmAllocator* alloc, pm::PmPtr header);

  Header* header() { return reinterpret_cast<Header*>(pool_->Translate(header_ptr_)); }
  const Header* header() const {
    return reinterpret_cast<const Header*>(pool_->Translate(header_ptr_));
  }

  Bucket* BucketAt(pm::PmPtr array, uint64_t idx) {
    return reinterpret_cast<Bucket*>(
        pool_->Translate(array + idx * sizeof(Bucket)));
  }
  const Bucket* BucketAt(pm::PmPtr array, uint64_t idx) const {
    return reinterpret_cast<const Bucket*>(
        pool_->Translate(array + idx * sizeof(Bucket)));
  }

  // Snapshot of the current (epoch, array, size) triple.
  struct TableView {
    uint64_t epoch;
    pm::PmPtr buckets;
    uint64_t num_buckets;
  };
  TableView CurrentView() const;

  void LockBucket(Bucket* b);
  bool TryLockBucket(Bucket* b);
  void UnlockBucket(Bucket* b);

  // Grows the table by 2x. Called with statistics suggesting pressure;
  // internally serialized. chain_len is the chain length that triggered
  // the check.
  void MaybeResize(uint64_t chain_len);
  void DoResize();

  // Inserts into a specific table (used during resize rehash; no locking,
  // no persistence ordering needed until final flush).
  void RehashInsert(pm::PmPtr array, uint64_t num_buckets, uint64_t key,
                    pm::PmPtr value);

  pm::PmPool* pool_;
  pm::PmAllocator* alloc_;
  pm::PmPtr header_ptr_;

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> resizes_{0};
  mutable std::atomic<uint64_t> max_chain_{1};

  // Retired bucket arrays awaiting FreeRetiredTables().
  mutable SpinLock retired_mu_;
  std::vector<pm::PmPtr> retired_ GUARDED_BY(retired_mu_);

 public:
  /// Longest chain observed (diagnostics).
  uint64_t MaxChainLength() const {
    return max_chain_.load(std::memory_order_relaxed);
  }
};

}  // namespace index
}  // namespace dinomo

#endif  // DINOMO_INDEX_CLHT_H_
