#ifndef DINOMO_KN_KN_WORKER_H_
#define DINOMO_KN_KN_WORKER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cluster/routing.h"
#include "common/bloom.h"
#include "common/mutex.h"
#include "common/hash.h"
#include "common/slice.h"
#include "common/status.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "dpm/log.h"
#include "index/clht.h"
#include "index/skiplist.h"
#include "kn/index_cache.h"
#include "kn/search_layer_cache.h"
#include "net/fabric.h"

namespace dinomo {
namespace kn {

/// Which cache policy a KN runs (§5 comparison points: DINOMO uses DAC,
/// DINOMO-S runs shortcut-only, the Figure-3 sweep also uses static-X and
/// value-only).
enum class CachePolicyKind {
  kDac,
  kShortcutOnly,
  kValueOnly,
  kStatic,
};

/// Configuration of one KVS node.
struct KnOptions {
  /// Cluster-visible node id (>= 1).
  uint64_t kn_id = 1;
  /// Initiator id used for fabric traffic accounting.
  int fabric_node = 0;
  /// Worker threads; each owns a disjoint sub-partition and its own cache
  /// shard and log (paper §3.4: "within a KN, a key range is further
  /// partitioned among its various threads").
  int num_workers = 1;
  /// Total KN DRAM for caching, split evenly across workers.
  size_t cache_bytes = 16 * 1024 * 1024;
  CachePolicyKind policy = CachePolicyKind::kDac;
  double static_value_fraction = 0.5;

  /// Group-commit thresholds for the one-sided batched log writes (§3.6).
  size_t batch_max_ops = 8;
  size_t batch_max_bytes = 64 * 1024;

  /// KN index-metadata cache (communication-efficient read path): caches
  /// the ValuePtr each key hash resolved to, stamped with the placement
  /// generation, so common-case misses skip the dedicated index-lookup
  /// fabric round. Disabled automatically under the shortcut-only policy,
  /// which models the prior-work (DINOMO-S) baseline.
  bool icache_enabled = true;

  /// TEST ONLY: deliberately breaks the replicated flush protocol by
  /// publishing the primary's commit marker BEFORE the mirror ack (the
  /// reordered append tests/replication_test.cc proves is detected).
  bool test_reorder_replicated_flush = false;

  // --- KN CPU cost model (us), consumed by the virtual-time engine ---
  // Calibrated so a KN worker thread's request-handling cost (network
  // stack, protobuf/ZeroMQ framing, cache management) is a few us, as on
  // the paper's Xeon E5-2670v3 testbed. The batch-flush, batch-scan and
  // range-scan costs are constants in kn_worker.cc.
  double cpu_value_hit_us = 1.8;
  double cpu_shortcut_hit_us = 6.0;
  double cpu_miss_us = 7.5;
  double cpu_write_us = 6.0;

  /// Registry this node's workers (and their caches) publish metrics into;
  /// nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One row of a range-scan result: the full key (read back from the log
/// entry, never from the 8-byte ordering prefix) and its value.
struct ScanRow {
  std::string key;
  std::string value;
};

/// Outcome of one key-value operation, including everything the runtime
/// needs to account time: the network cost (round trips, bytes, RPC time)
/// and the KN CPU time consumed.
struct OpResult {
  Status status;
  std::string value;             // reads only
  std::vector<ScanRow> rows;     // scans only (the kScan request path)
  net::OpCost cost;
  double cpu_us = 0.0;
  cache::HitKind hit = cache::HitKind::kMiss;

  /// Service latency under a link profile (excludes queueing).
  double LatencyUs(const net::LinkProfile& profile) const {
    return cost.LatencyUs(profile) + cpu_us;
  }
};

/// Cumulative per-worker request counts for the harnesses; they never
/// decrease, so a window is the difference of two snapshots.
struct WorkerStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t scans = 0;
  uint64_t value_hits = 0;
  uint64_t shortcut_hits = 0;
  uint64_t misses = 0;
  uint64_t wrong_owner = 0;
};

/// One worker's M-node inputs for the epoch since the previous drain.
struct EpochLoad {
  double busy_us = 0.0;
  /// Access counts of the hottest keys this epoch (key hash -> count).
  std::vector<std::pair<uint64_t, uint64_t>> hot_keys;
  /// Mean and standard deviation over all tracked key access counts.
  double key_freq_mean = 0.0;
  double key_freq_stddev = 0.0;
};

/// Phase-A output of a split-phase GET: the op reduced to exactly one
/// one-sided entry read through a cached pointer, described here so the
/// runtime can fuse it with other queued requests' reads into a single
/// fabric round (AddReadTo) before finishing each op with GetComplete.
struct DirectReadPlan {
  bool ready = false;
  /// True when the pointer came from the shortcut cache (completion
  /// refreshes it via OnShortcutHit); false = index-metadata cache.
  bool from_shortcut = false;
  bool shared = false;   // a selectively replicated key
  dpm::DpmPlacement pl;  // pl.primary serves the read
  uint64_t key_hash = 0;
  dpm::ValuePtr vp;
  /// Destination of the read; GetComplete decodes it.
  std::string buf;
  /// Set once a doorbell round has read `buf`, with `fate` its outcome;
  /// unset, GetComplete issues the read.
  bool fused = false;
  Status fate;

  /// Queues the read in a doorbell round and returns true. A pointer
  /// through an indirect slot needs the slot read first, so it stays out
  /// of the round (false) and GetComplete reads it.
  bool AddReadTo(net::Fabric::OpBatch* batch) {
    if (vp.indirect()) return false;
    batch->AddRead(vp.offset(), buf.data(), buf.size(), &fate);
    fused = true;
    return true;
  }
};

/// Maps a user key onto the 64-bit fingerprint used by the DPM index, the
/// hash ring and the caches. Zero is reserved (CLHT empty slot).
///
/// The FNV byte hash is finalized with Mix64: the global ring consumes
/// this value positionally (HashRing::OwnerOf lower-bounds it), and raw
/// FNV of short keys that differ only in their final bytes — e.g. the
/// workloads' big-endian 8-byte record keys — clusters within a ~2^41
/// window (the last byte contributes one multiply), which collapsed all
/// placement onto a handful of owners.
inline uint64_t KeyHash(const Slice& key) {
  const uint64_t h = Mix64(HashSlice(key));
  return h == 0 ? 1 : h;
}

/// One KN worker thread's state and request execution logic. A worker is
/// single-threaded by contract — the real-thread runtime gives it a
/// dedicated thread, the virtual-time engine serializes events — except
/// for OnOwnerBatchMerged and OnEntriesRelocated, which the merge service
/// may call concurrently (guarded internally).
///
/// The worker talks to a *pool* of DPM nodes: each key hash has a primary
/// (and, with replication factor 2, a mirror) DPM node assigned by the
/// pool's ring. Reads go to the key's primary; writes accumulate in one
/// batch per (primary, mirror) placement pair and flush with the
/// replicate-before-ack protocol (payload -> mirror copy + mirror submit
/// -> primary commit-marker publish). When the pool's placement
/// generation moves (a DPM fail-stop), the worker re-resolves segment
/// homes and re-bins still-buffered entries — see FailoverRecover.
///
/// Read path (§3.6 "one-sided reads"): value hit -> 0 RTs; shortcut hit ->
/// 1 RT (2 for replicated keys through their indirect slot); miss -> check
/// the Bloom-filtered cached un-merged batches, then the remote index
/// traversal (M RTs) plus one value read.
///
/// Write path (§3.6 "asynchronous post-processing"): entries accumulate in
/// a local batch, shipped with ONE one-sided write at flush (two with a
/// mirror), then merged into the index asynchronously by the DPM
/// processors. Writes to replicated keys bypass the batch: log the entry,
/// then CAS the key's indirect slot.
class KnWorker {
 public:
  KnWorker(const KnOptions& options, int worker_idx, dpm::DpmPool* pool);
  ~KnWorker();

  KnWorker(const KnWorker&) = delete;
  KnWorker& operator=(const KnWorker&) = delete;

  /// Installs the routing snapshot used for ownership checks.
  void SetRouting(std::shared_ptr<const cluster::RoutingTable> routing) {
    routing_ = std::move(routing);
  }
  const cluster::RoutingTable* routing() const { return routing_.get(); }

  OpResult Get(const Slice& key) {
    DirectReadPlan plan;  // a batch of one: GetComplete issues the read
    OpResult out = GetPrepare(key, &plan);
    return plan.ready ? GetComplete(key, &plan, std::move(out)) : out;
  }
  OpResult Put(const Slice& key, const Slice& value) {
    return Finish(WriteImpl(dpm::LogOp::kPut, key, value));
  }
  OpResult Delete(const Slice& key) {
    return Finish(WriteImpl(dpm::LogOp::kDelete, key, Slice()));
  }

  /// Range scan (YCSB-E): up to `scan_len` rows with key >= start_key in
  /// ascending key order, resolved against the ordered DPM index. A warm
  /// scan prefetches its predicted leaf run in one OpBatch round from the
  /// learned leaf links; a cold one descends from the KN-cached search
  /// layer and walks the leaves with dependent one-sided reads. Each DPM
  /// node's value reads then fuse into ONE OpBatch round (a warm scan is
  /// two round trips per DPM node). Results reflect merged DPM state overlaid
  /// with THIS worker's own un-merged writes — scans are not linearizable
  /// against other workers' in-flight inserts (see DESIGN.md).
  OpResult Scan(const Slice& start_key, uint32_t scan_len,
                std::vector<ScanRow>* rows) {
    return Finish(ScanImpl(start_key, scan_len, rows));
  }

  /// Search-layer cache for DPM node `n` (test seam).
  const SearchLayerCache& search_layer(int n) const {
    return slc_[static_cast<size_t>(n)];
  }

  /// Split-phase GET, phase A: runs the local part (cache probe, batch
  /// scan, index resolution). When the op reduces to one read through a
  /// cached pointer, fills *plan (plan->ready) and returns the partial
  /// result WITHOUT finishing the op; the caller may fuse the read with
  /// others', then calls GetComplete. Otherwise the result is final.
  OpResult GetPrepare(const Slice& key, DirectReadPlan* plan);
  /// Split-phase GET, phase C: reads the entry (or takes the fused read),
  /// checks it and admits/refreshes the caches. A dropped read is retried
  /// in place; an entry that fails the check drops the hint and resolves
  /// the key through the miss path once.
  OpResult GetComplete(const Slice& key, DirectReadPlan* plan,
                       OpResult partial);

  /// Flushes any buffered writes (end of a request burst). Returns the
  /// flush cost, zero if nothing was pending.
  OpResult FlushWrites();

  /// True if a write would currently block on the unmerged-segment
  /// threshold (paper §4: default 2 unmerged segments).
  bool WriteWouldBlock() const;

  /// Reconfiguration support: flush writes and synchronously merge this
  /// worker's log on every alive DPM node (step 3 of §3.5). Cache intact.
  Status DrainLog();
  /// Empties the cache (ownership hand-off) and refreshes the index view.
  void ResetForOwnershipChange();
  /// Re-reads the remote index headers (e.g. after a resize notification).
  void RefreshIndexHandle();

  /// Called by the merge callback when one of this worker's batches
  /// merged on DPM node `node`: drops the cached un-merged batch whose
  /// (node, base) matches. With >= 2 merge threads acks arrive in
  /// arbitrary global order, so "drop the oldest" would evict a
  /// still-unmerged batch; (node, base)-matching also makes mirror acks
  /// (same bytes, different node/pool) and acks that straddle an
  /// ownership change no-ops. Thread-safe; may run concurrently with the
  /// worker thread.
  void OnOwnerBatchMerged(int node, pm::PmPtr batch_base)
      EXCLUDES(batches_mu_);

  /// The log cleaner on DPM node `node` moved these entries. Queued and
  /// applied by the worker thread at its next request or segment
  /// allocation (ApplyRelocations): caches still pointing at a move's old
  /// home repoint to the copy. The cleaner calls this before it frees the
  /// moves' old segment. Thread-safe; may run concurrently with the worker
  /// thread.
  void OnEntriesRelocated(int node, const std::vector<dpm::Relocation>& moves)
      EXCLUDES(batches_mu_);

  /// Bases of the cached un-merged batches, oldest first. Test seam for
  /// the ack-ordering regression tests.
  std::vector<pm::PmPtr> UnmergedBatchBases() const EXCLUDES(batches_mu_);

  /// Test seam: registers `bytes` (a LogBuilder batch image) as a cached
  /// un-merged batch at `base` on DPM node `node`, bypassing the write
  /// path. Lets tests construct scenarios real keys cannot produce, e.g.
  /// two entries whose 64-bit key hashes collide.
  void InjectUnmergedBatchForTest(std::string bytes, pm::PmPtr base,
                                  int node = 0);

  /// Log owner id of this worker: (kn_id << 8) | worker_idx.
  uint64_t log_owner() const { return (options_.kn_id << 8) | worker_idx_; }

  cache::KnCache* cache() { return cache_.get(); }
  /// Index-metadata cache; nullptr when disabled (shortcut-only policy or
  /// icache_enabled=false).
  IndexCache* icache() { return icache_.get(); }
  const KnOptions& options() const { return options_; }
  dpm::DpmPool* pool() const { return pool_; }

  /// Request and cache counts since construction.
  WorkerStats SnapshotStats() const;
  /// Takes this epoch's load (busy time, key access counts) and starts
  /// the next epoch. Only the M-node's epoch, and the sim's preload
  /// before it, call this.
  EpochLoad DrainEpochLoad();

 private:
  struct CachedBatch {
    std::string bytes;
    pm::PmPtr base = pm::kNullPmPtr;  // where it lives in DPM
    int node = 0;                     // which DPM node's pool `base` is in
    std::unique_ptr<BloomFilter> bloom;
  };

  /// Segments + pending batch for one (primary, mirror) placement pair.
  /// Keys of one primary can have different mirrors (the mirror is the
  /// per-range ring successor), so batches group by the *pair* — every
  /// entry in a batch replicates to the same mirror segment.
  struct WriteState {
    pm::PmPtr segment = pm::kNullPmPtr;  // on the primary node
    size_t segment_used = 0;             // bytes of flushed batches
    pm::PmPtr mirror_segment = pm::kNullPmPtr;  // on the mirror node
    size_t mirror_used = 0;
    dpm::LogBuilder batch;
    std::unique_ptr<BloomFilter> bloom;
  };
  using PlacementKey = std::pair<int, int>;  // (primary, mirror)

  dpm::DpmNode* node(int i) const { return pool_->node(i); }
  index::Clht* TargetIndex(int n) const;
  WriteState* StateFor(const dpm::DpmPlacement& pl);
  WriteState* ExistingStateFor(const dpm::DpmPlacement& pl);

  /// Reconciles with the pool's placement generation; on a change, runs
  /// the failover recovery (re-resolve indexes, drop dead-node state,
  /// re-bin buffered entries).
  void CheckPlacement();
  void FailoverRecover();
  /// Repoints the caches at the cleaner moves queued by
  /// OnEntriesRelocated. Runs before each request and right after each
  /// segment allocation: the allocator may hand back a block whose old
  /// entries these moves name, and a new entry of the same key at the same
  /// address must never be repointed at the cleaner's older copy.
  void ApplyRelocations() EXCLUDES(batches_mu_);

  void RefreshIndexHandle(int n);

  // Reads the log entry behind `vp` on DPM node `n` (resolving one level
  // of indirect pointer), checks it is a put of `key_hash`, and appends
  // the value to *value. Retries dropped reads, and re-reads an indirect
  // slot that raced, a bounded number of times. A non-null `fused` plan
  // whose doorbell read already ran serves as the first attempt.
  Status ReadEntryValue(int n, dpm::ValuePtr vp, uint64_t key_hash,
                        std::string* value, DirectReadPlan* fused = nullptr);

  // Searches cached un-merged batches (newest first). `st` is the key's
  // write state (nullptr if none yet). Returns kNotFound / Ok(value) /
  // kAborted when a tombstone proves deletion.
  Status SearchCachedBatches(const WriteState* st, uint64_t key_hash,
                             const Slice& key, std::string* value,
                             double* cpu_us);

  // The remote miss path against the key's primary DPM node: an icache
  // hit becomes a planned read (*plan), else IndexWalk. `shared` keys
  // (selectively replicated) bypass the icache — their current version
  // lives behind an indirect slot.
  OpResult MissPath(const Slice& key, uint64_t key_hash,
                    const dpm::DpmPlacement& pl, bool shared,
                    DirectReadPlan* plan);

  // The authoritative miss: walks DPM node `n`'s index for `key_hash`,
  // reads the entry it names into *value and admits it. `rts_spent`: the
  // round trips this miss already paid (a stale icache read), which the
  // DAC's admission counts.
  Status IndexWalk(int n, uint64_t key_hash, uint32_t rts_spent,
                   std::string* value);

  // Write machinery.
  Status EnsureSegmentsFor(WriteState* st, const dpm::DpmPlacement& pl,
                           size_t entry_bytes);
  Status AppendWrite(WriteState* st, const dpm::DpmPlacement& pl,
                     dpm::LogOp op, const Slice& key, const Slice& value,
                     uint64_t key_hash, dpm::ValuePtr* out_vp);
  /// Flushes one placement's pending batch with the replicate-before-ack
  /// protocol (single-write fast path when the placement has no mirror).
  Status FlushState(const PlacementKey& key, WriteState* st, double* cpu_us);
  /// Flushes every placement's pending batch. Registers cached copies
  /// under batches_mu_ per placement, so the caller must not hold it.
  Status FlushAllStates(double* cpu_us) EXCLUDES(batches_mu_);
  OpResult SharedWrite(const Slice& key, const Slice& value,
                       uint64_t key_hash);

  OpResult GetImpl(const Slice& key, DirectReadPlan* plan);
  /// Put or Delete: one log append under the key's placement (a Put of
  /// a replicated key goes through SharedWrite instead).
  OpResult WriteImpl(dpm::LogOp op, const Slice& key, const Slice& value);
  OpResult ScanImpl(const Slice& start_key, uint32_t scan_len,
                    std::vector<ScanRow>* rows) EXCLUDES(batches_mu_);
  /// One DPM node's contribution to a scan: position via the learned
  /// leaf links (one prefetch round) or the cached search layer, walk
  /// level 0 until `limit` rows whose key hash is not in the sorted
  /// `deleted_hashes` are found, fuse the value reads, decode into
  /// *merged (first writer wins — replicas carry identical rows).
  Status ScanNode(int n, uint64_t start_okey, uint32_t limit,
                  const std::vector<uint64_t>& deleted_hashes,
                  std::map<std::string, std::string>* merged);

  void TrackAccess(uint64_t key_hash);
  /// Publishes one finished operation (count + service latency) to the
  /// metrics registry before handing the result back.
  OpResult Finish(OpResult result);

  KnOptions options_;
  int worker_idx_;
  dpm::DpmPool* pool_;
  obs::MetricGroup metrics_;  // kn.kn<id>.w<idx>.*
  obs::Counter& ops_;
  obs::HistogramMetric& op_latency_us_;
  // Per-DPM-node scan positioning: from the learned leaf links (one
  // prefetch round) vs. a search-layer descent.
  obs::Counter& scan_runs_prefetched_;
  obs::Counter& scan_runs_descended_;
  std::shared_ptr<const cluster::RoutingTable> routing_;
  std::unique_ptr<cache::KnCache> cache_;
  std::unique_ptr<IndexCache> icache_;

  // Remote views of each DPM node's metadata index.
  std::vector<index::Clht::RemoteHandle> index_handles_;
  std::vector<uint64_t> known_index_epochs_;
  // Cached ordered-index search layer, one per DPM node.
  std::vector<SearchLayerCache> slc_;

  // Placement generation this worker's segments/caches were resolved
  // under; a pool bump triggers FailoverRecover before the next op.
  uint64_t placement_gen_ = 0;

  // Current segments + batches under construction, one per placement.
  std::map<PlacementKey, WriteState> write_states_;
  uint64_t next_seq_ = 0;

  // Batches written to DPM but not yet merged (authoritative for reads).
  // batches_mu_ is taken by the worker thread and, via OnOwnerBatchMerged,
  // by whichever merge thread delivers the ack.
  mutable Mutex batches_mu_;
  std::deque<CachedBatch> unmerged_batches_ GUARDED_BY(batches_mu_);
  // Cleaner moves not yet applied to the caches, as (node, move).
  std::vector<std::pair<int, dpm::Relocation>> relocated_
      GUARDED_BY(batches_mu_);
  std::atomic<bool> relocated_pending_{false};

  // Statistics: the cumulative counts, plus this epoch's load (busy time
  // and key access counts, drained by DrainEpochLoad).
  struct : WorkerStats {
    double busy_us = 0.0;
  } stats_;
  std::unordered_map<uint64_t, uint64_t> access_counts_;
  static constexpr size_t kMaxTrackedKeys = 1 << 16;
};

/// Hands each move of a log-cleaner pass on DPM node `node` to the
/// worker serving its key under `table` (KnWorker::OnEntriesRelocated).
/// `worker_of(kn_id, thread)` returns nullptr for a KN that is gone.
void DeliverRelocations(
    const cluster::RoutingTable& table, int node,
    const std::vector<dpm::Relocation>& moves,
    const std::function<KnWorker*(uint64_t, int)>& worker_of);

}  // namespace kn
}  // namespace dinomo

#endif  // DINOMO_KN_KN_WORKER_H_
