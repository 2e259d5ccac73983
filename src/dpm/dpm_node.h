#ifndef DINOMO_DPM_DPM_NODE_H_
#define DINOMO_DPM_DPM_NODE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/striped_map.h"
#include "dpm/log.h"
#include "dpm/merge.h"
#include "index/clht.h"
#include "index/skiplist.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace dpm {

/// Configuration of the DPM node.
struct DpmOptions {
  size_t pool_size = 512 * 1024 * 1024;
  int index_log2_buckets = 12;
  size_t segment_size = kDefaultSegmentSize;
  /// KNs block log writes when this many of their segments have unmerged
  /// data (paper §4: default 2).
  int unmerged_segment_threshold = 2;
  bool crash_sim = false;
  /// DINOMO-N mode: data and metadata are physically partitioned — each
  /// KN gets its own index, and reconfiguration must reorganize data
  /// (paper §5, "DINOMO-N ... partitions data and metadata in DPM").
  bool partitioned_metadata = false;
  MergeProfile merge_profile = MergeProfile::Dram();
  net::LinkProfile link_profile;
  /// Identity of this node inside a replicated DpmPool (0 for the single-
  /// node setups). Stamped into every MergeAck so KNs can tell a primary's
  /// ack from its mirror's.
  int node_id = 0;
  /// Registry the node (and the Fabric, PmPool and MergeService it
  /// creates) publishes metrics into; nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// State of one log segment, tracked at the DPM.
enum class SegmentState : uint64_t {
  kActive = 1,   // owner KN still appends batches
  kSealed = 2,   // full; no more appends
  kFreed = 3,    // garbage collected
};

/// Statistics snapshot of the DPM node.
struct DpmStats {
  uint64_t segments_allocated = 0;
  uint64_t segments_gced = 0;  // cleaned victims included
  uint64_t live_segments = 0;
  uint64_t clean_victims = 0;    // segments freed by the log cleaner
  uint64_t clean_relocated = 0;  // live entries it moved
  uint64_t clean_lost = 0;       // copies a racing merge made moot
  uint64_t merged_batches = 0;
  uint64_t merged_entries = 0;
  uint64_t index_count = 0;
  uint64_t index_epoch = 0;
  uint64_t ordered_count = 0;
  uint64_t ordered_version = 0;
};

/// The disaggregated-PM node: the shared PM pool, the P-CLHT metadata
/// index, the per-KN log segments, the asynchronous merge service run by
/// the (weak) DPM processors, segment garbage collection, and the
/// indirect-pointer directory backing selective replication.
///
/// KNs touch this object two ways, mirroring the paper:
///  * one-sided: through the Fabric (reads of buckets/values, batched log
///    writes, CAS on indirect slots) — no DpmNode method call at all;
///  * two-sided: the RPC-shaped methods below (segment allocation, batch
///    submission, indirect-pointer install/remove), which charge RPC cost
///    to the calling node and consume DPM processor time.
///
/// Concurrency model (see DESIGN.md, "DPM concurrency model"): no global
/// locks. Segment state shards by owner, shared slots by key hash and
/// partition indexes by KN id in lock-striped maps, so RPCs and merges of
/// different owners never serialize against each other. A reader-mostly
/// base->owner index (seg_index_mu_) resolves interior PM pointers to the
/// owning shard; resolution copies the reference and releases the index
/// lock before touching the shard, and generation counters catch a base
/// being GC-freed and reused in between. Lock order: seg_index_mu_ is
/// never held while acquiring a shard; dir_mu_/sb_mu_ are leaves.
class DpmNode {
 public:
  explicit DpmNode(const DpmOptions& options = DpmOptions());
  ~DpmNode();

  /// Re-attaches to an existing pool after a (simulated) crash: recovers
  /// the metadata index, rebuilds the segment registry from the
  /// persistent segment directory, replays any un-merged committed log
  /// prefixes into the index (replay is idempotent), and rebuilds the
  /// indirect-pointer directory from the index's indirect markers. The
  /// options must match the ones the pool was created with.
  static Result<std::unique_ptr<DpmNode>> Recover(
      const DpmOptions& options, std::unique_ptr<pm::PmPool> pool);

  /// Surrenders the pool (for crash-recovery tests: destroy the node,
  /// SimulateCrash() on the pool, then DpmNode::Recover with it).
  std::unique_ptr<pm::PmPool> DetachPool() &&;

  DpmNode(const DpmNode&) = delete;
  DpmNode& operator=(const DpmNode&) = delete;

  net::Fabric* fabric() { return fabric_.get(); }
  pm::PmPool* pool() { return pool_.get(); }

  /// Installs a fault injector consulted at the entry of every two-sided
  /// RPC (nullptr = fault-free). A rejected RPC returns Unavailable/Busy
  /// before touching any DPM state, modeling a DPM processor that bounced
  /// the request. Non-owning.
  void SetFaultInjector(net::FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  pm::PmAllocator* allocator() { return alloc_.get(); }
  index::Clht* index() { return index_.get(); }
  /// The ordered (range-scan) index. Shared across KNs even in DINOMO-N
  /// mode: scans are a shared-metadata workload class; the partitioned
  /// configuration serves them from the same list.
  index::PmSkipList* ordered() { return ordered_.get(); }

  /// The metadata index serving KN `kn_id`: the shared index in DINOMO
  /// mode, or the KN's private partition index in DINOMO-N mode (created
  /// on first use).
  index::Clht* IndexFor(uint64_t kn_id);
  MergeService* merge() { return merge_.get(); }
  const DpmOptions& options() const { return options_; }

  // ----- Two-sided RPCs from KNs -----

  /// Allocates a fresh log segment for `owner`. Returns its base PmPtr.
  /// The first 64 bytes of a segment are its header; entries start at
  /// base + 64. Charged as an RPC to `kn_node`.
  Result<pm::PmPtr> AllocateSegment(int kn_node, uint64_t owner);

  /// Result of submitting a batch: the current index epoch is piggybacked
  /// so the KN can refresh its remote index handle when stale (keeps
  /// stale-table reads safe across resizes; see index/clht.h).
  struct SubmitResult {
    uint64_t index_epoch = 0;
    /// Segments of this owner that still hold unmerged data, including
    /// the one just submitted. The KN blocks new segment allocation when
    /// this reaches the configured threshold.
    int unmerged_segments = 0;
  };

  /// Registers a batch the KN already wrote (one-sided) into `segment` at
  /// [data, data+bytes) for asynchronous merging. `puts` counts PUT
  /// entries for GC accounting. Cheap (enqueue only); the merge itself is
  /// the asynchronous post-processing of §3.6.
  Result<SubmitResult> SubmitBatch(int kn_node, uint64_t owner,
                                   pm::PmPtr segment, pm::PmPtr data,
                                   size_t bytes, uint64_t puts);

  /// Marks a segment full; once all its batches merge and all its values
  /// are superseded it becomes garbage-collectible.
  Status SealSegment(int kn_node, uint64_t owner, pm::PmPtr segment);

  /// Number of segments of `owner` with unmerged data.
  int UnmergedSegments(uint64_t owner) const;

  // ----- Selective replication: indirect pointers (§3.4) -----

  /// Converts `key_hash` to shared mode: allocates an indirect slot
  /// initialized with the key's current index value and re-points the
  /// index at the slot (with the indirect bit set). Returns the slot's
  /// PmPtr, which KNs then access with one-sided reads/CAS. Idempotent.
  Result<pm::PmPtr> InstallIndirect(int kn_node, uint64_t key_hash);

  /// Ends shared mode: writes the slot's final value back into the index
  /// and frees the slot. Callers must have invalidated KN caches first.
  Status RemoveIndirect(int kn_node, uint64_t key_hash);

  /// True if the key is currently in shared (replicated) mode.
  bool IsShared(uint64_t key_hash) const;
  /// Slot address for a shared key (kNullPmPtr if not shared).
  pm::PmPtr SharedSlot(uint64_t key_hash) const;

  // ----- Used by MergeService (DPM-processor context) -----

  /// Applies one decoded record (written by log owner `owner`) to the
  /// appropriate index and updates GC counters.
  void ApplyRecord(uint64_t owner, const LogRecord& rec, pm::PmPtr entry_ptr,
                   uint32_t entry_size);

  /// A merged PUT at `entry_ptr` was superseded: charge the containing
  /// segment's invalid counter and GC it if fully dead. Safe against the
  /// segment being freed or its base reused concurrently, provided the
  /// caller took `entry_ptr` out of the index inside the
  /// MergeService::ExecutingScope it charges from (see CleanPass).
  void NoteSuperseded(pm::PmPtr entry_ptr);

  /// Records that the batch [data, data+bytes) of `segment` finished
  /// merging; persists merge progress and GC-frees the segment if done.
  void CompleteBatch(uint64_t owner, pm::PmPtr segment, pm::PmPtr data,
                     size_t bytes);

  // ----- Log cleaning (DESIGN.md, "Log cleaning") -----

  /// True (once) if a segment became worth cleaning since the last call.
  /// MergeService::Finish asks after every task and queues a pass.
  bool TakeCleanRequest() {
    return clean_wanted_.exchange(false, std::memory_order_acq_rel);
  }

  /// One cleaning pass: picks the sealed, fully merged segment with the
  /// best LFS cost-benefit among those at least 40% superseded, copies
  /// its live entries verbatim into the cleaner's own segment (born
  /// merged, so recovery never replays it), publishes each move with a
  /// conditional swap on the CLHT slot (or the indirect slot of a shared
  /// key) and the skiplist node, and frees the victim once every move is
  /// durable. Returns the DPM CPU time charged, us (0 with nothing to
  /// do). Runs as a kCleanerOwner MergeService task, so passes never
  /// overlap (tests call it directly, with no merge thread running);
  /// does nothing in DINOMO-N (partitioned) mode.
  double CleanPass();

  // ----- Failure handling / reconfiguration -----

  /// Synchronously merges all pending batches of `owner` (reconfiguration
  /// step 3 and the failure path of §3.5).
  Status DrainOwner(uint64_t owner) { return merge_->DrainOwner(owner); }

  /// Frees every segment still owned by `owner` that is fully merged and
  /// invalid; used after ownership of a failed KN's range moved on.
  void ReleaseOwnerSegments(uint64_t owner);

  DpmStats Stats() const;

  /// PM offset of the recovery superblock (fixed; first allocation).
  pm::PmPtr superblock_ptr() const { return superblock_; }

 private:
  // Second-phase constructor used by Recover().
  DpmNode(const DpmOptions& options, std::unique_ptr<pm::PmPool> pool);

  void InitFresh();
  Status InitRecovered();
  void WireLockMetrics();

  // Persistent segment-directory maintenance.
  Status DirectoryAdd(pm::PmPtr base, uint64_t owner);
  void DirectoryRemove(pm::PmPtr base);
  void PersistHighWater();
  friend class MergeService;

  struct SegmentInfo {
    uint64_t owner = 0;
    /// Registration generation: distinguishes this incarnation of the
    /// base address from a later segment that reuses it after GC (the
    /// interior-pointer resolver re-checks it — see NoteSuperseded).
    uint64_t gen = 0;
    SegmentState state = SegmentState::kActive;
    size_t used_bytes = 0;     // high-water of submitted batches
    size_t merged_bytes = 0;   // prefix already merged
    uint64_t puts_total = 0;   // PUT entries submitted
    uint64_t puts_invalid = 0; // PUT entries superseded
    int unmerged_batches = 0;
    uint64_t sealed_at = 0;    // seal_clock_ when sealed (cleaner age)
    bool cleaning = false;     // a cleaner pass owns it; GC keeps off
  };

  /// One owner's segments, kept whole inside a single stripe so per-owner
  /// operations (submit, seal, complete, unmerged count) stay one-lock.
  struct OwnerSegments {
    std::map<pm::PmPtr, SegmentInfo> segments;  // base -> info
  };
  using OwnerSegmentMap = std::unordered_map<uint64_t, OwnerSegments>;

  /// Cross-shard handle to a segment: enough to find (and re-validate)
  /// it inside its owner's stripe.
  struct SegRef {
    uint64_t owner = 0;
    uint64_t gen = 0;
  };

  /// Registers a freshly allocated or recovered segment in its owner's
  /// shard and the base index.
  void RegisterSegment(pm::PmPtr base, const SegmentInfo& info);

  /// Exact-base lookup in the base index (for RPC owner validation).
  bool LookupSegRef(pm::PmPtr base, SegRef* ref) const;

  /// GC check; runs with the owner's stripe held. Frees a sealed, merged
  /// segment whose puts are all superseded; flags one at least 40%
  /// superseded for the cleaner.
  void MaybeGcOwnerLocked(OwnerSegments& os, pm::PmPtr base,
                          SegmentInfo* info);

  /// Frees a segment: directory slot, PM block, registry entries.
  void FreeSegmentLocked(OwnerSegments& os, pm::PmPtr base);

  /// Marks a segment sealed in DRAM and PM, stamping its cleaner age.
  void SealLocked(pm::PmPtr base, SegmentInfo* info);

  /// Allocates, persists, lists and registers a fresh segment of `owner`.
  /// `merged_bytes` is the header's merged prefix: 0 for a KN log, the
  /// whole capacity for a cleaner segment (nothing in it is ever replayed).
  Result<pm::PmPtr> NewSegment(uint64_t owner, size_t merged_bytes);

  /// Cleaner steps (see CleanPass). A victim is a sealed segment whose
  /// live entries the pass relocates.
  struct Victim {
    pm::PmPtr base = pm::kNullPmPtr;
    uint64_t owner = 0;
    uint64_t gen = 0;
    size_t used_bytes = 0;
  };
  /// Picks and claims (marks `cleaning`) the best victim; `*more` says
  /// whether another candidate is left for the next pass.
  bool ClaimVictim(Victim* v, bool* more);
  /// True if the CLHT (or the key's indirect slot) or the skiplist still
  /// points at `packed`.
  bool Referenced(uint64_t key_hash, uint64_t okey, ValuePtr packed) const;
  /// Persists the copies staged in the cleaner segment and publishes each
  /// one. Returns how many moves the CLHT or an indirect slot took: their
  /// old entries are dead, and no merge will charge them to the victim.
  uint64_t PublishMoves();
  /// Seals the full cleaner segment (if any) and opens a fresh one.
  Status RollCleanerSegment();
  /// Recovery: resets each merged segment's counts to what the recovered
  /// indexes still reference (headers lag behind the DRAM counts).
  void RecountLiveEntries();

  /// The RPC-rejection check every two-sided entry point runs first.
  Status RpcFault(int kn_node) {
    net::FaultInjector* injector = injector_.load(std::memory_order_acquire);
    return injector != nullptr ? injector->OnRpc(kn_node) : Status::Ok();
  }

  DpmOptions options_;
  std::atomic<net::FaultInjector*> injector_{nullptr};
  obs::MetricGroup metrics_;  // dpm.*
  obs::Counter& segments_allocated_;
  obs::Counter& segments_gced_;
  obs::Counter& log_batches_;
  obs::Counter& log_bytes_;
  obs::Counter& log_puts_;
  obs::Counter& clean_victims_;     // dpm.clean.victims
  obs::Counter& clean_relocated_;   // dpm.clean.relocated
  obs::Counter& clean_lost_;        // dpm.clean.lost (a merge won)
  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<pm::PmAllocator> alloc_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<index::Clht> index_;
  std::unique_ptr<index::PmSkipList> ordered_;
  std::unique_ptr<MergeService> merge_;

  pm::PmPtr superblock_ = pm::kNullPmPtr;

  // Segment registry, sharded by owner (contention: dpm.lock.seg.*).
  StripedMap<uint64_t, OwnerSegments, OwnerSegmentMap> seg_shards_{16};
  // Base -> (owner, gen) for interior-pointer resolution and RPC owner
  // checks. Read-mostly; writers are segment birth and GC death. Never
  // held while acquiring a stripe.
  mutable SharedMutex seg_index_mu_;
  std::map<pm::PmPtr, SegRef> seg_index_ GUARDED_BY(seg_index_mu_);
  std::atomic<uint64_t> seg_gen_{0};
  // Segments sealed so far: the cleaner's deterministic age unit.
  std::atomic<uint64_t> seal_clock_{0};
  std::atomic<bool> clean_wanted_{false};

  // The cleaner's open destination segment and the copies staged in it
  // but not yet published. Only CleanPass touches these, and passes are
  // serialized as one MergeService owner (kCleanerOwner), whose queue
  // lock orders consecutive passes.
  struct StagedMove {
    uint64_t key_hash;
    uint64_t okey;
    ValuePtr from;
    ValuePtr to;
  };
  pm::PmPtr clean_dest_ = pm::kNullPmPtr;
  size_t clean_dest_used_ = 0;       // bytes published in clean_dest_
  size_t clean_staged_bytes_ = 0;    // bytes copied after that
  std::vector<StagedMove> clean_staged_;
  std::vector<Relocation> clean_notices_;

  // Persistent segment directory + slot cache. Leaf lock: taken inside
  // stripe closures, never the other way around.
  Mutex dir_mu_;
  std::map<pm::PmPtr, int> segment_dir_slots_ GUARDED_BY(dir_mu_);

  // Serializes superblock high-water persistence (guards the PM write,
  // not a DRAM field). Leaf lock.
  Mutex sb_mu_;

  // key hash -> indirect slot (contention: dpm.lock.shared.*).
  StripedMap<uint64_t, pm::PmPtr> shared_slots_{64};

  // KN id -> private partition index (contention: dpm.lock.part.*).
  StripedMap<uint64_t, std::unique_ptr<index::Clht>> partition_index_{16};
};

}  // namespace dpm
}  // namespace dinomo

#endif  // DINOMO_DPM_DPM_NODE_H_
