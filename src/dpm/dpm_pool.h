#ifndef DINOMO_DPM_DPM_POOL_H_
#define DINOMO_DPM_DPM_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dpm/dpm_node.h"
#include "obs/metrics.h"

namespace dinomo {
namespace dpm {

/// Configuration of a replicated DPM pool.
struct DpmPoolOptions {
  /// Number of DpmNode instances. Key hashes partition across them on a
  /// consistent-hash ring; with partitioned_metadata (DINOMO-N) this is
  /// clamped to 1 (that variant physically partitions by KN instead).
  int nodes = 1;
  /// Copies of every log batch: 1 = unreplicated (today's behavior),
  /// 2 = primary + mirror with replicate-before-ack ordering. Clamped to
  /// [1, min(2, nodes)].
  int replication_factor = 1;
  /// Per-node template; node_id is stamped per instance.
  DpmOptions dpm;
};

/// Where a key hash lives in the pool, stamped with the placement
/// generation it was computed under. The generation bumps on every
/// membership change (node fail-stop); RPCs routed under an older
/// generation are rejected so a KN can never act on a stale promotion.
struct DpmPlacement {
  int primary = -1;
  int mirror = -1;  // -1: unreplicated, or no second node alive
  uint64_t generation = 0;

  bool operator==(const DpmPlacement& o) const {
    return primary == o.primary && mirror == o.mirror &&
           generation == o.generation;
  }
};

/// A pool of DpmNode instances with AsymNVM-style mirrored placement:
/// each key range has a primary (its ring owner) and, with
/// replication_factor 2, a mirror (the next distinct node clockwise).
/// The successor relation doubles as the promotion rule — when a primary
/// fail-stops and leaves the ring, the new owner of each of its ranges is
/// exactly the range's old mirror, so promotion is a ring removal plus a
/// generation bump, with no per-range state to move.
///
/// The pool itself holds no data path: KNs keep talking to individual
/// nodes' fabrics one-sided, and route two-sided RPCs through the
/// generation-stamped wrappers below. See DESIGN.md "Replication model".
class DpmPool {
 public:
  explicit DpmPool(const DpmPoolOptions& options);
  /// Non-owning single-node view (tests and harnesses that construct a
  /// DpmNode directly). Placement is trivially {primary=0, mirror=-1}.
  explicit DpmPool(DpmNode* node);
  ~DpmPool();

  DpmPool(const DpmPool&) = delete;
  DpmPool& operator=(const DpmPool&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int replication_factor() const { return replication_factor_; }
  DpmNode* node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  bool alive(int i) const;
  int num_alive() const;
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  DpmPlacement PlacementOf(uint64_t key_hash) const;

  /// Log owner id used for re-replication repair batches (below any real
  /// KN's `(kn_id << 8) | worker` encoding, so it never collides).
  static constexpr uint64_t kRepairOwner = 0x52;  // 'R'

  // ----- Generation-stamped two-sided RPCs ---------------------------------
  // Same semantics as the DpmNode methods, plus routing validation: a dead
  // target or a stale placement generation returns Unavailable before any
  // node state is touched, and the KN re-resolves placement and retries.

  Result<pm::PmPtr> AllocateSegment(int node, uint64_t gen, int kn_node,
                                    uint64_t owner);
  Result<DpmNode::SubmitResult> SubmitBatch(int node, uint64_t gen,
                                            int kn_node, uint64_t owner,
                                            pm::PmPtr segment, pm::PmPtr data,
                                            size_t bytes, uint64_t puts);
  Status SealSegment(int node, uint64_t gen, int kn_node, uint64_t owner,
                     pm::PmPtr segment);

  // ----- Fail-stop and recovery --------------------------------------------

  /// Enacts a DPM fail-stop: marks the node dead, removes it from the
  /// ring (which *is* the promotion — every range it owned falls to its
  /// mirror), drains all pending merges on the surviving nodes so a
  /// promoted mirror serves nothing stale, and bumps the placement
  /// generation. Returns InvalidArgument for an unknown node,
  /// FailedPrecondition if it was already dead or is the last one alive.
  Status KillNode(int node);

  struct RepairStats {
    uint64_t keys_examined = 0;
    uint64_t entries_copied = 0;
    uint64_t bytes_copied = 0;
  };

  /// Restores the mirror count after a membership change: for every key
  /// whose current mirror lacks the primary's value, the primary's log
  /// entry is re-encoded into a repair batch, appended into a segment on
  /// the mirror (two-phase persist, kRepairOwner), submitted, and drained.
  /// Quiescent use only — callers stop KN writes around this (the cluster
  /// runtimes quiesce KNs), otherwise a repair copy could overwrite a
  /// newer concurrently-mirrored value. Indirect (shared-mode) keys are
  /// skipped: the runtimes drop shared mode around a DPM kill.
  Result<RepairStats> ReReplicate();

  /// Measured promotion-to-serving window, published as
  /// `dpm.pool.recovery_window_us` for the CI gate.
  void NoteRecoveryWindow(double us) { recovery_window_us_.Set(us); }

 private:
  Status CheckRoute(int node, uint64_t gen) const;

  int replication_factor_ = 1;
  std::vector<std::unique_ptr<DpmNode>> owned_;
  std::vector<DpmNode*> nodes_;

  mutable Mutex mu_;
  cluster::HashRing ring_ GUARDED_BY(mu_);
  std::vector<char> alive_ GUARDED_BY(mu_);
  std::atomic<uint64_t> generation_{1};

  obs::MetricGroup metrics_;  // dpm.pool.*
  obs::Counter& promotions_;
  obs::Counter& stale_rpcs_;
  obs::Counter& repaired_entries_;
  obs::Counter& repaired_bytes_;
  obs::Gauge& recovery_window_us_;
};

}  // namespace dpm
}  // namespace dinomo

#endif  // DINOMO_DPM_DPM_POOL_H_
