#ifndef DINOMO_DPM_MERGE_H_
#define DINOMO_DPM_MERGE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace dpm {

class DpmNode;

/// Cost profile for merge work executed by DPM processors. The Figure-4
/// experiment contrasts a DRAM-backed DPM with an Optane-PM-backed one;
/// the per-entry cost difference (PM's higher media latency and in-DIMM
/// write amplification) is what makes the PM profile need more DPM threads
/// to keep up with the KNs' log-write rate.
struct MergeProfile {
  /// DPM processor time to merge one log entry into the index, us.
  double per_entry_us = 0.73;
  /// Additional time per payload byte (media write bandwidth), us/byte.
  double per_byte_us = 0.0002;

  /// Calibrated so that, for the paper's 1 KB entries, 4 DPM threads
  /// merge at roughly the KNs' log-write max (Figure 4).
  static MergeProfile Dram() { return MergeProfile{0.73, 0.0002}; }
  /// Optane PM: higher media latency and in-DIMM write amplification make
  /// merging slower per entry — with 4 threads it lands ~16% below the
  /// log-write max (§5.1: "PM merge throughput is lower than DRAM").
  static MergeProfile OptanePm() { return MergeProfile{0.84, 0.00026}; }
};

/// Log-owner id of the DPM's own log cleaner (DpmNode::CleanPass). A task
/// of this owner carries no batch: executing it runs one cleaning pass.
/// KN owners are (kn_id << 8) | worker with kn_id >= 1, and the pool's
/// repair owner is 0x52, so no log owner collides with it.
inline constexpr uint64_t kCleanerOwner = 0x43;  // 'C'

/// One contiguous batch of log entries awaiting merge.
struct MergeTask {
  uint64_t owner = 0;       // KN that wrote the batch
  pm::PmPtr segment = 0;    // segment base
  pm::PmPtr data = 0;       // start of the batch inside the segment
  size_t bytes = 0;
  uint64_t puts = 0;
};

/// Completion notice fired after a batch merges. Carries the merged
/// batch's exact location so the owning KN worker can evict precisely the
/// cached batch that merged — with >= 2 merge threads, completions of
/// *different* owners interleave arbitrarily, so "pop the oldest cached
/// batch" is wrong; only a base match identifies the batch.
struct MergeAck {
  uint64_t owner = 0;
  pm::PmPtr segment = 0;  // segment base
  pm::PmPtr base = 0;     // start of the merged batch (MergeTask::data)
  size_t bytes = 0;
  /// DpmOptions::node_id of the node that merged the batch. With a
  /// replicated DPM pool the same batch merges on the primary *and* its
  /// mirror; PmPtr offsets are per-pool, so only (node, base) identifies a
  /// cached batch. KNs evict on the primary's ack and ignore the mirror's.
  int node = 0;
};

/// One live entry the log cleaner moved (DpmNode::CleanPass): the bytes
/// at `to` are a verbatim copy of those at `from`, both packed ValuePtrs.
/// A KN cache that still holds `from` for the key can simply repoint.
struct Relocation {
  uint64_t key_hash = 0;
  uint64_t from = 0;
  uint64_t to = 0;
};

/// Asynchronous merge service run by the DPM processors (§3.2/§3.6):
/// consumes sealed log batches and applies them, in per-owner order, to
/// the metadata index. Batches of *different* owners merge concurrently;
/// a single owner's batches are strictly serialized, which (together with
/// ownership partitioning) is what makes writes linearizable.
///
/// Scheduling: each owner has a FIFO task queue; owners with runnable
/// work sit in a FIFO runnable list, so dispatch is O(1) instead of a
/// scan over all owners. Real-thread workers prefer owners hashed to
/// their own slot (owner % num_workers) and steal the oldest runnable
/// owner when their slot is empty — cross-owner work stealing keeps all
/// DPM processors busy under skew without breaking per-owner order.
///
/// The log cleaner rides the same queues as owner kCleanerOwner: when a
/// finished merge leaves a segment worth cleaning (DpmNode::
/// TakeCleanRequest), Finish queues one cleaner pass, which competes with
/// merges for the DPM processors like any owner's batch.
///
/// Two drive modes:
///  * real-thread: StartThreads(n) spawns n DPM worker threads;
///  * virtual-time: the cluster simulator calls TryDequeue()/Execute()
///    itself and uses the returned CPU time as the server's service time.
class MergeService {
 public:
  /// Merge throughput metrics publish into `registry` (nullptr = the
  /// global one) under `dpm.merge.*`.
  explicit MergeService(DpmNode* dpm, MergeProfile profile = MergeProfile(),
                        obs::MetricsRegistry* registry = nullptr);
  ~MergeService();

  MergeService(const MergeService&) = delete;
  MergeService& operator=(const MergeService&) = delete;

  const MergeProfile& profile() const { return profile_; }
  /// Pre-start configuration only: Execute reads the profile without a
  /// lock, so this must not be called once merge traffic flows.
  void set_profile(MergeProfile p) { profile_ = p; }

  /// Queues a batch for asynchronous merging.
  void Enqueue(const MergeTask& task) EXCLUDES(mu_);

  /// Dequeues the next runnable task (per-owner ordering respected).
  /// Returns false if no owner currently has runnable work.
  bool TryDequeue(MergeTask* task) EXCLUDES(mu_);

  /// Applies the task to the index (or, for kCleanerOwner, runs one
  /// cleaning pass). Returns the DPM CPU time consumed under the current
  /// profile. Must be followed by Finish(task).
  double Execute(const MergeTask& task);

  /// Marks the task's owner runnable again and fires merge callbacks.
  void Finish(const MergeTask& task) EXCLUDES(mu_);

  /// Convenience for real-thread workers and tests: dequeue + execute +
  /// finish. Returns false when idle.
  bool ProcessOne();

  /// Synchronously merges everything queued for `owner`. Used by the
  /// reconfiguration protocol (step 3: "DPM synchronously merges the data
  /// in logs for these KNs") and by failure handling.
  Status DrainOwner(uint64_t owner) EXCLUDES(mu_);

  /// Synchronously merges everything queued for all owners, then runs
  /// the cleaner passes those merges asked for.
  Status DrainAll() EXCLUDES(mu_);

  /// Marks a batch merge as executing for the scope's lifetime. Execute
  /// holds one per batch, from the first index update to the last
  /// supersession it charges (DpmNode::NoteSuperseded).
  class ExecutingScope {
   public:
    explicit ExecutingScope(MergeService* merge);
    ~ExecutingScope();
    ExecutingScope(const ExecutingScope&) = delete;
    ExecutingScope& operator=(const ExecutingScope&) = delete;

   private:
    MergeService* merge_;
    uint64_t ticket_;
  };

  /// Returns once every ExecutingScope open at the call has closed.
  /// CleanPass waits here before it frees a victim: a merge that took a
  /// victim entry out of the CLHT has then charged it to the victim, and
  /// a merge that starts later finds no victim entry in any index. (In
  /// the virtual-time sim no Execute overlaps a pass: it returns at once.)
  void WaitForExecutingMerges() EXCLUDES(mu_);

  /// Number of batches queued (or in flight) for one owner.
  uint64_t PendingBatches(uint64_t owner) const EXCLUDES(mu_);
  uint64_t TotalPendingBatches() const EXCLUDES(mu_);

  /// Registered callback fired after each batch merge completes. The ack
  /// identifies the exact batch (owner + segment + base), letting the KN
  /// evict its cached copy by base match; the virtual-time engine also
  /// uses it to wake blocked writers.
  void SetMergeCallback(std::function<void(const MergeAck&)> cb) EXCLUDES(mu_);

  /// Registered callback fired by each cleaner pass with the entries it
  /// moved through the CLHT (never a shared key's slot) and the node's
  /// DpmOptions::node_id; the runtimes route each to the KN worker that
  /// owns the key, which repoints its caches. Without it, KNs find the
  /// moves by validation (a stale pointer fails its decode check).
  void SetRelocationCallback(
      std::function<void(int node, const std::vector<Relocation>&)> cb)
      EXCLUDES(mu_);

  /// Hands `moves` to the relocation callback, if one is set. The pass
  /// calls it before it frees the moves' old segment: once the allocator
  /// can hand that block out again, a new entry of a moved key may land
  /// at a move's `from`, and a notice applied after that write would
  /// repoint the new entry's pointer at the older copy.
  void NotifyRelocations(const std::vector<Relocation>& moves)
      EXCLUDES(mu_);

  /// Records a standalone merge_exec trace span per executed batch into
  /// `tracer` (nullptr = off). Non-owning; installed by the runtime at
  /// startup, before merge traffic flows.
  void SetTracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// Background worker management (real-thread mode).
  void StartThreads(int n);
  void StopThreads();

  uint64_t merged_batches() const { return merged_batches_.value(); }
  uint64_t merged_entries() const { return merged_entries_.value(); }
  /// Total DPM CPU-time charged for merges so far, us.
  double merged_cpu_us() const { return merged_cpu_us_.value(); }

 private:
  struct OwnerQueue {
    std::deque<MergeTask> tasks;
    bool busy = false;  // a task of this owner is executing
  };

  // Invariant: an owner is in runnable_ exactly once iff its queue is
  // !busy with tasks pending. These helpers are the only places that
  // transition it. All require mu_.
  void MarkRunnableLocked(uint64_t owner) REQUIRES(mu_);
  bool PopOwnerTaskLocked(uint64_t owner, MergeTask* task) REQUIRES(mu_);
  void RemoveRunnableLocked(uint64_t owner) REQUIRES(mu_);
  /// Called when the runnable list looks empty: any owner found with
  /// pending, non-busy work is a lost wakeup — count it as a stall and
  /// self-heal by re-listing the owner. Returns true if any were found.
  bool AuditRunnableLocked() REQUIRES(mu_);
  /// Picks the next owner for worker `worker_idx` (-1 = no affinity):
  /// oldest runnable owner homed on this worker, else steal the oldest
  /// overall. Returns false when runnable_ is empty.
  bool PickRunnableLocked(int worker_idx, MergeTask* task) REQUIRES(mu_);
  void UpdateDepthLocked() REQUIRES(mu_);
  /// Appends `task` to its owner's queue, listing the owner if it became
  /// runnable.
  void PushLocked(const MergeTask& task) REQUIRES(mu_);

  void WorkerLoop(int worker_idx);

  DpmNode* dpm_;
  MergeProfile profile_;

  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar drain_cv_;
  std::unordered_map<uint64_t, OwnerQueue> queues_ GUARDED_BY(mu_);
  // FIFO of owners with runnable work.
  std::deque<uint64_t> runnable_ GUARDED_BY(mu_);
  uint64_t queued_total_ GUARDED_BY(mu_) = 0;  // queued + in-flight
  uint64_t max_depth_seen_ GUARDED_BY(mu_) = 0;
  // Monotonic count of completed batches; DrainOwner's wait predicate
  // ("some batch finished since I looked") keys off it.
  uint64_t finish_events_ GUARDED_BY(mu_) = 0;
  // Start tickets of the open ExecutingScopes (at most one per thread).
  std::vector<uint64_t> executing_ GUARDED_BY(mu_);
  uint64_t next_ticket_ GUARDED_BY(mu_) = 0;
  CondVar executing_cv_;
  int num_workers_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;

  std::function<void(const MergeAck&)> merge_cb_ GUARDED_BY(mu_);
  std::function<void(int, const std::vector<Relocation>&)> relocation_cb_
      GUARDED_BY(mu_);
  std::atomic<obs::Tracer*> tracer_{nullptr};
  std::vector<std::thread> workers_;

  obs::MetricGroup metrics_;  // dpm.merge.*
  obs::Counter& merged_batches_;
  obs::Counter& merged_entries_;
  obs::Gauge& merged_cpu_us_;
  obs::Gauge& queue_depth_;      // dpm.merge.queue.depth
  obs::Gauge& queue_max_depth_;  // dpm.merge.queue.max_depth
  obs::Counter& queue_steals_;   // dpm.merge.queue.steals
  obs::Counter& queue_stalls_;   // dpm.merge.queue.stalls
};

}  // namespace dpm
}  // namespace dinomo

#endif  // DINOMO_DPM_MERGE_H_
