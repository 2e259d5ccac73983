#ifndef DINOMO_NET_FABRIC_H_
#define DINOMO_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace net {

/// Performance profile of the KN <-> DPM interconnect, defaulting to the
/// paper's testbed: Mellanox FDR 56 Gbps (~7 GB/s usable), one-sided
/// round-trip latency in the low microseconds.
struct LinkProfile {
  /// Latency of one one-sided round trip (RDMA read/write/CAS), in us.
  double rt_latency_us = 2.0;
  /// Usable link bandwidth in GB/s (bytes stream at this rate on top of
  /// the base latency).
  double bandwidth_gbps = 7.0;

  /// Time for `bytes` payload bytes on the wire, in us.
  double TransferUs(uint64_t bytes) const {
    return static_cast<double>(bytes) / (bandwidth_gbps * 1e3);
  }
};

/// Cost of one key-value operation, accumulated across every fabric access
/// the operation performs. The KN sets a thread-local accumulator around
/// each request; the virtual-time engine converts the cost to service time,
/// and the profiling harness reports round trips per operation (Table 5/6).
struct OpCost {
  uint32_t round_trips = 0;
  uint64_t wire_bytes = 0;
  /// DPM processor time consumed synchronously (two-sided ops), us.
  double dpm_cpu_us = 0.0;
  /// Extra latency already determined (e.g. RPC overheads), us.
  double extra_latency_us = 0.0;

  void Clear() { *this = OpCost{}; }

  /// Folds another accumulator into this one (nested ScopedOpCost exit).
  void Add(const OpCost& other) {
    round_trips += other.round_trips;
    wire_bytes += other.wire_bytes;
    dpm_cpu_us += other.dpm_cpu_us;
    extra_latency_us += other.extra_latency_us;
  }

  /// End-to-end network latency this cost implies under `profile`.
  double LatencyUs(const LinkProfile& profile) const {
    return round_trips * profile.rt_latency_us + profile.TransferUs(wire_bytes) +
           extra_latency_us;
  }
};

/// Simulated RDMA interconnect between KVS nodes and the DPM pool.
///
/// Substitution for the paper's InfiniBand verbs: every one-sided operation
/// performs the real data movement against the PmPool (so all data
/// structures behave exactly as they would remotely) and charges round
/// trips and wire bytes to (a) a thread-local per-operation OpCost, if one
/// is installed, and (b) per-initiator cumulative counters. CAS is executed
/// with a real atomic on the pool memory, giving the same linearization
/// guarantees one-sided RDMA CAS provides.
class Fabric {
 public:
  static constexpr int kMaxNodes = 64;

  /// Traffic counters publish into `registry` (nullptr = the global one)
  /// under `fabric.node<N>.<metric>`; pass a private registry to isolate
  /// an experiment.
  Fabric(pm::PmPool* pool, LinkProfile profile = LinkProfile{},
         obs::MetricsRegistry* registry = nullptr);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const LinkProfile& profile() const { return profile_; }
  pm::PmPool* pool() { return pool_; }

  /// Installs a fault injector consulted on every fabric operation
  /// (nullptr = fault-free). Non-owning: the runtime that owns the
  /// injector must keep it alive while traffic flows.
  void SetFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

  // Every one-sided op reports its own completion, as a verbs work
  // completion does. A dropped op (fault injection) still pays its round
  // trip, moves no data and returns Unavailable; a dropped read
  // zero-fills its destination. Reads take their addresses from PM bytes
  // (bucket links, skiplist links, value pointers), so a read outside the
  // pool completes with Corruption instead of aborting; a write or CAS
  // outside the pool is a KN bug and still aborts.

  /// One-sided RDMA read: copies [src, src+len) from DPM into dst.
  /// 1 round trip + len wire bytes.
  [[nodiscard]] Status Read(int node, pm::PmPtr src, void* dst, size_t len);

  /// One-sided RDMA write: copies [src, src+len) into DPM at dst.
  /// 1 round trip + len wire bytes. `loc` defaults to the KN-side call
  /// site, which is what the PM checker attributes the store to.
  [[nodiscard]] Status Write(
      int node, const void* src, pm::PmPtr dst, size_t len,
      const pm::SourceLoc& loc = pm::SourceLoc::current());

  /// Write variant for a *publication point*: identical wire cost, but the
  /// durable store is a PersistPublish, so the PM checker verifies no
  /// same-thread store outside [dst, dst+len) is still dirty. The
  /// replicated flush protocol publishes the log commit marker with this
  /// (payload and mirror copy must already be durable — replicate-before-
  /// ack).
  [[nodiscard]] Status WritePublish(
      int node, const void* src, pm::PmPtr dst, size_t len,
      const pm::SourceLoc& loc = pm::SourceLoc::current());

  /// One-sided 8-byte atomic compare-and-swap at a 8-aligned DPM address.
  /// Returns true and installs desired iff *addr == expected, false when
  /// the compare failed, and an error when the op was dropped.
  /// 1 round trip. A successful CAS is treated as a publication point
  /// (that is what remote CAS is for: installing a pointer others follow).
  [[nodiscard]] Result<bool> CompareAndSwap64(
      int node, pm::PmPtr addr, uint64_t expected, uint64_t desired,
      const pm::SourceLoc& loc = pm::SourceLoc::current());

  /// One-sided 8-byte atomic read. 1 round trip.
  [[nodiscard]] Result<uint64_t> AtomicRead64(int node, pm::PmPtr addr);

  /// One-sided 8-byte atomic write. 1 round trip.
  [[nodiscard]] Status AtomicWrite64(
      int node, pm::PmPtr addr, uint64_t value,
      const pm::SourceLoc& loc = pm::SourceLoc::current());

  /// Charges the cost of a two-sided operation (an RPC executed by a DPM
  /// processor on the caller's behalf): 1 round trip, request/response
  /// bytes, RPC overhead, and `dpm_cpu_us` of DPM processor time. `what`
  /// labels the handler in trace spans (static lifetime).
  void ChargeRpc(int node, uint64_t req_bytes, uint64_t resp_bytes,
                 double dpm_cpu_us, const char* what = "rpc");

  /// Doorbell-style batch of independent one-sided ops against a single
  /// DPM node.
  ///
  /// Models the verbs idiom of posting several work requests and ringing
  /// the doorbell once: the NIC pipelines the ops back-to-back, so the
  /// whole batch completes in one fabric round trip while every op's wire
  /// bytes are still paid. Each fused op completes on its own, exactly as
  /// the plain op would (the fault injector decides per op; a duplicate
  /// pays double wire bytes), and records its own trace span — the
  /// batch's single round trip rides on the first span (rts=0 on the
  /// rest) so the trace-vs-OpCost round-trip cross-check stays exact. A
  /// batch of one degenerates to the plain op; a batch of N>=2 saves N-1
  /// round trips and counts into the
  /// fabric.doorbell.{batches,fused_ops,saved_rts} metrics.
  class OpBatch {
   public:
    OpBatch(Fabric* fabric, int node) : fabric_(fabric), node_(node) {}

    OpBatch(const OpBatch&) = delete;
    OpBatch& operator=(const OpBatch&) = delete;

    /// Queues one op. Execute stores the op's own completion status in
    /// `*fate` when it is non-null.
    void AddRead(pm::PmPtr src, void* dst, size_t len,
                 Status* fate = nullptr);
    void AddWrite(const void* src, pm::PmPtr dst, size_t len,
                  Status* fate = nullptr,
                  const pm::SourceLoc& loc = pm::SourceLoc::current());

    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    int node() const { return node_; }

    /// Executes every queued op in one fused fabric round and clears the
    /// batch for reuse. Returns Ok when every op landed, else the first
    /// failed op's status; each op's own fate goes to its `fate` slot.
    [[nodiscard]] Status Execute();

   private:
    struct Pending {
      bool is_read;
      pm::PmPtr remote;
      void* dst;        // read destination (reads only)
      const void* src;  // write source (writes only)
      size_t len;
      Status* fate;
      pm::SourceLoc loc;
    };

    Fabric* fabric_;
    int node_;
    std::vector<Pending> ops_;
  };

  /// Installs `cost` as the accumulator all fabric calls on this thread
  /// charge into (nullptr to uninstall). Scoped helper below.
  static void SetThreadOpCost(OpCost* cost);
  static OpCost* ThreadOpCost();

  /// Snapshot of the cumulative traffic one initiating node generated.
  /// The live counters themselves are obs::Counter objects published to
  /// the metrics registry (`fabric.node<N>.round_trips`, ...); this is a
  /// plain-value view for tests and harness code.
  struct NodeCounters {
    uint64_t round_trips = 0;
    uint64_t wire_bytes = 0;
    uint64_t one_sided_reads = 0;
    uint64_t one_sided_writes = 0;
    uint64_t cas_ops = 0;
    uint64_t rpcs = 0;
  };

  NodeCounters counters(int node) const;

  uint64_t TotalRoundTrips() const;

 private:
  /// Live counters for one initiating node, registered with the metrics
  /// registry the first time the node touches the fabric.
  struct NodeMetrics {
    obs::Counter round_trips;
    obs::Counter wire_bytes;
    obs::Counter one_sided_reads;
    obs::Counter one_sided_writes;
    obs::Counter cas_ops;
    obs::Counter rpcs;
    std::atomic<bool> registered{false};
  };

  void EnsureRegistered(int node);
  void Charge(int node, uint32_t rts, uint64_t bytes);
  /// Asks the injector about one op: applies delay (latency charge plus
  /// optional wall-clock sleep) here, returns the decision so each op
  /// implements drop/duplicate semantics itself.
  FaultDecision ConsultInjector(int node, bool allow_drop);
  /// Completes one posted read under `d`: copies the payload, or
  /// zero-fills `dst` (never remote garbage — zero decodes as invalid
  /// everywhere) and returns why the read failed.
  Status LandRead(const FaultDecision& d, pm::PmPtr src, void* dst,
                  size_t len);
  /// Completes one posted durable write under `d` (a dropped write
  /// changes no remote byte). `publish` persists with PersistPublish.
  Status LandWrite(const FaultDecision& d, const void* src, pm::PmPtr dst,
                   size_t len, const pm::SourceLoc& loc, bool publish);
  Status WriteImpl(int node, const void* src, pm::PmPtr dst, size_t len,
                   const pm::SourceLoc& loc, bool publish);

  pm::PmPool* pool_;
  LinkProfile profile_;
  obs::MetricsRegistry* registry_;
  // Doorbell fusion totals across all initiators (registered eagerly;
  // duplicate names across Fabric instances aggregate in snapshots).
  obs::Counter doorbell_batches_;
  obs::Counter doorbell_fused_ops_;
  obs::Counter doorbell_saved_rts_;
  std::atomic<FaultInjector*> injector_{nullptr};
  // Leaf lock serializing first-touch metric registration; the
  // registered flag is double-checked so the hot path stays lock-free.
  Mutex register_mu_;
  std::vector<NodeMetrics> counters_;
};

/// RAII scope installing an OpCost accumulator on the current thread.
/// Nesting-safe: an inner scope accumulates into its own OpCost, and on
/// exit folds those totals into the outer accumulator exactly once, so
/// the outer scope still sees every charge without double counting.
/// Re-installing the accumulator already active leaves it untouched.
class ScopedOpCost {
 public:
  explicit ScopedOpCost(OpCost* cost)
      : cost_(cost), prev_(Fabric::ThreadOpCost()) {
    if (cost_ != prev_) cost_->Clear();
    Fabric::SetThreadOpCost(cost_);
  }
  ~ScopedOpCost() {
    Fabric::SetThreadOpCost(prev_);
    if (prev_ != nullptr && prev_ != cost_) prev_->Add(*cost_);
  }

  ScopedOpCost(const ScopedOpCost&) = delete;
  ScopedOpCost& operator=(const ScopedOpCost&) = delete;

 private:
  OpCost* cost_;
  OpCost* prev_;
};

}  // namespace net
}  // namespace dinomo

#endif  // DINOMO_NET_FABRIC_H_
