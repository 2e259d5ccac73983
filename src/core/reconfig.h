#ifndef DINOMO_CORE_RECONFIG_H_
#define DINOMO_CORE_RECONFIG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/routing.h"
#include "common/histogram.h"
#include "common/status.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "mnode/policy.h"
#include "net/fault.h"

namespace dinomo {

/// Which system of the paper's evaluation a cluster instantiates (§5,
/// "Comparison points").
enum class SystemVariant {
  kDinomo,   // OP + DAC + selective replication
  kDinomoS,  // shortcut-only cache, otherwise DINOMO
  kDinomoN,  // shared-nothing: partitioned data/metadata, no replication
};

/// A runtime's options with the variant's fixed DPM and KN settings
/// applied.
template <typename Options>
Options WithVariant(Options opt) {
  if (opt.variant == SystemVariant::kDinomoN) {
    opt.dpm.partitioned_metadata = true;
  }
  if (opt.variant == SystemVariant::kDinomoS) {
    opt.kn.policy = kn::CachePolicyKind::kShortcutOnly;
  }
  return opt;
}

/// The DPM pool both runtimes build from their options.
std::unique_ptr<dpm::DpmPool> MakeDpmPool(int nodes, int replication_factor,
                                          const dpm::DpmOptions& dpm);
/// Installs `injector` (nullptr = none) into every DPM node and fabric.
void SetFaultInjector(dpm::DpmPool* pool, net::FaultInjector* injector);

/// What the reconfiguration protocol needs from a runtime. The
/// real-thread `Cluster` implements it on the wall clock, `DinomoSim` on
/// virtual time; every timing decision lives behind this interface.
class Runtime {
 public:
  /// Attempts per control-plane RPC before a transient rejection sticks.
  static constexpr int kAdminRpcAttempts = 24;

  virtual ~Runtime() = default;

  /// Current time on the runtime's clock (wall or virtual), us.
  virtual double NowUs() = 0;
  /// Serving KNs (not failed, not departed), ascending id.
  virtual std::vector<uint64_t> ActiveKns() const = 0;
  /// Creates and starts a KN that is not on the ring yet. It serves no
  /// request before Resume. Returns its id.
  virtual uint64_t StartKn() = 0;
  /// Retires a departed or failed KN for good.
  virtual void StopKn(uint64_t kn_id) = 0;
  /// Fail-stop: the KN stops serving at once and its DRAM state (cache,
  /// un-flushed batches) is lost.
  virtual void FailKn(uint64_t kn_id) = 0;
  /// Runs `fn` on every worker of a serving KN (possibly concurrently);
  /// returns when all ran it.
  virtual void RunOnWorkers(uint64_t kn_id,
                            const std::function<void(kn::KnWorker*)>& fn) = 0;
  /// Protocol steps 1-3 for the serving KNs among `kn_ids`: they become
  /// unavailable, flush their logs, and the DPM merges them
  /// synchronously. Returns the time the merges are done.
  virtual double Quiesce(const std::vector<uint64_t>& kn_ids) = 0;
  /// Steps 5-7: the serving KNs among `kn_ids` take requests again from
  /// `ready_us` on.
  virtual void Resume(const std::vector<uint64_t>& kn_ids,
                      double ready_us) = 0;

  // Hooks with defaults for a runtime whose clock already advanced
  // through the work (wall time): no charge beyond now.

  /// Runs `recover` once the M-node has detected a failure: at once
  /// (returning its status) by default, after the modeled detection delay
  /// in virtual time.
  virtual Status OnFailureDetected(std::function<Status()> recover) {
    return recover();
  }
  /// The KN's busy time over the last epoch, summed over its workers,
  /// given the busy time they reported: that time by default.
  virtual double EpochBusyUs(uint64_t /*kn_id*/, double worker_busy_us) {
    return worker_busy_us;
  }
  /// Called before the protocol drains the merge queues of the owners
  /// `which` selects synchronously on this thread: completes any of their
  /// batches the runtime has dequeued but not finished, so the drain
  /// cannot wait on itself. Returns the time those batches finish.
  virtual double SettleMerges(
      const std::function<bool(uint64_t)>& /*which*/) {
    return NowUs();
  }
  /// Charges a DINOMO-N reorganization that moved `keys` entries of
  /// `bytes` in total; returns when it is done.
  virtual double ChargeMigration(uint64_t /*bytes*/, uint64_t /*keys*/) {
    return NowUs();
  }
  /// Charges the re-replication repair after a DPM fail-stop; returns
  /// when it is done.
  virtual double ChargeRepair(const dpm::DpmPool::RepairStats& /*repair*/) {
    return NowUs();
  }
  /// Issues one control-plane DPM RPC, retrying transient rejections
  /// (back to back by default).
  virtual Status AdminRpc(const std::function<Status()>& rpc);
};

/// The ownership-transfer protocol of §3.5, written once for both
/// runtimes. Every reconfiguration follows the same steps: participants
/// become unavailable, their logs merge synchronously, the new mapping is
/// published, and they resume. No data is copied, except in DINOMO-N,
/// where reorganization physically moves entries (the cost the paper
/// charges AsymNVM-style designs). Single-threaded: the caller serializes
/// calls (the cluster holds its admin lock, the sim runs on one thread).
class ReconfigProtocol {
 public:
  ReconfigProtocol(Runtime* runtime, dpm::DpmPool* pool,
                   SystemVariant variant, int workers_per_kn,
                   const mnode::PolicyParams& policy);

  cluster::RoutingService* routing() { return &routing_; }

  /// Starts the first `kns` KNs and publishes the initial mapping.
  void Bootstrap(int kns);
  /// Scales out by one KN. Returns the new KN's id.
  Result<uint64_t> AddKn();
  /// Gracefully removes a KN (scale-in).
  Status RemoveKn(uint64_t kn_id);
  /// Fail-stops a KN. Once the failure is detected, its pending log
  /// segments merge and are released, and its ranges repartition among
  /// the survivors.
  Status KillKn(uint64_t kn_id);
  /// Fail-stops DPM node `node`: the pool promotes each of its ranges'
  /// mirrors at once. Once the failure is detected, every KN quiesces,
  /// shared keys collapse, the mirror count is restored, and the recovery
  /// window is published.
  Status KillDpm(int node);
  /// Replicates a hot key's ownership across `replication` KNs.
  Status Replicate(uint64_t key_hash, int replication);
  /// Collapses a key back to a single owner.
  Status Dereplicate(uint64_t key_hash);
  /// Gathers the M-node's monitoring inputs for an epoch of `epoch_us`:
  /// `latency` holds the client latencies since the last epoch (reset
  /// here); each worker's epoch load is drained. Published statistics
  /// (worker counts, cache and fabric counters) are only read.
  mnode::ClusterMetrics CollectMetrics(Histogram* latency, double epoch_us);
  /// One M-node epoch: evaluates the policy on `metrics` and enacts its
  /// action.
  mnode::PolicyAction RunPolicy(const mnode::ClusterMetrics& metrics,
                                double now_s);

 private:
  /// Completes the synchronous merge of the logs of `kns` on every live
  /// DPM node, settling batches the runtime holds mid-merge first; with
  /// `release`, also frees their segments. Returns when the settled
  /// batches finish.
  Result<double> DrainLogs(const std::vector<uint64_t>& kns, bool release);
  Status RecoverKn(uint64_t kn_id);
  /// Steps 4-7 for a KN leaving the ring once its logs are merged:
  /// publish the mapping without it and retire it.
  Status Depart(uint64_t kn_id, double ready_us);
  Status RecoverDpm(double killed_at_us);
  /// Pushes the current mapping to every serving KN, each emptying its
  /// caches of the ranges it no longer owns.
  void PushRouting();
  /// DINOMO-N only: moves the entries of `from` whose owner changed under
  /// the current mapping; `stalled` serve again only once the charged
  /// copy is done (and never before `ready_us`).
  Status Reorganize(const std::vector<uint64_t>& from,
                    const std::vector<uint64_t>& stalled, double ready_us);
  void InvalidateKey(uint64_t kn_id, uint64_t key_hash);

  Runtime* rt_;
  dpm::DpmPool* pool_;
  SystemVariant variant_;
  int workers_per_kn_;
  cluster::RoutingService routing_;
  mnode::PolicyEngine policy_;
};

}  // namespace dinomo

#endif  // DINOMO_CORE_RECONFIG_H_
