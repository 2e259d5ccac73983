#ifndef DINOMO_SIM_DINOMO_SIM_H_
#define DINOMO_SIM_DINOMO_SIM_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/routing.h"
#include "core/reconfig.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "load/traffic.h"
#include "mnode/policy.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// Configuration of a virtual-time DINOMO cluster run.
struct DinomoSimOptions : DriverOptions {
  SystemVariant variant = SystemVariant::kDinomo;
  int num_kns = 4;
  dpm::DpmOptions dpm;
  /// DPM pool size (DINOMO-N forces 1; see DpmPoolOptions).
  int dpm_nodes = 1;
  /// Copies of each log batch (2 = primary + mirror, replicate-before-ack).
  int replication_factor = 1;
  kn::KnOptions kn;  // per-node template (ids filled in)
  /// DPM processor threads: merge work and two-sided RPCs contend here.
  int dpm_threads = 4;

  /// Requests each closed-loop client stream keeps in flight (the
  /// pipelined async client). 1 = the classic submit-and-wait client:
  /// the serving worker is modeled busy until the op's network time has
  /// elapsed. Depth > 1 overlaps the network wait: the worker core is
  /// occupied for the op's CPU portion only, and up to `pipeline_depth`
  /// ops per stream proceed concurrently. Depth 1 is byte-identical to
  /// the pre-pipelining model.
  int pipeline_depth = 1;

  /// M-node (only used after EnableMnode).
  mnode::PolicyParams policy;
  double mnode_epoch_us = 1e6;

  /// Fault schedule injected into the fabric and the DPM RPC path (empty
  /// = fault-free). The injector's clock is the engine's virtual time, so
  /// the same schedule + seed replays the same fault sequence run after
  /// run. kFailStop events name a KN *index* into the active list and are
  /// enacted through the same path as ScheduleKill.
  net::FaultSchedule faults;

  /// Request tracer (nullptr = the global tracer). When enabled, the sim
  /// installs its virtual clock into the tracer for the lifetime of the
  /// run, so span timestamps are virtual-time and seed-deterministic.
  obs::Tracer* tracer = nullptr;
};

/// The paper's DINOMO / DINOMO-S / DINOMO-N systems under the
/// discrete-event engine: real KnWorker / DpmNode / cache / index code,
/// virtual time. Used by the Figure-5/6/7/8 and Table-6 harnesses.
/// Reconfigurations run the shared §3.5 protocol (ReconfigProtocol); this
/// class is its virtual-time Runtime.
class DinomoSim : public Driver, private Runtime {
 public:
  explicit DinomoSim(const DinomoSimOptions& options);


  /// DPM node 0 — the whole pool in single-node configurations.
  dpm::DpmNode* dpm() { return pool_->node(0); }
  dpm::DpmPool* pool() { return pool_.get(); }
  /// Loads spec.record_count records (no virtual time elapses) and
  /// settles all merges. Caches end up warm, as after the paper's load +
  /// warm-up phase.
  void Preload();

  /// Flushes every live worker's buffered log batches to the DPM pool.
  /// Acked writes may sit in KN-side batches (served from the buffer on
  /// reads) until a flush; benchmarks call this before auditing
  /// durability directly against the DPM indexes.
  void DrainLogs();

  // ----- Results (throughput and latency: see Driver) -----

  /// Starts a new profile window: records the fabric round trips, worker
  /// request counts and cache stats as the baseline CollectProfile
  /// subtracts. Nothing is reset. Benchmarks call this between a warmup
  /// Run and the measured Run so CollectProfile only sees measured-phase
  /// traffic; Preload calls it last.
  void StartProfileWindow();

  /// Table-6 style profile, aggregated across all KNs since the most
  /// recent StartProfileWindow.
  struct Profile {
    double cache_hit_ratio = 0.0;
    double value_hit_share = 0.0;
    double rts_per_op = 0.0;
    uint64_t ops = 0;
    /// Range scans served (kScan requests; not part of `ops`, which
    /// counts point lookups by cache outcome).
    uint64_t scans = 0;
    /// Requests served (reads, writes and scans) and the fabric round
    /// trips they took: rts_per_op = round_trips / requests.
    uint64_t requests = 0;
    uint64_t round_trips = 0;
  };
  Profile CollectProfile() const;

  // ----- Elasticity experiment hooks (Figures 6-8) -----

  /// Fail-stop kills the idx-th active KN at `at_us`.
  void ScheduleKill(double at_us, int kn_index);
  /// Enables the M-node: a policy epoch every options.mnode_epoch_us.
  void EnableMnode();

  // ----- Open-loop engine (storm / autoscaling experiments) -----

  struct OpenLoopOptions {
    /// Arrival-stamped op stream; must outlive the run.
    load::TrafficSource* source = nullptr;
    /// Payload for Put-type ops.
    size_t value_size = 1024;
    /// Windowed-p99 SLO autoscaler (mutually exclusive with EnableMnode:
    /// both would consume the sim's per-epoch busy time and interval
    /// latency).
    bool autoscale = false;
    mnode::SloAutoscalerParams autoscaler;
    /// Autoscaler evaluation interval, us.
    double autoscaler_interval_us = 50e3;
  };

  using OpenLoopStats = RunStats;

  /// Runs `duration_us` of open-loop traffic: ops from opts.source enter
  /// the system at their intended arrival times, independent of
  /// completions (arrivals outrun completions under overload and queueing
  /// shows up in the intended-basis latency). Histograms skip the first
  /// `warmup_us`. The closed-loop streams stay idle.
  void RunOpenLoop(const OpenLoopOptions& opts, double duration_us,
                   double warmup_us = 0.0);
  /// Stats of the last RunOpenLoop (nullptr before the first call).
  const OpenLoopStats* open_loop_stats() const { return open_stats_.get(); }

  int NumActiveKns() const { return static_cast<int>(ActiveKns().size()); }
  /// KN ids currently serving.
  std::vector<uint64_t> ActiveKns() const override;

  /// The reconfiguration protocol this sim's elasticity hooks drive. Calls
  /// enact at the current virtual time; a kill's recovery runs once the
  /// modeled failure detection fires.
  ReconfigProtocol* protocol() { return &protocol_; }

 private:
  struct WorkerSim {
    std::unique_ptr<kn::KnWorker> worker;
    double free_until = 0.0;
    // Requests parked on the unmerged-segment threshold.
    std::deque<std::function<void()>> parked;
  };

  struct KnSim {
    uint64_t kn_id = 0;
    std::vector<std::unique_ptr<WorkerSim>> workers;
    /// Fail-stopped or departed: serves nothing more.
    bool failed = false;
    /// Requests are rejected (Unavailable) until this time
    /// (reconfiguration windows).
    double unavailable_until = 0.0;
    double busy_us_epoch = 0.0;  // occupancy accounting
  };

  KnSim* FindKn(uint64_t kn_id);

  /// The cumulative counts a Profile is the window delta of.
  struct ProfileCounts {
    uint64_t value_hits = 0;
    uint64_t hits = 0;
    uint64_t lookups = 0;
    uint64_t requests = 0;
    uint64_t scans = 0;
    uint64_t rts = 0;
  };
  ProfileCounts CountProfile() const;

  double TryServe(const workload::WorkloadOp& op, const std::string& put_value,
                  obs::TraceContext* trace, bool async_worker,
                  const std::function<void()>& retry,
                  double* start_us) override;
  void PumpMerges();
  void OnMergeFinished(const dpm::MergeAck& ack);

  void ScheduleNextArrival();
  void AutoscalerEval();

  void MnodeEpoch();
  void DoKill(int kn_index);

  // Runtime: virtual time. A protocol call runs inside one engine event,
  // so a KN is unavailable exactly from now until the ready time Resume
  // sets.
  double NowUs() override { return engine_.now_us(); }
  uint64_t StartKn() override;
  void StopKn(uint64_t kn_id) override;
  void FailKn(uint64_t kn_id) override { StopKn(kn_id); }
  Status OnFailureDetected(std::function<Status()> recover) override;
  double EpochBusyUs(uint64_t kn_id, double worker_busy_us) override;
  void RunOnWorkers(uint64_t kn_id,
                    const std::function<void(kn::KnWorker*)>& fn) override;
  double Quiesce(const std::vector<uint64_t>& kn_ids) override;
  void Resume(const std::vector<uint64_t>& kn_ids, double ready_us) override;
  double SettleMerges(const std::function<bool(uint64_t)>& which) override;
  double ChargeMigration(uint64_t bytes, uint64_t keys) override;
  /// Round overhead plus `bytes` of link and `dpm_cpu_us` of DPM time.
  double ChargeCopy(uint64_t bytes, double dpm_cpu_us);
  double ChargeRepair(const dpm::DpmPool::RepairStats& repair) override;

  DinomoSimOptions options_;
  // Declared before pool_ so the injector outlives the fabrics and DPM
  // nodes that hold raw pointers to it.
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<dpm::DpmPool> pool_;
  ReconfigProtocol protocol_;

  /// A batch PumpMerges executed whose Finish is a future engine event.
  struct InflightMerge {
    dpm::DpmNode* node;
    dpm::MergeTask task;
    double done_us;
  };
  /// Keyed by dequeue order, so settling is deterministic.
  std::map<uint64_t, InflightMerge> merging_;
  uint64_t next_merge_id_ = 0;

  std::vector<std::unique_ptr<KnSim>> kns_;
  uint64_t next_kn_id_ = 1;

  uint64_t salt_ = 0;

  ProfileCounts profile_base_;

  bool mnode_enabled_ = false;
  double epoch_started_ = 0.0;

  // Open-loop run state (live only inside RunOpenLoop).
  load::TrafficSource* open_source_ = nullptr;
  bool open_exhausted_ = true;
  std::unique_ptr<mnode::SloAutoscaler> autoscaler_;
  double autoscaler_interval_us_ = 0.0;
  /// Arrivals since the last autoscaler eval.
  uint64_t open_interval_offered_ = 0;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_DINOMO_SIM_H_
