#ifndef DINOMO_SIM_DRIVER_H_
#define DINOMO_SIM_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "kn/kn_worker.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// The client side every simulated system shares.
struct DriverOptions {
  // Closed-loop load (paper: 8 client nodes x 64 threads).
  int client_threads = 64;
  workload::WorkloadSpec spec;
  /// Timeline resolution for throughput/latency series.
  double stats_window_us = 100e3;
  /// Client request timeout after which a dead KN's request is retried
  /// elsewhere (paper §5.3: "user requests are set to time out after
  /// 500ms").
  double request_timeout_us = 500e3;
  uint64_t seed = 42;
  /// Registry the sim — and every component it creates (DPM node, fabric,
  /// PM pool, merge service, KN workers, caches) — publishes metrics
  /// into; nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Counters of one driver run.
struct RunStats {
  explicit RunStats(double window_us) : windows(window_us) {}
  /// Latency from the op's *intended* start — its arrival time in the
  /// open loop, its issue time in the closed loop — including every
  /// retry, park and queueing delay, so overload shows up instead of
  /// being coordinated-omitted. The SLO numbers. Post-warmup.
  Histogram intended_latency;
  /// Latency from the start of service (the worker taking the op up) to
  /// completion: worker CPU, round trips, and waits on the shared link
  /// and DPM processors, but not the wait for the worker. Post-warmup.
  Histogram service_latency;
  /// Time the served attempt waited for its worker, from dispatch to the
  /// start of service. Post-warmup.
  Histogram queue_wait;
  uint64_t offered = 0;     // arrivals injected (open loop)
  uint64_t completed = 0;   // ops finished (all, including warmup)
  uint64_t completed_after_warmup = 0;
  uint64_t abandoned = 0;   // retry budget exhausted
  uint64_t in_flight_at_end = 0;
  /// Arrivals, and completions with intended-basis latency, per stats
  /// window.
  WindowStats windows;
  /// (virtual us, active KNs) after each autoscaler evaluation.
  std::vector<std::pair<double, int>> kn_trajectory;
  int scale_ups = 0;
  int scale_downs = 0;
};

/// The driver loop of the simulated systems and their shared timing
/// model. Closed-loop streams (each issues its next op when one
/// completes) and open-loop arrivals both become in-flight ops that one
/// path dispatches through the system's TryServe, retries, and completes.
/// A system supplies TryServe and times served ops with Serve.
class Driver {
 public:
  Engine* engine() { return &engine_; }

  /// Runs the closed loop for `duration_us` of virtual time. Statistics
  /// ignore the first `warmup_us`.
  void Run(double duration_us, double warmup_us = 0.0);

  /// Closed loop, post-warmup: average throughput in Mops/s and latency.
  double ThroughputMops() const { return Mops(closed_stats_); }
  double AvgLatencyUs() const {
    return closed_stats_.intended_latency.Average();
  }
  double P99LatencyUs() const { return closed_stats_.intended_latency.P99(); }
  const WindowStats& windows() const { return closed_stats_.windows; }

  /// Changes the number of active closed-loop client threads at `at_us`.
  void ScheduleLoadChange(double at_us, int client_threads);
  /// Switches every client's workload spec at `at_us` (e.g. Zipf 0.5 ->
  /// Zipf 2 for the load-balancing experiment).
  void ScheduleWorkloadChange(double at_us, const workload::WorkloadSpec& s);

 protected:
  /// Stream index of an op that arrived from the open-loop source.
  static constexpr int kOpenLoop = -1;

  /// One in-flight op, held by shared_ptr in the engine events that retry
  /// and complete it.
  struct InflightOp {
    workload::WorkloadOp op;
    int stream = kOpenLoop;
    /// Closed loop: issue time. Open loop: intended arrival time.
    double intended_us = 0.0;
    /// When the attempt that finally got served was dispatched, and when
    /// its worker started serving it.
    double dispatch_us = 0.0;
    double start_us = 0.0;
    int attempt = 0;
    obs::TraceContext* trace = nullptr;  // owned by traces_
  };

  /// Metrics publish under `metrics_scope` (`servers_gauge`: the server
  /// pool's utilization); ops cross a link of `link` and two-sided work
  /// queues on a pool of `servers`; `pipeline_depth` ops per closed-loop
  /// stream stay in flight; `tracer` samples requests (nullptr =
  /// untraced), on the virtual clock if it is enabled now.
  Driver(const DriverOptions& options, const char* metrics_scope,
         const char* servers_gauge, const net::LinkProfile& link, int servers,
         int pipeline_depth, obs::Tracer* tracer);
  /// Ends in-flight traces and restores the tracer's wall clock.
  virtual ~Driver();

  /// Serves `op` now: returns its finish time and, in `start_us`, when its
  /// worker started serving it. Any disposition that cannot serve now
  /// schedules `retry` itself and returns a negative value.
  /// `async_worker` selects the pipelined-server occupancy model (worker
  /// busy for the CPU portion only).
  virtual double TryServe(const workload::WorkloadOp& op,
                          const std::string& put_value,
                          obs::TraceContext* trace, bool async_worker,
                          const std::function<void()>& retry,
                          double* start_us) = 0;

  /// Serves `op` now, or leaves it to the retry TryServe scheduled. A new
  /// op (attempt 0) may be sampled for tracing first.
  void Dispatch(const std::shared_ptr<InflightOp>& op);
  /// Backs off: `retry` runs at `at_us` (a backoff wait on a sampled op).
  /// Returns TryServe's "not served" value.
  double RetryAt(double at_us, obs::TraceContext* trace,
                 const std::function<void()>& retry);
  /// Times an op a worker serves: its CPU from when the worker is free
  /// (`*free_until`), then the shared link for the payload, its round
  /// trips, and any server-pool time. Sets `*start_us` and returns the
  /// finish time. The worker stays busy until the finish, or with
  /// `async_worker` only through its CPU portion (round trips ride out
  /// while the next queued op executes).
  double Serve(const kn::OpResult& r, bool async_worker, double* free_until,
               double* start_us);
  /// Post-warmup throughput of `stats` over the current run, Mops/s.
  double Mops(const RunStats& stats) const {
    const double span = run_until_ - warmup_until_;
    return span > 0 ? stats.completed_after_warmup / span : 0.0;
  }
  /// Publishes a finished run's throughput and utilization gauges.
  void PublishRunGauges(const RunStats& stats);

  Engine engine_;
  obs::Tracer* tracer_;     // nullptr = untraced
  uint32_t trace_pid_ = 0;  // chrome pid lane for this sim instance
  bool trace_clock_installed_ = false;
  obs::MetricGroup metrics_;
  obs::HistogramMetric& op_latency_us_;
  obs::Gauge& throughput_mops_;
  obs::Gauge& link_utilization_;
  obs::Gauge& servers_utilization_;
  const net::LinkProfile link_profile_;
  LinkModel link_;
  /// DPM processors (DINOMO) or metadata-server workers (Clover).
  PoolModel servers_;
  /// Traces of sampled in-flight ops. Owned here so teardown can end them
  /// while a virtual clock is still installed; InflightOp holds raw
  /// pointers. Spans survive reschedules: Busy parks and routing retries
  /// become wait spans.
  std::vector<std::unique_ptr<obs::TraceContext>> traces_;
  /// The closed loop's counters (latency basis: issue time); kept across
  /// runs.
  RunStats closed_stats_;
  /// The open loop's counters and Put payload (live only inside an
  /// open-loop run).
  std::unique_ptr<RunStats> open_stats_;
  std::string open_value_;
  /// Latency since the last control-plane evaluation (M-node epoch or
  /// autoscaler window), either loop.
  Histogram interval_latency_;
  double warmup_until_ = 0.0;
  double run_until_ = 0.0;

 private:
  struct Stream {
    std::unique_ptr<workload::WorkloadGenerator> gen;
    bool active = false;
    /// Ops this stream currently has in flight (≤ pipeline_depth).
    int in_flight = 0;
  };

  /// Closed-loop source: tops the stream's window back up.
  void IssueNext(int stream_idx);
  void Complete(const InflightOp& op, double finish);
  /// Ends a sampled op's trace and drops it from traces_.
  void ReleaseTrace(obs::TraceContext* trace);

  workload::WorkloadSpec spec_;
  uint64_t seed_;
  int pipeline_depth_;
  std::vector<Stream> streams_;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_DRIVER_H_
