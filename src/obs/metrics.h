#ifndef DINOMO_OBS_METRICS_H_
#define DINOMO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "obs/json.h"

namespace dinomo {
namespace obs {

/// Process-wide observability registry (the "obs" subsystem).
///
/// Every component publishes its counters, gauges and latency histograms
/// here under dotted `component.node.metric` names (`fabric.node3.
/// round_trips`, `cache.kn1.w0.value_hits`, `dpm.merge.batches`, ...).
/// The bench harnesses snapshot the registry into the BENCH_*.json files
/// CI diffs; tests read component stats from the registry without touching
/// the bench harness.
///
/// Two ownership models coexist:
///  * owned metrics — `GetCounter("a.b")` get-or-creates a metric that
///    lives as long as the registry (cheap for process-global counts);
///  * registered metrics — components own their metric objects (so
///    per-instance stats stay exact) and register/unregister them. The
///    same name may be registered by several instances; snapshots
///    aggregate duplicates (counters sum, histograms merge, gauges keep
///    the last registration), which is what a fleet-wide rollup wants.
///
/// Hot-path cost: one relaxed atomic add per counter increment. Name
/// lookups happen at registration time only — components cache the
/// metric pointers.

/// Monotonic event count: it never decreases, so a reader that wants a
/// window records a baseline and subtracts it (MetricsSnapshot::
/// DeltaSince). Thread-safe; increments are one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written level (utilization, busy time, queue depth). Thread-safe.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Thread-safe wrapper around the log-bucketed Histogram used for latency
/// distributions. One mutex per metric; single-writer components (a KN
/// worker, a sim) never contend.
class HistogramMetric {
 public:
  void Record(double value) {
    MutexLock lock(mu_);
    hist_.Add(value);
  }
  Histogram snapshot() const {
    MutexLock lock(mu_);
    return hist_;
  }
  /// Folds another histogram in (exact bucket-wise sum: the merged
  /// percentiles are identical to recording every sample into one
  /// histogram, since all Histograms share one bucket layout). This is
  /// how per-worker / per-KN latency distributions roll up into a
  /// fleet-wide p99/p999 without shipping raw samples.
  void Merge(const Histogram& other) {
    MutexLock lock(mu_);
    hist_.Merge(other);
  }
  /// Merge from another metric. Snapshots `other` first, so locks are
  /// never held on both metrics at once (no ordering constraint, and
  /// self-merge doubles the contents rather than deadlocking).
  void Merge(const HistogramMetric& other) {
    const Histogram snap = other.snapshot();
    MutexLock lock(mu_);
    hist_.Merge(snap);
  }

 private:
  mutable Mutex mu_;
  Histogram hist_ GUARDED_BY(mu_);
};

/// Percentile summary of a histogram as exported to JSON/CSV.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double avg = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  static HistogramStats From(const Histogram& h);
};

/// Point-in-time copy of every registered metric, aggregated by name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// Counter deltas against an earlier snapshot of the same registry
  /// (counters never decrease; ones that appeared since read as their
  /// value); gauges and histograms keep their current values, since
  /// levels and percentiles have no meaningful difference.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, avg, p50, p90, p99, p999}}}.
  Json ToJson() const;
  std::string ToJsonString(int indent = 2) const { return ToJson().Dump(indent); }
  /// One `kind,name,value` line per scalar; histograms expand to one line
  /// per exported statistic (`histogram,name.p99,...`).
  std::string ToCsv() const;

  /// Inverse of ToJson (accepts the object produced by ToJson, or a
  /// string containing it). Returns false on malformed input.
  static bool FromJson(const Json& json, MetricsSnapshot* out);
  static bool FromJsonString(const std::string& text, MetricsSnapshot* out);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every component defaults to.
  static MetricsRegistry& Global();

  // ----- Owned metrics (get-or-create; live until the registry dies) -----
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  HistogramMetric& GetHistogram(const std::string& name);

  // ----- Externally-owned metrics -----
  // The component keeps ownership and MUST call Unregister(metric) before
  // destroying the metric object. Duplicate names are allowed.
  void RegisterCounter(const std::string& name, Counter* c);
  void RegisterGauge(const std::string& name, Gauge* g);
  void RegisterHistogram(const std::string& name, HistogramMetric* h);
  /// Removes every registration of this metric object. The metric's final
  /// value is folded into the registry's retired totals, so snapshots keep
  /// reporting process-lifetime figures after the component that owned the
  /// metric is destroyed (e.g. a bench tearing down one sim per data
  /// point).
  void Unregister(const void* metric);

  // ----- Reads -----
  /// Sum of all counters registered under `name` (0 if none).
  uint64_t CounterValue(std::string_view name) const;
  /// Value of the gauge registered under `name` (last registration wins).
  double GaugeValue(std::string_view name) const;
  bool Has(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    void* metric;
  };

  Counter& GetCounterLocked(const std::string& name) REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  // Final values of unregistered metrics, keyed by name: counters and
  // histograms accumulate, gauges keep the last value. Merged into reads
  // and snapshots so totals survive component teardown.
  std::map<std::string, uint64_t, std::less<>> retired_counters_
      GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> retired_gauges_ GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> retired_histograms_
      GUARDED_BY(mu_);
  // Owned metric storage: deques give stable addresses.
  std::deque<Counter> owned_counters_ GUARDED_BY(mu_);
  std::deque<Gauge> owned_gauges_ GUARDED_BY(mu_);
  std::deque<HistogramMetric> owned_histograms_ GUARDED_BY(mu_);
  std::map<std::string, Counter*, std::less<>> owned_counter_names_
      GUARDED_BY(mu_);
  std::map<std::string, Gauge*, std::less<>> owned_gauge_names_
      GUARDED_BY(mu_);
  std::map<std::string, HistogramMetric*, std::less<>> owned_histogram_names_
      GUARDED_BY(mu_);
};

/// Where a component should publish: a registry (nullptr = the global
/// one) plus a dotted name prefix. Cheap to copy into constructors.
struct Scope {
  std::string prefix;
  MetricsRegistry* registry = nullptr;

  Scope() = default;
  Scope(std::string p, MetricsRegistry* r = nullptr)
      : prefix(std::move(p)), registry(r) {}

  MetricsRegistry& reg() const {
    return registry != nullptr ? *registry : MetricsRegistry::Global();
  }
  /// `prefix.leaf`, or just `leaf` when the prefix is empty.
  std::string Name(std::string_view leaf) const;
};

/// The metrics one component instance owns: get-or-create per leaf name,
/// registered under `scope.prefix + "." + leaf`, unregistered (and
/// destroyed) with the group. Give each instance its own group and
/// per-instance stats stay exact even when several instances share names.
class MetricGroup {
 public:
  explicit MetricGroup(Scope scope);
  ~MetricGroup();

  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  Counter& counter(std::string_view leaf);
  Gauge& gauge(std::string_view leaf);
  HistogramMetric& histogram(std::string_view leaf);

  const std::string& prefix() const { return scope_.prefix; }
  MetricsRegistry& registry() const { return scope_.reg(); }

 private:
  Scope scope_;
  Mutex mu_;
  std::deque<Counter> counters_ GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ GUARDED_BY(mu_);
  std::deque<HistogramMetric> histograms_ GUARDED_BY(mu_);
  std::map<std::string, Counter*, std::less<>> counter_names_
      GUARDED_BY(mu_);
  std::map<std::string, Gauge*, std::less<>> gauge_names_ GUARDED_BY(mu_);
  std::map<std::string, HistogramMetric*, std::less<>> histogram_names_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace dinomo

/// Cheap fixed-name instrumentation of a hot path: the registry lookup
/// happens once (function-local static), every hit after that is one
/// relaxed atomic add.
#define DINOMO_COUNTER_INC(name, delta)                                   \
  do {                                                                    \
    static ::dinomo::obs::Counter& dinomo_obs_c =                         \
        ::dinomo::obs::MetricsRegistry::Global().GetCounter(name);        \
    dinomo_obs_c.Inc(delta);                                              \
  } while (0)

#endif  // DINOMO_OBS_METRICS_H_
