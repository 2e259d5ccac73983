#ifndef DINOMO_SIM_ENGINE_H_
#define DINOMO_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"

namespace dinomo {
namespace sim {

/// Discrete-event scheduler in virtual microseconds.
///
/// The scalability and elasticity experiments (Figures 5-8, Table 6)
/// cannot be measured with wall-clock threads on one development host —
/// the paper used 16 InfiniBand servers. Instead, the real data-structure
/// code (caches, index, logs, version chains) executes inline, while
/// *time* is modeled: each KN worker, the DPM merge processors, Clover's
/// metadata server and the shared network pipe are capacity-constrained
/// resources, and operations advance a virtual clock by their measured
/// cost (KN CPU + round trips x link latency + bytes / link bandwidth +
/// queueing). What saturates first — and therefore the curve shapes —
/// emerges from the same contention structure as on real hardware.
class Engine {
 public:
  using EventFn = std::function<void()>;

  double now_us() const { return now_; }

  void ScheduleAt(double at_us, EventFn fn) {
    DINOMO_CHECK(at_us >= now_);
    events_.push(Event{at_us, seq_++, std::move(fn)});
  }
  void ScheduleAfter(double delay_us, EventFn fn) {
    ScheduleAt(now_ + delay_us, std::move(fn));
  }

  /// Executes events until the queue is empty or the clock passes
  /// `until_us`. Returns the number of events executed.
  uint64_t RunUntil(double until_us);

  uint64_t executed() const { return executed_; }

 private:
  struct Event {
    double at;
    uint64_t seq;
    EventFn fn;

    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  uint64_t executed_ = 0;
};

/// A serial fluid resource (the KN<->DPM network pipe): transfers are
/// served FIFO at `bytes_per_us`; a reservation returns when the transfer
/// completes. Also tracks cumulative busy time for utilization reports.
class LinkModel {
 public:
  explicit LinkModel(double gbps)
      : bytes_per_us_(gbps * 1e3) {}

  /// Reserves a transfer of `bytes` starting no earlier than `now`;
  /// returns its completion time.
  double Reserve(double now, uint64_t bytes) {
    const double start = next_free_ > now ? next_free_ : now;
    const double duration = bytes / bytes_per_us_;
    next_free_ = start + duration;
    busy_us_ += duration;
    return next_free_;
  }

  double busy_us() const { return busy_us_; }
  double Utilization(double elapsed_us) const {
    return elapsed_us > 0 ? busy_us_ / elapsed_us : 0.0;
  }

 private:
  double bytes_per_us_;
  double next_free_ = 0.0;
  double busy_us_ = 0.0;
};

/// A pool of k identical servers with FIFO assignment, as a reservation
/// calculator: used for the DPM merge processors and Clover's metadata
/// server workers.
class PoolModel {
 public:
  explicit PoolModel(int servers) : next_free_(servers, 0.0) {}

  /// Reserves `service_us` of one server starting no earlier than `now`;
  /// returns the completion time.
  double Reserve(double now, double service_us) {
    // Pick the earliest-free server.
    size_t best = 0;
    for (size_t i = 1; i < next_free_.size(); ++i) {
      if (next_free_[i] < next_free_[best]) best = i;
    }
    const double start = next_free_[best] > now ? next_free_[best] : now;
    next_free_[best] = start + service_us;
    busy_us_ += service_us;
    return next_free_[best];
  }

  double Utilization(double elapsed_us) const {
    return elapsed_us > 0 ? busy_us_ / (elapsed_us * next_free_.size())
                          : 0.0;
  }

 private:
  std::vector<double> next_free_;
  double busy_us_ = 0.0;
};

/// Time-series collector: arrivals, completed operations and latency,
/// bucketed into fixed windows of virtual time (the 10-second samples of
/// the paper's timelines, scaled down).
class WindowStats {
 public:
  explicit WindowStats(double window_us) : window_us_(window_us) {}

  /// An open-loop arrival, bucketed by its intended time.
  void RecordArrival(double intended_us) { At(intended_us).offered++; }
  void Record(double completion_time_us, double latency_us) {
    Window& w = At(completion_time_us);
    w.completed++;
    w.latency.Add(latency_us);
  }

  struct Window {
    /// Arrivals (open loop only): the offered-load curve generated.
    uint64_t offered = 0;
    uint64_t completed = 0;
    Histogram latency;
  };

  double window_us() const { return window_us_; }
  size_t num_windows() const { return windows_.size(); }
  const Window& window(size_t i) const { return windows_[i]; }

  /// Throughput of window i in Mops/s.
  double ThroughputMops(size_t i) const {
    return windows_[i].completed / window_us_;
  }

 private:
  Window& At(double t_us) {
    const size_t idx = static_cast<size_t>(t_us / window_us_);
    if (windows_.size() <= idx) windows_.resize(idx + 1);
    return windows_[idx];
  }

  double window_us_;
  std::vector<Window> windows_;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_ENGINE_H_
