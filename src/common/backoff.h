#ifndef DINOMO_COMMON_BACKOFF_H_
#define DINOMO_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace dinomo {

/// Capped exponential backoff with decorrelated jitter, deterministic for
/// a given seed. Used by the client request path (deadline retries), the
/// migration/reconfiguration paths (transient DPM errors) and the chaos
/// harness. Delays are in microseconds.
struct BackoffOptions {
  double initial_us = 100.0;
  double max_us = 10'000.0;
  double multiplier = 2.0;
  /// Each delay is drawn uniformly from [delay * (1 - jitter), delay],
  /// which decorrelates clients that fail at the same instant.
  double jitter = 0.5;
};

class Backoff {
 public:
  explicit Backoff(const BackoffOptions& options = BackoffOptions{},
                   uint64_t seed = 1)
      : options_(options), rng_(seed), next_us_(options.initial_us) {}

  /// The delay to sleep before the next attempt; grows geometrically up
  /// to the cap.
  double NextDelayUs() {
    const double base = next_us_;
    next_us_ = std::min(options_.max_us, next_us_ * options_.multiplier);
    const double jittered =
        base * (1.0 - options_.jitter * rng_.NextDouble());
    return std::max(1.0, jittered);
  }

  void Reset() { next_us_ = options_.initial_us; }

  const BackoffOptions& options() const { return options_; }

 private:
  BackoffOptions options_;
  Random rng_;
  double next_us_;
};

/// True for errors that a retry can plausibly clear: a momentarily
/// unavailable component, log-write blocking, or an injected transient
/// fabric/DPM fault.
inline bool IsTransient(const Status& s) {
  return s.IsUnavailable() || s.IsBusy() || s.IsTimedOut();
}

/// Runs `attempt` until it returns a non-transient status (success
/// included) or `attempts` tries are spent, and returns the last status.
/// The retries are immediate: KN workers also run under the virtual-time
/// engine, and injected faults are probabilistic, so back-to-back retries
/// suffice; a caller's deadline/backoff loop owns the long game.
template <typename Fn>
Status RetryTransient(int attempts, Fn&& attempt) {
  Status st;
  for (int i = 0; i < attempts; ++i) {
    st = attempt();
    if (!IsTransient(st)) break;
  }
  return st;
}

}  // namespace dinomo

#endif  // DINOMO_COMMON_BACKOFF_H_
