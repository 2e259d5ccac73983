#ifndef DINOMO_NET_FAULT_H_
#define DINOMO_NET_FAULT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace dinomo {
namespace net {

/// Deterministic fault-injection layer for the simulated fabric and the DPM
/// request path.
///
/// A real disaggregated fabric delays, drops, and duplicates one-sided
/// verbs, and DPM-side processors go briefly unavailable under
/// reconfiguration; the paper's fault-tolerance claim (§5.3 / Figure 8)
/// only holds if the KN request path survives all of that. The injector
/// sits inside Fabric (one-sided ops) and at the entry of every DpmNode
/// RPC (two-sided ops), consults a FaultSchedule, and decides per operation
/// whether to perturb it. All randomness flows from a single seeded
/// xorshift generator, so a (schedule, seed) pair replays the identical
/// fault sequence — the chaos harness depends on this to shrink failures.
///
/// Fault boundaries:
///  * one-sided ops (Read/Write/CAS/Atomic*): kDelay adds latency to the
///    op's cost (and optionally wall-clock sleeps on the real cluster);
///    kDrop performs no data movement — reads zero-fill the destination —
///    and the op returns Unavailable to its caller; kDuplicate charges the
///    op twice (an idempotent replay, the common RDMA duplication mode).
///  * RPCs: the injector returns Unavailable/Busy from the DPM method
///    itself, before any state changes, modeling a rejected request.
///  * kFailStop arms a kill of one KN; the injector only *flags* it
///    (FailStopDue), because tearing a node down safely is runtime work:
///    the sim schedules a DoKill event, the real cluster kills from a
///    non-worker thread.
struct FaultEvent {
  enum class Kind {
    kDelay,           // add delay_us to a one-sided op or RPC
    kDrop,            // one-sided op performs no data movement, KN sees error
    kDuplicate,       // one-sided op charged twice (idempotent replay)
    kRpcUnavailable,  // DPM RPC returns Unavailable before executing
    kRpcBusy,         // DPM RPC returns Busy before executing
    kFailStop,        // kill KN `node` at the next op boundary after start_us
    kDpmFailStop,     // kill DPM node `node` (mirror promotion path)
  };

  Kind kind = Kind::kDelay;
  /// Target node, or -1 for any node. For kFailStop the node must be
  /// explicit (there is no "kill someone" mode).
  int node = -1;
  /// Active window in microseconds of the runtime's clock. The default
  /// window is "always".
  double start_us = 0.0;
  double end_us = std::numeric_limits<double>::infinity();
  /// Probability an op inside the window is hit (ignored by kFailStop,
  /// which fires exactly once when the clock passes start_us).
  double probability = 0.0;
  /// Added latency for kDelay events.
  double delay_us = 0.0;
  /// Cap on injections from this event; 0 = unlimited.
  uint64_t max_count = 0;
};

/// An ordered list of fault events plus the seed for every probabilistic
/// decision. Value type: plumb it through ClusterOptions /
/// DinomoSimOptions by copy.
struct FaultSchedule {
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Fluent builders for the common cases, so tests read as prose.
  FaultSchedule& Delay(int node, double probability, double delay_us,
                       double start_us = 0.0,
                       double end_us = std::numeric_limits<double>::infinity());
  FaultSchedule& Drop(int node, double probability, double start_us = 0.0,
                      double end_us = std::numeric_limits<double>::infinity());
  FaultSchedule& Duplicate(
      int node, double probability, double start_us = 0.0,
      double end_us = std::numeric_limits<double>::infinity());
  FaultSchedule& RpcUnavailable(
      int node, double probability, double start_us = 0.0,
      double end_us = std::numeric_limits<double>::infinity());
  FaultSchedule& RpcBusy(
      int node, double probability, double start_us = 0.0,
      double end_us = std::numeric_limits<double>::infinity());
  FaultSchedule& FailStop(int node, double at_us);
  /// Arms a DPM fail-stop: `node` here is a *DPM pool index*, not a KN id.
  /// The runtime enacts it (DpmPool::KillNode + mirror promotion + repair),
  /// exactly as kFailStop defers KN teardown to the runtime.
  FaultSchedule& DpmFailStop(int node, double at_us);

  /// A random schedule for the chaos harness: a handful of transient
  /// events with moderate probabilities inside [0, horizon_us), all drawn
  /// from `seed`. Never includes kFailStop — the harness adds kills
  /// explicitly where it can reason about durability.
  static FaultSchedule Chaos(uint64_t seed, int num_nodes,
                             double horizon_us);
};

/// What the injector decided for one one-sided op.
struct FaultDecision {
  enum class Action { kNone, kDelay, kDrop, kDuplicate };
  Action action = Action::kNone;
  double delay_us = 0.0;
};

class FaultInjector {
 public:
  /// Counters publish under `fault.*` in `registry` (nullptr = global).
  explicit FaultInjector(FaultSchedule schedule,
                         obs::MetricsRegistry* registry = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Clock supplying "now" in microseconds for event windows. The sim
  /// installs its virtual clock; the real cluster a steady_clock reader.
  /// Without one the clock reads 0 and only always-on windows match.
  void SetClock(std::function<double()> clock);

  /// When true (real-cluster mode), kDelay decisions also wall-clock
  /// sleep inside the fabric call. The sim leaves this off and folds the
  /// delay into the op's virtual service time instead.
  void set_sleep_on_delay(bool v) { sleep_on_delay_ = v; }
  bool sleep_on_delay() const { return sleep_on_delay_; }

  /// Consulted by Fabric for every one-sided op initiated by `node`.
  /// `allow_drop` is false on the RPC charge path, where the DPM has
  /// already executed the call and a lost response can no longer be
  /// modeled as a clean rejection (kDrop events are skipped without
  /// consuming randomness).
  FaultDecision OnOneSided(int node, bool allow_drop = true);

  /// Consulted at the top of every DpmNode RPC handler; non-OK means the
  /// RPC was rejected before executing. `node` is the initiating KN
  /// (-1 when unknown).
  Status OnRpc(int node);

  /// Returns the node id of a kFailStop event whose start time has
  /// passed and which has not yet been claimed, or -1. Claiming is
  /// one-shot: each fail-stop event is returned exactly once, to exactly
  /// one caller — the runtime then enacts the kill.
  int ClaimFailStop();

  /// Like ClaimFailStop, for kDpmFailStop events: returns the DPM pool
  /// index of a due, unclaimed DPM kill (one-shot), or -1.
  int ClaimDpmFailStop();

  /// The earliest unclaimed kFailStop start time, or +inf. Lets the sim
  /// schedule the kill at the exact event time instead of polling.
  double NextFailStopAtUs() const;

  /// The earliest unclaimed kDpmFailStop start time, or +inf.
  double NextDpmFailStopAtUs() const;

  // Accounting hooks for the consumers (single fault.* family per run).
  void NoteDeadlineExceeded() { deadline_exceeded_.Inc(); }
  void NoteHungRequests(uint64_t n) {
    if (n > 0) hung_requests_.Inc(n);
  }
  void NoteFailStopEnacted() { failstops_.Inc(); }
  void NoteDpmFailStopEnacted() { dpm_failstops_.Inc(); }

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  double NowUs() const;
  bool EventFires(FaultEvent& ev, uint64_t* fired_count, int node,
                  double now_us);

  FaultSchedule schedule_;
  std::function<double()> clock_;
  bool sleep_on_delay_ = false;

  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  /// Parallel to schedule_.events: injections charged to each event
  /// (enforces max_count) and whether a kFailStop was claimed.
  std::vector<uint64_t> fired_ GUARDED_BY(mu_);
  std::vector<bool> failstop_claimed_ GUARDED_BY(mu_);

  obs::MetricGroup metrics_;
  obs::Counter& injected_delay_;
  obs::Counter& injected_drop_;
  obs::Counter& injected_duplicate_;
  obs::Counter& injected_rpc_unavailable_;
  obs::Counter& injected_rpc_busy_;
  obs::Counter& failstops_;
  obs::Counter& dpm_failstops_;
  obs::Counter& deadline_exceeded_;
  obs::Counter& hung_requests_;
};

}  // namespace net
}  // namespace dinomo

#endif  // DINOMO_NET_FAULT_H_
