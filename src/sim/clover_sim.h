#ifndef DINOMO_SIM_CLOVER_SIM_H_
#define DINOMO_SIM_CLOVER_SIM_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clover/clover.h"
#include "obs/metrics.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// Configuration of a virtual-time Clover run.
struct CloverSimOptions : DriverOptions {
  int num_kns = 4;
  int workers_per_kn = 8;
  clover::CloverOptions clover;
  size_t cache_bytes_per_kn = 16 * 1024 * 1024;

  /// Membership-update delay after a failure (paper: Clover updates RNs
  /// in < 68 ms).
  double membership_update_us = 68e3;
};

/// The Clover baseline under the discrete-event engine. Shared-everything:
/// every request can go to any KN (clients spread them round-robin), so
/// load balancing is trivial — and every KN caches the same hot keys
/// redundantly, which is exactly why its hit ratio falls as KNs are added
/// (Table 6). The metadata server is a 4-worker pool; version-chain walks
/// and MS RPCs consume the shared link and MS CPU.
class CloverSim : public Driver {
 public:
  explicit CloverSim(const CloverSimOptions& options);

  clover::CloverStore* store() { return store_.get(); }

  void Preload();
  /// Starts the metadata server's GC loop, then runs the closed loop
  /// (Driver::Run).
  void Run(double duration_us, double warmup_us = 0.0);

  struct Profile {
    double cache_hit_ratio = 0.0;
    double rts_per_op = 0.0;
    uint64_t ops = 0;
  };
  /// Profile of the traffic since Preload.
  Profile CollectProfile() const;

  void ScheduleKill(double at_us, int kn_index);

  int NumActiveKns() const {
    return static_cast<int>(std::count_if(
        kns_.begin(), kns_.end(), [](const auto& k) { return !k->failed; }));
  }

 private:
  struct WorkerSim {
    std::unique_ptr<clover::CloverKn> kn;
    double free_until = 0.0;
  };
  struct KnSim {
    std::vector<std::unique_ptr<WorkerSim>> workers;
    bool failed = false;
    bool routable = true;  // false once clients learned of the failure
  };

  /// The cumulative counts a Profile is the window delta of.
  struct ProfileCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t rts = 0;
    uint64_t ops = 0;  // ops_executed_
  };
  ProfileCounts CountProfile() const;

  double TryServe(const workload::WorkloadOp& op, const std::string& put_value,
                  obs::TraceContext* trace, bool async_worker,
                  const std::function<void()>& retry,
                  double* start_us) override;
  void GcTick();

  CloverSimOptions options_;
  std::unique_ptr<clover::CloverStore> store_;

  std::vector<std::unique_ptr<KnSim>> kns_;
  uint64_t salt_ = 0;
  uint64_t ops_executed_ = 0;
  ProfileCounts profile_base_;  // taken at the end of Preload
  bool gc_running_ = false;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_CLOVER_SIM_H_
