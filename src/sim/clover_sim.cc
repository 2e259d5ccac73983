#include "sim/clover_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "kn/kn_worker.h"

namespace dinomo {
namespace sim {

namespace {

// Metadata-server worker threads (paper setup: "6 threads (4 workers,
// 1 epoch thread, 1 GC thread)"). The workers are the serving pool the
// engine models as Clover's bottleneck.
constexpr int kMsWorkers = 4;
// MS GC pass interval (virtual time). Clover dedicates a GC thread that
// cycles continuously; a pass over the hot chains is fast.
constexpr double kGcIntervalUs = 20e3;

}  // namespace

CloverSim::CloverSim(const CloverSimOptions& options)
    : Driver(options, "sim.clover", "ms_pool.utilization",
             net::LinkProfile(), kMsWorkers, /*pipeline_depth=*/1,
             /*tracer=*/nullptr),
      options_(options) {
  if (options_.metrics != nullptr) {
    options_.clover.metrics = options_.metrics;
  }
  store_ = std::make_unique<clover::CloverStore>(options_.clover);
  for (int i = 0; i < options_.num_kns; ++i) {
    auto kn_sim = std::make_unique<KnSim>();
    for (int w = 0; w < options_.workers_per_kn; ++w) {
      auto ws = std::make_unique<WorkerSim>();
      const int fabric_node =
          (i * options_.workers_per_kn + w) % net::Fabric::kMaxNodes;
      ws->kn = std::make_unique<clover::CloverKn>(
          store_.get(), fabric_node,
          options_.cache_bytes_per_kn / options_.workers_per_kn);
      kn_sim->workers.push_back(std::move(ws));
    }
    kns_.push_back(std::move(kn_sim));
  }
}

void CloverSim::Preload() {
  clover::CloverKn* loader = kns_[0]->workers[0]->kn.get();
  const std::string value(options_.spec.value_size, 'p');
  for (uint64_t rec = 0; rec < options_.spec.record_count; ++rec) {
    kn::OpResult r = loader->Put(workload::KeyForRecord(rec), value);
    DINOMO_CHECK(r.status.ok());
  }
  profile_base_ = CountProfile();  // the load phase is not profiled
}

void CloverSim::Run(double duration_us, double warmup_us) {
  if (!gc_running_) {
    gc_running_ = true;
    engine_.ScheduleAfter(kGcIntervalUs, [this] { GcTick(); });
  }
  Driver::Run(duration_us, warmup_us);
}

void CloverSim::GcTick() {
  store_->RunGcOnce();
  if (engine_.now_us() < run_until_) {
    engine_.ScheduleAfter(kGcIntervalUs, [this] { GcTick(); });
  } else {
    gc_running_ = false;
  }
}

double CloverSim::TryServe(const workload::WorkloadOp& op,
                           const std::string& put_value, obs::TraceContext*,
                           bool, const std::function<void()>& retry,
                           double* start_us) {
  const double now = engine_.now_us();
  // Shared-everything: any KN serves any key; clients spread requests
  // round-robin across the KNs they believe are alive.
  std::vector<KnSim*> routable;
  for (auto& k : kns_) {
    if (k->routable) routable.push_back(k.get());
  }
  if (routable.empty()) {
    return RetryAt(now + options_.request_timeout_us, nullptr, retry);
  }
  KnSim* k = routable[salt_ % routable.size()];
  WorkerSim* ws =
      k->workers[(salt_ / routable.size()) % k->workers.size()].get();
  salt_++;
  if (k->failed) {
    // Client does not yet know: the request times out first (§5.3).
    return RetryAt(now + options_.request_timeout_us, nullptr, retry);
  }

  kn::OpResult r;
  switch (op.type) {
    case workload::OpType::kRead:
      r = ws->kn->Get(op.key);
      break;
    case workload::OpType::kUpdate:
    case workload::OpType::kInsert:
      r = ws->kn->Put(op.key, put_value);
      break;
    case workload::OpType::kScan:
      // Clover's index is hash-only; the baseline cannot serve the scan
      // class. Degrade to a point read of the start key so a mixed spec
      // still drives load instead of wedging the closed loop.
      r = ws->kn->Get(op.key);
      break;
  }
  if (!r.status.ok() && !r.status.IsNotFound()) {
    return RetryAt(now + 1000.0, nullptr, retry);
  }
  ops_executed_++;

  // Metadata-server involvement (its pool is Clover's scaling
  // bottleneck); the submit-and-wait worker is busy until the finish.
  return Serve(r, /*async_worker=*/false, &ws->free_until, start_us);
}

CloverSim::ProfileCounts CloverSim::CountProfile() const {
  ProfileCounts c;
  for (const auto& k : kns_) {
    for (const auto& ws : k->workers) {
      const cache::CacheStats cs = ws->kn->stats();
      c.hits += cs.value_hits + cs.shortcut_hits;
      c.misses += cs.misses;
    }
  }
  c.rts = store_->fabric()->TotalRoundTrips();
  c.ops = ops_executed_;
  return c;
}

CloverSim::Profile CloverSim::CollectProfile() const {
  const ProfileCounts now = CountProfile();
  const uint64_t hits = now.hits - profile_base_.hits;
  const uint64_t ops = now.ops - profile_base_.ops;
  Profile p;
  p.ops = hits + now.misses - profile_base_.misses;
  if (p.ops > 0) p.cache_hit_ratio = static_cast<double>(hits) / p.ops;
  if (ops > 0) {
    p.rts_per_op = static_cast<double>(now.rts - profile_base_.rts) / ops;
  }
  return p;
}

void CloverSim::ScheduleKill(double at_us, int kn_index) {
  engine_.ScheduleAt(at_us, [this, kn_index] {
    std::vector<KnSim*> active;
    for (auto& k : kns_) {
      if (!k->failed) active.push_back(k.get());
    }
    if (kn_index < 0 || kn_index >= static_cast<int>(active.size())) return;
    KnSim* victim = active[kn_index];
    victim->failed = true;
    // Clients keep timing out on it until the membership update lands —
    // no data reorganization is needed (shared-everything).
    engine_.ScheduleAfter(options_.membership_update_us,
                          [victim] { victim->routable = false; });
  });
}

}  // namespace sim
}  // namespace dinomo
