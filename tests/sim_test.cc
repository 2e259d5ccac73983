#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/clover_sim.h"
#include "sim/dinomo_sim.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {
namespace {

constexpr size_t kMiB = 1024 * 1024;

// ----- Engine primitives -----

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(30, [&] { order.push_back(3); });
  engine.ScheduleAt(10, [&] { order.push_back(1); });
  engine.ScheduleAt(20, [&] { order.push_back(2); });
  engine.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now_us(), 100.0);
}

TEST(EngineTest, TiesBreakInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(10, [&] { order.push_back(1); });
  engine.ScheduleAt(10, [&] { order.push_back(2); });
  engine.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAt(10, [&] {
    fired++;
    engine.ScheduleAfter(5, [&] { fired++; });
  });
  engine.RunUntil(100);
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAt(10, [&] { fired++; });
  engine.ScheduleAt(200, [&] { fired++; });
  engine.RunUntil(100);
  EXPECT_EQ(fired, 1);
  engine.RunUntil(300);
  EXPECT_EQ(fired, 2);
}

TEST(LinkModelTest, SerializesTransfers) {
  LinkModel link(/*gbps=*/1.0);  // 1000 bytes/us
  const double a = link.Reserve(0.0, 1000);   // 1 us
  const double b = link.Reserve(0.0, 1000);   // queues behind a
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
  const double c = link.Reserve(10.0, 500);   // idle gap, starts at 10
  EXPECT_DOUBLE_EQ(c, 10.5);
  EXPECT_DOUBLE_EQ(link.busy_us(), 2.5);
}

TEST(PoolModelTest, ParallelServersThenQueueing) {
  PoolModel pool(2);
  EXPECT_DOUBLE_EQ(pool.Reserve(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(pool.Reserve(0.0, 10.0), 10.0);  // second server
  EXPECT_DOUBLE_EQ(pool.Reserve(0.0, 10.0), 20.0);  // queues
  EXPECT_DOUBLE_EQ(pool.Utilization(20.0), 30.0 / 40.0);
}

TEST(WindowStatsTest, BucketsByCompletionTime) {
  WindowStats stats(100.0);
  stats.Record(50.0, 5.0);
  stats.Record(150.0, 10.0);
  stats.Record(160.0, 20.0);
  ASSERT_EQ(stats.num_windows(), 2u);
  EXPECT_EQ(stats.window(0).completed, 1u);
  EXPECT_EQ(stats.window(1).completed, 2u);
  EXPECT_NEAR(stats.window(1).latency.Average(), 15.0, 0.01);
}

// ----- DINOMO virtual-time cluster -----

DinomoSimOptions SmallSim(SystemVariant variant, int kns) {
  DinomoSimOptions opt;
  opt.variant = variant;
  opt.num_kns = kns;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 8;
  opt.dpm.segment_size = 512 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 2 * kMiB;
  opt.dpm_threads = 2;
  opt.client_threads = 8;
  opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(5000, 0.99);
  opt.spec.value_size = 256;
  return opt;
}

TEST(DinomoSimTest, ClosedLoopMakesProgress) {
  DinomoSim sim(SmallSim(SystemVariant::kDinomo, 2));
  sim.Preload();
  sim.Run(/*duration_us=*/200e3, /*warmup_us=*/50e3);
  EXPECT_GT(sim.ThroughputMops(), 0.0);
  EXPECT_GT(sim.AvgLatencyUs(), 0.0);
  EXPECT_GE(sim.P99LatencyUs(), sim.AvgLatencyUs());
}

TEST(DinomoSimTest, ProfileIsPlausible) {
  DinomoSim sim(SmallSim(SystemVariant::kDinomo, 2));
  sim.Preload();
  sim.Run(200e3, 0);
  auto profile = sim.CollectProfile();
  EXPECT_GT(profile.ops, 0u);
  EXPECT_GT(profile.cache_hit_ratio, 0.5);  // OP gives high locality
  EXPECT_LT(profile.rts_per_op, 3.0);
}

TEST(DinomoSimTest, MoreKnsMoreThroughput) {
  auto run = [](int kns) {
    DinomoSim sim(SmallSim(SystemVariant::kDinomo, kns));
    sim.Preload();
    sim.Run(200e3, 50e3);
    return sim.ThroughputMops();
  };
  const double t1 = run(1);
  const double t4 = run(4);
  EXPECT_GT(t4, t1 * 1.5);  // clearly scaling
}

TEST(DinomoSimTest, DinomoSUsesMoreRoundTrips) {
  auto profile = [](SystemVariant v) {
    DinomoSim sim(SmallSim(v, 2));
    sim.Preload();
    sim.Run(200e3, 0);
    return sim.CollectProfile();
  };
  const auto dinomo = profile(SystemVariant::kDinomo);
  const auto dinomo_s = profile(SystemVariant::kDinomoS);
  // Shortcut-only caching pays >= 1 RT per read; DAC converges to values.
  EXPECT_GT(dinomo_s.rts_per_op, dinomo.rts_per_op);
  EXPECT_LT(dinomo_s.value_hit_share, 0.01);
  EXPECT_GT(dinomo.value_hit_share, 0.3);
}

TEST(DinomoSimTest, DinomoNWorksAndScales) {
  DinomoSim sim(SmallSim(SystemVariant::kDinomoN, 2));
  sim.Preload();
  sim.Run(200e3, 50e3);
  EXPECT_GT(sim.ThroughputMops(), 0.0);
}

TEST(DinomoSimTest, ShortScanWorkloadMakesProgress) {
  // YCSB-E: the scan workload class the ordered DPM index opens. The sim
  // must drive worker->Scan end-to-end (scans show up in the profile) and
  // still make closed-loop progress.
  auto opt = SmallSim(SystemVariant::kDinomo, 2);
  opt.spec = workload::WorkloadSpec::ShortScans(5000, 0.99);
  opt.spec.value_size = 256;
  opt.spec.scan_len_max = 20;
  DinomoSim sim(opt);
  sim.Preload();
  sim.Run(200e3, 50e3);
  EXPECT_GT(sim.ThroughputMops(), 0.0);
  EXPECT_GT(sim.CollectProfile().scans, 0u);
}

TEST(DinomoSimTest, KillKnDipsThenRecovers) {
  auto opt = SmallSim(SystemVariant::kDinomo, 4);
  opt.stats_window_us = 50e3;
  DinomoSim sim(opt);
  sim.Preload();
  sim.ScheduleKill(/*at_us=*/500e3, /*kn_index=*/1);
  sim.Run(/*duration_us=*/1500e3, /*warmup_us=*/0);
  EXPECT_EQ(sim.NumActiveKns(), 3);

  const auto& w = sim.windows();
  ASSERT_GE(w.num_windows(), 24u);
  // Steady state before the kill vs the dip right after vs recovery.
  const double before = w.ThroughputMops(8);   // 400-450 ms
  const double during = w.ThroughputMops(11);  // 550-600 ms
  const double after = w.ThroughputMops(22);   // 1.1 s+
  EXPECT_LT(during, before);
  EXPECT_GT(after, during);
}

TEST(DinomoSimTest, MnodeAddsKnUnderOverload) {
  auto opt = SmallSim(SystemVariant::kDinomo, 1);
  opt.client_threads = 48;  // heavy load on one KN
  opt.policy.avg_latency_slo_us = 100.0;
  opt.policy.tail_latency_slo_us = 2000.0;
  opt.policy.grace_period_s = 0.3;
  opt.policy.max_kns = 4;
  opt.mnode_epoch_us = 100e3;
  DinomoSim sim(opt);
  sim.Preload();
  sim.EnableMnode();
  sim.Run(2e6, 0);
  EXPECT_GT(sim.NumActiveKns(), 1);
}

TEST(DinomoSimTest, MnodeRemovesIdleKn) {
  auto opt = SmallSim(SystemVariant::kDinomo, 3);
  opt.client_threads = 1;  // light load, spread across 3 KNs
  opt.policy.under_utilization_upper_bound = 0.25;
  opt.policy.grace_period_s = 0.2;
  opt.mnode_epoch_us = 100e3;
  DinomoSim sim(opt);
  sim.Preload();
  sim.EnableMnode();
  sim.Run(2e6, 0);
  EXPECT_LT(sim.NumActiveKns(), 3);
}

// Policy parameters under which the M-node observes every epoch but never
// acts: no SLO can be violated and no KN removed.
void ObserveOnly(DinomoSimOptions* opt) {
  opt->policy.avg_latency_slo_us = 1e12;
  opt->policy.tail_latency_slo_us = 1e12;
  opt->policy.min_kns = opt->num_kns;
  opt->policy.max_kns = opt->num_kns;
}

// Sum of the counters named <prefix>...<suffix> in `snap`.
uint64_t SumCounters(const obs::MetricsSnapshot& snap, std::string_view prefix,
                     std::string_view suffix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

TEST(DinomoSimTest, MnodeEpochsKeepCacheCounters) {
  obs::MetricsRegistry reg;
  auto opt = SmallSim(SystemVariant::kDinomo, 2);
  opt.metrics = &reg;
  opt.spec = workload::WorkloadSpec::ReadOnly(5000, 0.99);
  opt.spec.value_size = 256;
  opt.mnode_epoch_us = 50e3;
  ObserveOnly(&opt);
  DinomoSim sim(opt);
  sim.Preload();
  const obs::MetricsSnapshot base = reg.Snapshot();
  sim.EnableMnode();
  sim.Run(300e3, 0);  // six epochs
  const obs::MetricsSnapshot d = reg.Snapshot().DeltaSince(base);
  const uint64_t lookups = SumCounters(d, "cache.", ".value_hits") +
                           SumCounters(d, "cache.", ".shortcut_hits") +
                           SumCounters(d, "cache.", ".misses");
  EXPECT_GT(lookups, 0u);
  // Read-only traffic: every op a worker served made one cache lookup.
  EXPECT_EQ(lookups, SumCounters(d, "kn.kn", ".ops"));
  // The worker caches' own stats agree with the registry.
  EXPECT_EQ(lookups, sim.CollectProfile().ops);
}

TEST(DinomoSimTest, MnodeEpochLeavesProfileWindowAlone) {
  auto run = [](bool mnode) {
    auto opt = SmallSim(SystemVariant::kDinomo, 2);
    opt.mnode_epoch_us = 100e3;
    ObserveOnly(&opt);
    DinomoSim sim(opt);
    sim.Preload();
    if (mnode) sim.EnableMnode();
    sim.Run(250e3, 0);
    return sim.CollectProfile();
  };
  const DinomoSim::Profile plain = run(false);
  const DinomoSim::Profile epochs = run(true);
  EXPECT_GT(plain.ops, 0u);
  EXPECT_EQ(epochs.ops, plain.ops);
  EXPECT_EQ(epochs.scans, plain.scans);
  EXPECT_EQ(epochs.requests, plain.requests);
  EXPECT_EQ(epochs.round_trips, plain.round_trips);
  EXPECT_EQ(epochs.cache_hit_ratio, plain.cache_hit_ratio);
  EXPECT_EQ(epochs.value_hit_share, plain.value_hit_share);
  EXPECT_EQ(epochs.rts_per_op, plain.rts_per_op);
}

TEST(DinomoSimTest, LoadChangeTakesEffect) {
  auto opt = SmallSim(SystemVariant::kDinomo, 2);
  opt.client_threads = 2;
  opt.stats_window_us = 100e3;
  DinomoSim sim(opt);
  sim.Preload();
  sim.ScheduleLoadChange(500e3, 16);
  sim.Run(1e6, 0);
  const auto& w = sim.windows();
  ASSERT_GE(w.num_windows(), 10u);
  EXPECT_GT(w.ThroughputMops(8), w.ThroughputMops(3) * 1.5);
}

// ----- Clover virtual-time cluster -----

CloverSimOptions SmallClover(int kns) {
  CloverSimOptions opt;
  opt.num_kns = kns;
  opt.workers_per_kn = 2;
  opt.clover.pool_size = 256 * kMiB;
  opt.cache_bytes_per_kn = 2 * kMiB;
  opt.client_threads = 8;
  opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(5000, 0.99);
  opt.spec.value_size = 256;
  return opt;
}

TEST(CloverSimTest, ClosedLoopMakesProgress) {
  CloverSim sim(SmallClover(2));
  sim.Preload();
  sim.Run(200e3, 50e3);
  EXPECT_GT(sim.ThroughputMops(), 0.0);
  auto profile = sim.CollectProfile();
  EXPECT_GT(profile.ops, 0u);
  EXPECT_GT(profile.rts_per_op, 0.9);  // shortcut-only: >= 1 RT per read
}

TEST(CloverSimTest, KillBarelyDisturbsClover) {
  auto opt = SmallClover(4);
  opt.stats_window_us = 50e3;
  CloverSim sim(opt);
  sim.Preload();
  sim.ScheduleKill(500e3, 1);
  sim.Run(1500e3, 0);
  EXPECT_EQ(sim.NumActiveKns(), 3);
  const auto& w = sim.windows();
  ASSERT_GE(w.num_windows(), 24u);
  // Shared-everything: after the membership update the rest absorb the
  // load without reorganization.
  EXPECT_GT(w.ThroughputMops(22), 0.5 * w.ThroughputMops(8));
}

}  // namespace
}  // namespace sim
}  // namespace dinomo
