#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/cluster.h"
#include "load/arrival.h"
#include "load/op_trace.h"
#include "load/open_loop_runner.h"
#include "load/traffic.h"
#include "mnode/policy.h"
#include "obs/metrics.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;
constexpr double kSecond = 1e6;

// ----- RateSchedule -----

TEST(RateScheduleTest, ConstantHoldsEverywhere) {
  auto s = load::RateSchedule::Constant(50e3);
  EXPECT_DOUBLE_EQ(s.RateAt(0), 50e3);
  EXPECT_DOUBLE_EQ(s.RateAt(123456.7), 50e3);
  EXPECT_DOUBLE_EQ(s.MaxRate(), 50e3);
  // Integral of a constant: rate * t.
  EXPECT_NEAR(s.ExpectedArrivals(2e6), 100e3, 1e-6);
}

TEST(RateScheduleTest, DiurnalSwingsBetweenTroughAndPeak) {
  const double period = 1e6;
  auto s = load::RateSchedule::Diurnal(100e3, 300e3, period,
                                       /*steps_per_period=*/32,
                                       /*horizon_us=*/2 * period);
  // Starts at the trough, crests half a period in.
  EXPECT_LT(s.RateAt(0), 110e3);
  EXPECT_GT(s.RateAt(period / 2), 290e3);
  // Every sampled step stays inside [trough, peak].
  for (const auto& seg : s.segments()) {
    EXPECT_GE(seg.rate_ops_per_s, 0.0);
    EXPECT_LE(seg.rate_ops_per_s, 300e3 + 1e-9);
  }
  // Mean over a whole period is the sinusoid midpoint.
  EXPECT_NEAR(s.ExpectedArrivals(period) / (period / 1e6), 200e3,
              0.01 * 200e3);
}

TEST(RateScheduleTest, SpikeOverlaysMaxOfBaseAndSpike) {
  auto s = load::RateSchedule::Constant(100e3);
  s.AddSpike(/*at_us=*/5e5, /*duration_us=*/1e5, /*rate=*/1e6);
  EXPECT_DOUBLE_EQ(s.RateAt(4.99e5), 100e3);
  EXPECT_DOUBLE_EQ(s.RateAt(5.0e5), 1e6);
  EXPECT_DOUBLE_EQ(s.RateAt(5.99e5), 1e6);
  EXPECT_DOUBLE_EQ(s.RateAt(6.0e5), 100e3);
  EXPECT_DOUBLE_EQ(s.MaxRate(), 1e6);
  // A spike below the base rate changes nothing (max-overlay).
  auto weak = load::RateSchedule::Constant(100e3);
  weak.AddSpike(5e5, 1e5, 50e3);
  EXPECT_DOUBLE_EQ(weak.RateAt(5.5e5), 100e3);
}

// ----- Arrival processes -----

std::vector<double> Drain(load::ArrivalProcess* p, double until_us) {
  std::vector<double> out;
  for (;;) {
    const double t = p->NextArrivalUs();
    if (t >= until_us) break;
    out.push_back(t);
  }
  return out;
}

TEST(ArrivalTest, PoissonSeedDeterminism) {
  load::PoissonProcess a(80e3, /*seed=*/7), b(80e3, /*seed=*/7);
  load::PoissonProcess c(80e3, /*seed=*/8);
  auto sa = Drain(&a, 1e5), sb = Drain(&b, 1e5), sc = Drain(&c, 1e5);
  EXPECT_EQ(sa, sb);  // bit-identical, not just statistically alike
  EXPECT_NE(sa, sc);
  // Arrival times are strictly ordered.
  for (size_t i = 1; i < sa.size(); ++i) EXPECT_GT(sa[i], sa[i - 1]);
}

TEST(ArrivalTest, PoissonEmpiricalRateWithinOnePercent) {
  // 100k expected arrivals: Poisson sd is ~0.32% of the mean, so a seeded
  // draw landing outside 1% means the generator's rate is off, not luck.
  const double rate = 100e3, horizon = 1e6;
  load::PoissonProcess p(rate, /*seed=*/42);
  const double n = static_cast<double>(Drain(&p, horizon).size());
  const double expected = rate * horizon / 1e6;
  EXPECT_NEAR(n, expected, 0.01 * expected);
}

TEST(ArrivalTest, ScheduledTracksTheScheduleWithinOnePercent) {
  const double period = 2e6, horizon = 2 * period;
  auto s = load::RateSchedule::Diurnal(100e3, 300e3, period, 16, horizon);
  load::ScheduledArrivalProcess p(s, /*seed=*/42);
  const double n = static_cast<double>(Drain(&p, horizon).size());
  EXPECT_NEAR(n, s.ExpectedArrivals(horizon),
              0.01 * s.ExpectedArrivals(horizon));
}

TEST(ArrivalTest, SpikeWindowHitsProgrammedPeakRate) {
  const double spike_at = 1e6, spike_dur = 2e5, spike_rate = 1.2e6;
  auto s = load::RateSchedule::Diurnal(100e3, 200e3, 1.6e6, 16, 2e6);
  s.AddSpike(spike_at, spike_dur, spike_rate);
  load::ScheduledArrivalProcess p(s, /*seed=*/42);
  uint64_t in_spike = 0;
  for (double t : Drain(&p, 2e6)) {
    if (t >= spike_at && t < spike_at + spike_dur) in_spike++;
  }
  // 240k expected arrivals inside the spike: sd ~0.2% of the mean.
  const double expected = spike_rate * spike_dur / 1e6;
  EXPECT_NEAR(static_cast<double>(in_spike), expected, 0.01 * expected);
}

TEST(ArrivalTest, ZeroRateSegmentsAreSkippedDeterministically) {
  // rate r, then an idle hole, then r again.
  load::RateSchedule with_hole = load::RateSchedule::Constant(50e3);
  with_hole.AddSpike(0, 4e5, 50e3);        // boundary bookkeeping no-op
  {
    // Build [0,4e5): 50k, [4e5,8e5): 0, [8e5,inf): 50k via segments.
    load::RateSchedule s;
    s = load::RateSchedule::Constant(0.0);
    s.AddSpike(0, 4e5, 50e3);
    s.AddSpike(8e5, 4e5, 50e3);
    load::ScheduledArrivalProcess a(s, 42), b(s, 42);
    auto sa = Drain(&a, 1.2e6), sb = Drain(&b, 1.2e6);
    EXPECT_EQ(sa, sb);
    ASSERT_FALSE(sa.empty());
    for (double t : sa) {
      // Nothing arrives inside the idle hole.
      EXPECT_FALSE(t >= 4e5 && t < 8e5) << "arrival at " << t;
    }
    // Both active windows actually produced arrivals.
    EXPECT_GT(sa.front(), 0.0);
    EXPECT_GT(sa.back(), 8e5);
  }
  // A schedule that goes idle forever reports +inf, not a hang.
  load::RateSchedule ends = load::RateSchedule::Constant(0.0);
  ends.AddSpike(0, 1e5, 50e3);
  load::ScheduledArrivalProcess p(ends, 42);
  double t = 0;
  while ((t = p.NextArrivalUs()) < 1e5) {
  }
  EXPECT_TRUE(std::isinf(t));
}

// ----- OpenLoopSource -----

load::OpenLoopSpec TwoTenantSpec(uint64_t records) {
  load::OpenLoopSpec spec;
  spec.seed = 42;
  load::TenantSpec t0;
  t0.weight = 0.7;
  t0.spec = workload::WorkloadSpec::ReadMostlyUpdate(records / 2, 0.8);
  t0.key_base = 0;
  load::TenantSpec t1;
  t1.weight = 0.3;
  t1.spec = workload::WorkloadSpec::WriteHeavyUpdate(records - records / 2,
                                                     0.5);
  t1.key_base = records / 2;
  spec.tenants = {t0, t1};
  return spec;
}

std::vector<load::TimedOp> DrainSource(load::TrafficSource* s, size_t max_n) {
  std::vector<load::TimedOp> out;
  load::TimedOp op;
  while (out.size() < max_n && s->Next(&op)) out.push_back(op);
  return out;
}

bool SameOps(const std::vector<load::TimedOp>& a,
             const std::vector<load::TimedOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].intended_us != b[i].intended_us || a[i].tenant != b[i].tenant ||
        a[i].op.type != b[i].op.type || a[i].op.key != b[i].op.key ||
        a[i].op.scan_len != b[i].op.scan_len) {
      return false;
    }
  }
  return true;
}

TEST(OpenLoopSourceTest, DeterministicAndTenantPartitioned) {
  const uint64_t records = 4000;
  auto make = [&] {
    return load::OpenLoopSource(
        std::make_unique<load::PoissonProcess>(50e3, 42),
        TwoTenantSpec(records));
  };
  auto a = make(), b = make();
  auto ops_a = DrainSource(&a, 5000), ops_b = DrainSource(&b, 5000);
  ASSERT_EQ(ops_a.size(), 5000u);
  EXPECT_TRUE(SameOps(ops_a, ops_b));
  std::set<uint32_t> tenants_seen;
  for (const auto& op : ops_a) {
    tenants_seen.insert(op.tenant);
    if (op.op.type == workload::OpType::kInsert) continue;
    const uint64_t rec = workload::RecordForKey(op.op.key);
    if (op.tenant == 0) {
      EXPECT_LT(rec, records / 2);
    } else {
      EXPECT_GE(rec, records / 2);
      EXPECT_LT(rec, records);
    }
  }
  // Both tenants actually get traffic (weights 0.7 / 0.3).
  EXPECT_EQ(tenants_seen.size(), 2u);
}

TEST(OpenLoopSourceTest, HotChurnRotatesTheHeadButStaysInRange) {
  const uint64_t records = 4000;
  auto spec = TwoTenantSpec(records);
  auto churned_spec = spec;
  churned_spec.tenants[0].hot_churn_interval_us = 2e4;
  load::OpenLoopSource plain(
      std::make_unique<load::PoissonProcess>(50e3, 42), spec);
  load::OpenLoopSource churned(
      std::make_unique<load::PoissonProcess>(50e3, 42), churned_spec);
  auto ops_p = DrainSource(&plain, 4000), ops_c = DrainSource(&churned, 4000);
  // Same arrivals, same tenants — only tenant-0 keys are remapped.
  ASSERT_EQ(ops_p.size(), ops_c.size());
  bool any_differs = false;
  for (size_t i = 0; i < ops_p.size(); ++i) {
    EXPECT_DOUBLE_EQ(ops_p[i].intended_us, ops_c[i].intended_us);
    EXPECT_EQ(ops_p[i].tenant, ops_c[i].tenant);
    if (ops_c[i].tenant == 0 &&
        ops_c[i].op.type != workload::OpType::kInsert) {
      EXPECT_LT(workload::RecordForKey(ops_c[i].op.key), records / 2);
      if (ops_p[i].op.key != ops_c[i].op.key) any_differs = true;
    } else {
      EXPECT_EQ(ops_p[i].op.key, ops_c[i].op.key);
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(OpenLoopSourceTest, HorizonStopsTheStream) {
  auto spec = TwoTenantSpec(1000);
  spec.horizon_us = 1e5;
  load::OpenLoopSource src(std::make_unique<load::PoissonProcess>(50e3, 42),
                           spec);
  auto ops = DrainSource(&src, 100000);
  ASSERT_FALSE(ops.empty());
  EXPECT_LT(ops.back().intended_us, 1e5);
  load::TimedOp op;
  EXPECT_FALSE(src.Next(&op));
}

// ----- OpTrace -----

TEST(OpTraceTest, SerializeParseRoundTripIsExact) {
  load::OpenLoopSource src(std::make_unique<load::PoissonProcess>(40e3, 42),
                           TwoTenantSpec(2000));
  load::OpTrace trace;
  load::RecordingSource rec(&src, &trace);
  auto ops = DrainSource(&rec, 2000);
  ASSERT_EQ(trace.ops.size(), ops.size());

  auto parsed = load::OpTrace::Parse(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Bit-exact timestamps, keys, types, tenants — replay depends on it.
  EXPECT_TRUE(SameOps(trace.ops, parsed.value().ops));
}

TEST(OpTraceTest, FileRoundTripAndErrors) {
  load::OpTrace trace;
  load::TimedOp op;
  op.intended_us = 1234.5678901234567;  // needs %.17g to survive
  op.tenant = 3;
  op.op.type = workload::OpType::kScan;
  op.op.key = workload::KeyForRecord(77);
  op.op.scan_len = 25;
  trace.ops.push_back(op);

  const std::string path = ::testing::TempDir() + "/dinomo_op_trace_test.txt";
  ASSERT_TRUE(trace.SaveTo(path).ok());
  auto loaded = load::OpTrace::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameOps(trace.ops, loaded.value().ops));
  std::remove(path.c_str());

  EXPECT_FALSE(load::OpTrace::LoadFrom("/nonexistent/no/such/trace").ok());
  EXPECT_FALSE(load::OpTrace::Parse("not a trace header\n").ok());
  EXPECT_FALSE(
      load::OpTrace::Parse("dinomo-op-trace-v1\ngarbage line here\n").ok());
}

// ----- SloAutoscaler -----

mnode::SloAutoscalerParams ScalerParams() {
  mnode::SloAutoscalerParams p;
  p.p99_slo_us = 1000.0;
  p.breach_windows = 2;
  p.clear_windows = 3;
  p.clear_fraction = 0.5;
  p.cooldown_s = 1.0;
  p.min_kns = 4;
  p.max_kns = 16;
  p.scale_up_step = 4;
  p.scale_down_step = 2;
  return p;
}

mnode::SloSample Sample(double p99, int kns, uint64_t offered = 100,
                        uint64_t completed = 100) {
  mnode::SloSample s;
  s.p99_us = p99;
  s.offered = offered;
  s.completed = completed;
  s.active_kns = kns;
  return s;
}

TEST(SloAutoscalerTest, ScalesUpAfterBreachStreakNotBefore) {
  mnode::SloAutoscaler a(ScalerParams());
  EXPECT_EQ(a.Observe(Sample(5000, 8), 0.0).delta_kns, 0);
  EXPECT_EQ(a.state(), mnode::SloAutoscaler::State::kBreaching);
  EXPECT_EQ(a.Observe(Sample(5000, 8), 0.1).delta_kns, 4);
  EXPECT_EQ(a.scale_ups(), 1);
  EXPECT_EQ(a.state(), mnode::SloAutoscaler::State::kCooldown);
}

TEST(SloAutoscalerTest, HysteresisBandResetsBothStreaks) {
  mnode::SloAutoscaler a(ScalerParams());
  // One breach window, then a so-so window (between clear and SLO):
  // the streak must restart, so two more breaches are needed.
  a.Observe(Sample(5000, 8), 0.0);
  a.Observe(Sample(700, 8), 0.1);  // inside the band: 500 < 700 < 1000
  EXPECT_EQ(a.state(), mnode::SloAutoscaler::State::kSteady);
  EXPECT_EQ(a.Observe(Sample(5000, 8), 0.2).delta_kns, 0);
  EXPECT_EQ(a.Observe(Sample(5000, 8), 0.3).delta_kns, 4);
}

TEST(SloAutoscalerTest, ScalesDownAfterClearStreakAndRespectsMin) {
  mnode::SloAutoscaler a(ScalerParams());
  EXPECT_EQ(a.Observe(Sample(100, 6), 0.0).delta_kns, 0);
  EXPECT_EQ(a.Observe(Sample(100, 6), 0.1).delta_kns, 0);
  EXPECT_EQ(a.Observe(Sample(100, 6), 0.2).delta_kns, -2);
  EXPECT_EQ(a.scale_downs(), 1);
  // At min + 1 the step is clamped to not undershoot min_kns.
  mnode::SloAutoscaler b(ScalerParams());
  b.Observe(Sample(100, 5), 0.0);
  b.Observe(Sample(100, 5), 0.1);
  EXPECT_EQ(b.Observe(Sample(100, 5), 0.2).delta_kns, -1);
  // At the floor there is nothing to remove.
  mnode::SloAutoscaler c(ScalerParams());
  c.Observe(Sample(100, 4), 0.0);
  c.Observe(Sample(100, 4), 0.1);
  EXPECT_EQ(c.Observe(Sample(100, 4), 0.2).delta_kns, 0);
}

TEST(SloAutoscalerTest, CooldownBlocksActionsAndMaxClamps) {
  mnode::SloAutoscaler a(ScalerParams());
  a.Observe(Sample(5000, 8), 0.0);
  EXPECT_EQ(a.Observe(Sample(5000, 8), 0.1).delta_kns, 4);
  // Inside the 1 s cooldown nothing fires, no matter how bad the tail.
  EXPECT_EQ(a.Observe(Sample(9000, 12), 0.5).delta_kns, 0);
  EXPECT_EQ(a.state(), mnode::SloAutoscaler::State::kCooldown);
  // After cooldown the streak must be rebuilt from zero.
  EXPECT_EQ(a.Observe(Sample(9000, 12), 1.2).delta_kns, 0);
  EXPECT_EQ(a.Observe(Sample(9000, 12), 1.3).delta_kns, 4);
  // At 15 of max 16 the step clamps to 1; at max, no action at all.
  mnode::SloAutoscaler b(ScalerParams());
  b.Observe(Sample(5000, 15), 0.0);
  EXPECT_EQ(b.Observe(Sample(5000, 15), 0.1).delta_kns, 1);
  mnode::SloAutoscaler c(ScalerParams());
  c.Observe(Sample(5000, 16), 0.0);
  EXPECT_EQ(c.Observe(Sample(5000, 16), 0.1).delta_kns, 0);
}

TEST(SloAutoscalerTest, CollapseCountsAsBreachIdleHolds) {
  mnode::SloAutoscaler a(ScalerParams());
  // Offered traffic, zero completions: p99 is meaningless (no samples)
  // but the window is the worst possible breach.
  a.Observe(Sample(0, 8, /*offered=*/500, /*completed=*/0), 0.0);
  EXPECT_EQ(a.state(), mnode::SloAutoscaler::State::kBreaching);
  EXPECT_EQ(a.Observe(Sample(0, 8, 500, 0), 0.1).delta_kns, 4);
  // A genuinely idle window neither extends nor resets a streak: two
  // clears, an idle gap, then a third clear still completes the streak.
  mnode::SloAutoscaler b(ScalerParams());
  b.Observe(Sample(100, 6), 0.0);
  b.Observe(Sample(100, 6), 0.1);
  b.Observe(Sample(0, 6, 0, 0), 0.2);  // idle: held, not counted
  EXPECT_EQ(b.state(), mnode::SloAutoscaler::State::kSteady);
  EXPECT_EQ(b.Observe(Sample(100, 6), 0.3).delta_kns, -2);
}

// ----- Histogram / HistogramMetric merge -----

TEST(HistogramMergeTest, MergedPercentilesMatchCombinedFeed) {
  Histogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const double v1 = 10.0 + (i % 97) * 3.0;
    const double v2 = 500.0 + (i % 31) * 40.0;
    a.Add(v1);
    combined.Add(v1);
    b.Add(v2);
    combined.Add(v2);
  }
  Histogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_DOUBLE_EQ(merged.sum(), combined.sum());
  // Merge is exact bucket-wise addition, so every percentile agrees
  // bit-for-bit with the single-histogram feed.
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), combined.Percentile(p)) << p;
  }
  EXPECT_DOUBLE_EQ(merged.min(), combined.min());
  EXPECT_DOUBLE_EQ(merged.max(), combined.max());
}

TEST(HistogramMergeTest, HistogramMetricMergeMatchesToo) {
  obs::MetricsRegistry registry;
  auto& m1 = registry.GetHistogram("merge.test.a");
  auto& m2 = registry.GetHistogram("merge.test.b");
  Histogram combined;
  for (int i = 0; i < 1000; ++i) {
    m1.Record(5.0 + i);
    combined.Add(5.0 + i);
    m2.Record(2000.0 + i * 7);
    combined.Add(2000.0 + i * 7);
  }
  m1.Merge(m2);
  Histogram snap = m1.snapshot();
  EXPECT_EQ(snap.count(), combined.count());
  EXPECT_DOUBLE_EQ(snap.P99(), combined.P99());
}

// ----- Open-loop sim: determinism + record/replay -----

sim::DinomoSimOptions OpenLoopSimOptions() {
  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = 4;
  opt.dpm_nodes = 2;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 8;
  opt.dpm.segment_size = 512 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 2 * kMiB;
  opt.dpm_threads = 2;
  // Rack-style per-op CPU budgets (as in bench/storm_autoscaling): 8
  // workers x ~100 us/op => ~80 Kops/s capacity, so the open-loop rates
  // below sit at known utilization fractions.
  opt.kn.cpu_value_hit_us = 100.0;
  opt.kn.cpu_shortcut_hit_us = 140.0;
  opt.kn.cpu_miss_us = 160.0;
  opt.kn.cpu_write_us = 120.0;
  opt.client_threads = 0;  // open loop only
  opt.spec.record_count = 2000;
  opt.spec.value_size = 256;
  return opt;
}

load::OpenLoopSpec OpenLoopSimTenants() {
  auto spec = TwoTenantSpec(2000);
  for (auto& t : spec.tenants) t.spec.value_size = 256;
  spec.horizon_us = 0.3 * kSecond;
  return spec;
}

struct OpenLoopRunResult {
  uint64_t offered = 0;
  uint64_t completed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

OpenLoopRunResult RunOpenLoopSim(load::TrafficSource* source) {
  sim::DinomoSim sim(OpenLoopSimOptions());
  sim.Preload();
  sim::DinomoSim::OpenLoopOptions run;
  run.source = source;
  run.value_size = 256;
  sim.RunOpenLoop(run, 0.3 * kSecond, /*warmup_us=*/0.05 * kSecond);
  const auto& st = *sim.open_loop_stats();
  OpenLoopRunResult r;
  r.offered = st.offered;
  r.completed = st.completed;
  r.p50 = st.intended_latency.P50();
  r.p99 = st.intended_latency.P99();
  return r;
}

TEST(OpenLoopSimTest, TwoIdenticalRunsAreBitIdentical) {
  load::OpenLoopSource s1(std::make_unique<load::PoissonProcess>(40e3, 42),
                          OpenLoopSimTenants());
  load::OpenLoopSource s2(std::make_unique<load::PoissonProcess>(40e3, 42),
                          OpenLoopSimTenants());
  auto r1 = RunOpenLoopSim(&s1), r2 = RunOpenLoopSim(&s2);
  ASSERT_GT(r1.completed, 0u);
  EXPECT_EQ(r1.offered, r2.offered);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_DOUBLE_EQ(r1.p50, r2.p50);
  EXPECT_DOUBLE_EQ(r1.p99, r2.p99);
}

TEST(OpenLoopSimTest, RecordThenReplayReproducesTheRun) {
  // Record a live run...
  load::OpenLoopSource live(std::make_unique<load::PoissonProcess>(40e3, 42),
                            OpenLoopSimTenants());
  load::OpTrace trace;
  load::RecordingSource recording(&live, &trace);
  auto recorded_run = RunOpenLoopSim(&recording);
  ASSERT_GT(trace.ops.size(), 0u);

  // ...round-trip the trace through its text form...
  auto parsed = load::OpTrace::Parse(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().ops.size(), trace.ops.size());

  // ...and replay it into a fresh sim: same offered stream, same
  // completions, bit-identical latency percentiles.
  load::ReplaySource replay(&parsed.value());
  auto replayed_run = RunOpenLoopSim(&replay);
  EXPECT_EQ(recorded_run.offered, replayed_run.offered);
  EXPECT_EQ(recorded_run.completed, replayed_run.completed);
  EXPECT_DOUBLE_EQ(recorded_run.p50, replayed_run.p50);
  EXPECT_DOUBLE_EQ(recorded_run.p99, replayed_run.p99);
}

TEST(OpenLoopSimTest, OverloadShowsUpInIntendedBasisLatency) {
  // The whole point of the open loop: a closed-loop run at any rate sits
  // at bounded latency (it only issues as fast as the system completes),
  // but an open-loop arrival stream above capacity builds a backlog and
  // the intended-basis tail grows toward the run duration. Compare a
  // subcritical run (rho ~ 0.5) with a 6x-overload run of the same sim.
  auto run_at = [](double rate) {
    auto spec = OpenLoopSimTenants();
    spec.horizon_us = 0.2 * kSecond;
    load::OpenLoopSource src(std::make_unique<load::PoissonProcess>(rate, 42),
                             spec);
    sim::DinomoSim sim(OpenLoopSimOptions());
    sim.Preload();
    sim::DinomoSim::OpenLoopOptions run;
    run.source = &src;
    run.value_size = 256;
    sim.RunOpenLoop(run, 0.4 * kSecond);
    const auto& st = *sim.open_loop_stats();
    struct {
      uint64_t offered, completed, in_flight;
      double p99;
    } r{st.offered, st.completed, st.in_flight_at_end,
        st.intended_latency.P99()};
    return r;
  };
  auto calm = run_at(40e3);
  auto storm = run_at(500e3);
  // Subcritical: everything drains, tail stays in single-op territory.
  EXPECT_EQ(calm.completed + calm.in_flight, calm.offered);
  ASSERT_GT(calm.completed, 0u);
  // Overloaded: arrivals kept coming regardless of completions (open
  // loop), the run ends with a standing backlog, and the intended-basis
  // p99 is dominated by time spent queued — orders of magnitude above
  // the subcritical tail. A closed-loop driver would have reported
  // bounded latency here by silently not offering the load.
  EXPECT_GT(storm.offered, storm.completed);
  EXPECT_GT(storm.in_flight, 0u);
  EXPECT_GT(storm.p99, 50 * calm.p99);
  EXPECT_GT(storm.p99, 0.1 * 0.2 * kSecond);  // backlog-scale, not op-scale
}

TEST(OpenLoopSimTest, ServiceLatencyExcludesQueueWait) {
  // Under 6x overload every op waits behind a worker backlog. Service
  // latency starts when the worker takes the op up, so it leaves out the
  // backlog wait that dominates the intended-basis tail; the wait is
  // reported on its own.
  auto spec = OpenLoopSimTenants();
  spec.horizon_us = 0.2 * kSecond;
  load::OpenLoopSource src(std::make_unique<load::PoissonProcess>(500e3, 42),
                           spec);
  sim::DinomoSim sim(OpenLoopSimOptions());
  sim.Preload();
  sim::DinomoSim::OpenLoopOptions run;
  run.source = &src;
  run.value_size = 256;
  sim.RunOpenLoop(run, 0.4 * kSecond);
  const auto& st = *sim.open_loop_stats();
  ASSERT_GT(st.completed, 0u);
  EXPECT_LT(st.service_latency.P99(), st.intended_latency.P99());
  EXPECT_GT(st.queue_wait.P99(), 0.0);
  EXPECT_GT(st.queue_wait.P99(), st.service_latency.P99());
}

// ----- Autoscaled open-loop sim -----

TEST(OpenLoopSimTest, AutoscalerAddsAndRemovesKnsUnderASpike) {
  auto schedule = load::RateSchedule::Constant(40e3);
  schedule.AddSpike(/*at_us=*/0.3 * kSecond, /*duration_us=*/0.1 * kSecond,
                    /*rate=*/300e3);
  auto tenants = OpenLoopSimTenants();
  tenants.horizon_us = 1.2 * kSecond;
  load::OpenLoopSource src(
      std::make_unique<load::ScheduledArrivalProcess>(schedule, 42), tenants);

  sim::DinomoSim sim(OpenLoopSimOptions());
  sim.Preload();
  sim::DinomoSim::OpenLoopOptions run;
  run.source = &src;
  run.value_size = 256;
  run.autoscale = true;
  run.autoscaler.p99_slo_us = 2000.0;
  run.autoscaler.breach_windows = 2;
  run.autoscaler.clear_windows = 3;
  run.autoscaler.cooldown_s = 0.05;
  run.autoscaler.min_kns = 4;
  run.autoscaler.max_kns = 12;
  run.autoscaler.scale_up_step = 4;
  run.autoscaler.scale_down_step = 4;
  run.autoscaler_interval_us = 25e3;
  sim.RunOpenLoop(run, 1.2 * kSecond);

  const auto& st = *sim.open_loop_stats();
  EXPECT_GE(st.scale_ups, 1);
  EXPECT_GE(st.scale_downs, 1);
  int peak = 4;
  for (const auto& [t, kns] : st.kn_trajectory) peak = std::max(peak, kns);
  EXPECT_GT(peak, 4);
  EXPECT_EQ(sim.NumActiveKns(), 4);  // decayed back to the floor
  // The backlog drained: essentially everything offered completed.
  EXPECT_GE(st.completed + st.in_flight_at_end + st.abandoned, st.offered);
}

// ----- ScheduleLoadChange regression (down then up) -----

TEST(LoadChangeRegressionTest, StreamsReactivateWhenLoadComesBack) {
  // Pre-fix, a load change *up* only started streams above the previous
  // count: after 8 -> 2 -> 8, streams 2..7 stayed parked forever and the
  // "up" phase ran at 2-stream throughput. Compare against a sim that
  // stays at 2 streams: the re-upped sim must complete measurably more.
  auto base = [] {
    sim::DinomoSimOptions opt;
    opt.variant = SystemVariant::kDinomo;
    opt.num_kns = 2;
    opt.dpm.pool_size = 256 * kMiB;
    opt.dpm.index_log2_buckets = 8;
    opt.dpm.segment_size = 512 * 1024;
    opt.kn.num_workers = 2;
    opt.kn.cache_bytes = 2 * kMiB;
    opt.dpm_threads = 2;
    opt.client_threads = 8;
    opt.spec = workload::WorkloadSpec::ReadMostlyUpdate(2000, 0.8);
    opt.spec.value_size = 256;
    return opt;
  };

  sim::DinomoSim re_upped(base());
  re_upped.Preload();
  re_upped.ScheduleLoadChange(0.2 * kSecond, 2);
  re_upped.ScheduleLoadChange(0.4 * kSecond, 8);
  re_upped.Run(0.8 * kSecond);

  sim::DinomoSim stays_down(base());
  stays_down.Preload();
  stays_down.ScheduleLoadChange(0.2 * kSecond, 2);
  stays_down.Run(0.8 * kSecond);

  uint64_t ops_up = 0, ops_down = 0;
  for (size_t i = 0; i < re_upped.windows().num_windows(); ++i) {
    ops_up += re_upped.windows().window(i).completed;
  }
  for (size_t i = 0; i < stays_down.windows().num_windows(); ++i) {
    ops_down += stays_down.windows().window(i).completed;
  }
  ASSERT_GT(ops_down, 0u);
  // Half the run at 4x the streams: anything close to equal means the
  // reactivation path regressed.
  EXPECT_GT(ops_up, ops_down * 5 / 4);
}

TEST(LoadChangeRegressionTest, BackToBackRunsKeepEveryStreamLive) {
  // Companion to the reactivation fix: Run() must (re)prime every stream
  // on entry, because a stream whose last completion landed exactly on
  // the previous run's end boundary has an empty window and no pending
  // event — it would otherwise stay silent for the whole second run.
  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = 2;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 8;
  opt.dpm.segment_size = 512 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 2 * kMiB;
  opt.dpm_threads = 2;
  opt.client_threads = 4;
  opt.spec = workload::WorkloadSpec::ReadMostlyUpdate(2000, 0.8);
  opt.spec.value_size = 256;
  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(0.2 * kSecond);
  uint64_t first = 0;
  for (size_t i = 0; i < sim.windows().num_windows(); ++i) {
    first += sim.windows().window(i).completed;
  }
  ASSERT_GT(first, 0u);
  sim.Run(0.2 * kSecond);
  uint64_t total = 0;
  for (size_t i = 0; i < sim.windows().num_windows(); ++i) {
    total += sim.windows().window(i).completed;
  }
  // The second run contributed real throughput, not a trickle of
  // leftovers from the first run's in-flight window.
  EXPECT_GT(total, first + first / 2);
}

// ----- OpenLoopRunner (wall clock) -----

TEST(OpenLoopRunnerTest, DrivesARealClusterFromASchedule) {
  ClusterOptions copt;
  copt.variant = SystemVariant::kDinomo;
  copt.dpm.pool_size = 256 * kMiB;
  copt.dpm.index_log2_buckets = 6;
  copt.dpm.segment_size = 256 * 1024;
  copt.kn.num_workers = 2;
  copt.kn.cache_bytes = 1 * kMiB;
  copt.initial_kns = 2;
  copt.dpm_merge_threads = 1;
  Cluster cluster(copt);
  ASSERT_TRUE(cluster.Start().ok());
  {
    auto client = cluster.NewClient();
    const std::string value(128, 'v');
    for (uint64_t r = 0; r < 500; ++r) {
      ASSERT_TRUE(client->Put(workload::KeyForRecord(r), value).ok());
    }
  }

  load::OpenLoopSpec spec;
  spec.seed = 42;
  load::TenantSpec t;
  t.weight = 1.0;
  t.spec = workload::WorkloadSpec::ReadMostlyUpdate(500, 0.8);
  t.spec.value_size = 128;
  spec.tenants = {t};
  spec.horizon_us = 0.2 * kSecond;
  load::OpenLoopSource src(std::make_unique<load::PoissonProcess>(10e3, 42),
                           spec);

  load::OpenLoopRunnerOptions ropt;
  ropt.duration_us = 0.2 * kSecond;
  ropt.value_size = 128;
  load::OpenLoopRunner runner(&cluster, &src, ropt);
  auto report = runner.Run();
  EXPECT_GT(report.offered, 500u);
  EXPECT_EQ(report.completed, report.offered);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.intended_latency_us.count(), 0u);
  // Intended latency can never undercut service latency for any op; the
  // histograms' means preserve that ordering.
  EXPECT_GE(report.intended_latency_us.Average() + 1e-9,
            report.service_latency_us.Average());
  cluster.Stop();
}

}  // namespace
}  // namespace dinomo
