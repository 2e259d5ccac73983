// Reproduces Figure 6: latency and throughput of DINOMO and DINOMO-N over
// time while the offered load bursts 7x and later drops back, with the
// M-node auto-scaling KNs.
//
// Paper timeline (§5.3, scaled 50x shorter here): low-skew (Zipf 0.5)
// 50r/50u load on a small cluster; at t1 the load rises 7x, violating the
// tail-latency SLO; the M-node adds a KN (possibly twice, separated by the
// grace period); after the load drops, an under-utilized KN is removed.
// Expected shape: DINOMO's reconfigurations cause only brief dips; each
// DINOMO-N reconfiguration stalls throughput (to ~0) while data physically
// reorganizes.

#include <cstdio>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

constexpr double kSecond = 1e6;
constexpr double kDuration = 6.6 * kSecond;
constexpr double kBurstAt = 0.6 * kSecond;
constexpr double kCalmAt = 4.6 * kSecond;
constexpr int kBaseStreams = 4;
constexpr int kBurstStreams = 28;

void RunSystem(SystemVariant variant, const char* name,
               bench::BenchReporter* reporter) {
  workload::WorkloadSpec spec =
      workload::WorkloadSpec::WriteHeavyUpdate(bench::kRecords, 0.5);
  spec.value_size = bench::kValueSize;

  auto opt = bench::BaseDinomo(variant, /*kns=*/2, spec);
  opt.client_threads = kBaseStreams;
  opt.stats_window_us = 100e3;
  opt.mnode_epoch_us = 100e3;
  // Scaled SLO triggers (the paper's 1.2 ms / 16 ms are triggers, not
  // optimal policies; ours are scaled to the virtual cluster's latencies).
  opt.policy.avg_latency_slo_us = 30.0;
  opt.policy.tail_latency_slo_us = 300.0;
  opt.policy.over_utilization_lower_bound = 0.20;
  opt.policy.under_utilization_upper_bound = 0.20;
  opt.policy.grace_period_s = 1.8;  // paper: 90 s, scaled
  opt.policy.max_kns = 6;

  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.EnableMnode();
  sim.ScheduleLoadChange(kBurstAt, kBurstStreams);
  sim.ScheduleLoadChange(kCalmAt, kBaseStreams);

  // Sample KN count over time by piggybacking on the engine.
  std::vector<std::pair<double, int>> kn_series;
  std::function<void()> sample = [&] {
    kn_series.emplace_back(sim.engine()->now_us(), sim.NumActiveKns());
    if (sim.engine()->now_us() < kDuration - 1) {
      sim.engine()->ScheduleAfter(100e3, sample);
    }
  };
  sim.engine()->ScheduleAfter(100e3, sample);

  sim.Run(kDuration, 0);

  std::printf("\n--- %s ---\n", name);
  std::printf("%8s %12s %12s %12s %6s\n", "t(s)", "Kops/s", "avg(us)",
              "p99(us)", "KNs");
  const auto& w = sim.windows();
  size_t kn_idx = 0;
  for (size_t i = 0; i < w.num_windows(); ++i) {
    const double t = (i + 1) * w.window_us();
    while (kn_idx + 1 < kn_series.size() && kn_series[kn_idx].first < t) {
      kn_idx++;
    }
    const int kns = kn_series.empty() ? 0 : kn_series[kn_idx].second;
    std::printf("%8.1f %12.1f %12.1f %12.1f %6d\n", t / kSecond,
                w.ThroughputMops(i) * 1e3, w.window(i).latency.Average(),
                w.window(i).latency.P99(), kns);
  }
  std::printf("final KNs: %d\n", sim.NumActiveKns());
  reporter->Add(obs::Json::Object()
                    .Set("system", name)
                    .Set("final_kns", sim.NumActiveKns())
                    .Set("max_kns", [&] {
                      int mx = 0;
                      for (const auto& kv : kn_series) mx = std::max(mx, kv.second);
                      return mx;
                    }())
                    .Set("avg_mops", sim.ThroughputMops())
                    .Set("p99_latency_us", sim.P99LatencyUs()));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fig6_autoscaling", argc, argv);
  bench::PrintHeader(
      "Figure 6: auto-scaling under a bursty workload (Zipf 0.5, 50r/50u)\n"
      "Load x7 at t=0.6s, back to x1 at t=4.6s; M-node adds/removes KNs");
  reporter.Config("records", bench::kRecords)
      .Config("value_size", bench::kValueSize)
      .Config("base_streams", kBaseStreams)
      .Config("burst_streams", kBurstStreams)
      .Config("duration_us", kDuration)
      // Closed-loop driver: every latency below is a *service* latency
      // (issue -> completion of ops the driver chose to send), subject to
      // coordinated omission under overload. Intended-send latency needs a
      // configured arrival rate; see bench/storm_autoscaling and
      // EXPERIMENTS.md "Latency bases".
      .Config("latency_basis", "service")
      .Config("seed", sim::DinomoSimOptions().seed);
  RunSystem(SystemVariant::kDinomo, "DINOMO", &reporter);
  // The DINOMO-N reorganization stalls make this leg ~10x slower; skip it
  // in the CI smoke run.
  if (!reporter.quick()) RunSystem(SystemVariant::kDinomoN, "DINOMO-N", &reporter);
  reporter.Gate("metrics.counters.cache.*", ">", 0,
                "the KN cache counters read 0 after a run with M-node epochs: "
                "an epoch wiped them");
  std::printf(
      "\nExpected shape: both systems add KNs after the burst and remove "
      "one after the calm;\nDINOMO dips briefly during each change, "
      "DINOMO-N stalls (throughput ~0) while it\nreorganizes data.\n");
  return reporter.Finish() ? 0 : 1;
}
