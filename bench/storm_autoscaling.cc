// Rack-scale open-loop storm: DINOMO at 100+ KNs / 12 DPM nodes under a
// diurnal + flash-spike arrival schedule, with the windowed-p99 SLO
// autoscaler adding and removing KNs.
//
// Unlike the closed-loop figures, load here is an *arrival process*
// (src/load/): ops enter at scheduled instants whether or not earlier ops
// completed, and every latency is measured from the op's intended arrival
// time — coordinated-omission-free, so the spike's queueing collapse is
// fully visible in p99/p999. Expected shape: zero SLO-violation seconds
// through the diurnal base load; the flash spike (~1.4x cluster capacity)
// breaches the p99 SLO within a couple of autoscaler windows; the scaler
// steps KNs up until the backlog drains, then decays back toward the
// baseline after the spike passes.
//
// Per-op KN CPU budgets are scaled ~50x over the microsecond-level figures
// so 100 simulated KNs saturate at ~1 Mops/s aggregate and a quick run
// stays within CI budget; every capacity *ratio* (base ~25%, spike ~140%)
// is what the experiment depends on.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "bench_json.h"
#include "load/arrival.h"
#include "load/traffic.h"

namespace {

using namespace dinomo;

constexpr double kSecond = 1e6;

struct StormConfig {
  int base_kns = 100;
  int max_kns = 160;
  int dpm_nodes = 12;
  uint64_t records = 48000;
  double duration_us = 2.8 * kSecond;
  double warmup_us = 0.2 * kSecond;
  // Diurnal base: trough->peak->trough over one period.
  double trough_ops_s = 120e3;
  double peak_ops_s = 240e3;
  double diurnal_period_us = 1.6 * kSecond;
  // Flash spike, deliberately above aggregate capacity (~1 Mops/s).
  double spike_ops_s = 1.3e6;
  double spike_at_us = 0.9 * kSecond;
  double spike_dur_us = 0.2 * kSecond;
  double p99_slo_us = 3000.0;
  double scaler_window_us = 50e3;
};

sim::DinomoSimOptions StormOptions(const StormConfig& cfg) {
  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = cfg.base_kns;
  opt.dpm_nodes = cfg.dpm_nodes;
  // 100+ log owners each hold an active segment (plus unmerged ones) on
  // every DPM node, so segments must be small and pools generous: with
  // 1 MiB segments the log metadata alone would exhaust a 48 MiB pool.
  opt.dpm.pool_size = 128 * bench::kMiB;
  opt.dpm.index_log2_buckets = 12;
  opt.dpm.segment_size = 128 * 1024;
  opt.dpm_threads = 16;
  opt.kn.num_workers = 1;
  // Aggregate cache ~4x the dataset: each KN comfortably caches the 1%
  // of keys it owns, so steady state is hit-dominated.
  opt.kn.cache_bytes = 2 * bench::kMiB;
  // Rack-scale per-op compute budget (~50x the microsecond-level model):
  // hits ~100 us, misses ~160 us. 100 KNs x 1 worker => ~1 Mops/s
  // aggregate ceiling for the hit-dominated mixes below.
  opt.kn.cpu_value_hit_us = 100.0;
  opt.kn.cpu_shortcut_hit_us = 140.0;
  opt.kn.cpu_miss_us = 160.0;
  opt.kn.cpu_write_us = 120.0;
  opt.spec.record_count = cfg.records;  // Preload loads this many
  opt.spec.value_size = bench::kValueSize;
  opt.client_threads = 0;  // open loop only; no closed-loop streams
  opt.stats_window_us = 100e3;
  return opt;
}

load::OpenLoopSpec StormTenants(const StormConfig& cfg) {
  load::OpenLoopSpec spec;
  spec.seed = sim::DinomoSimOptions().seed;
  const uint64_t r0 = cfg.records * 2 / 5;      // 40%
  const uint64_t r1 = cfg.records * 3 / 10;     // 30%
  const uint64_t r2 = cfg.records - r0 - r1;    // 30%
  // Tenant 0: skewed read-mostly with a trending hot set (churns every
  // 0.4 s), the "social feed".
  load::TenantSpec t0;
  t0.weight = 0.5;
  // Theta 0.8, not 0.99: at 0.99 the single hottest key alone is ~9% of
  // the tenant's traffic, which saturates one worker at base load — a
  // hotspot no amount of added KNs can absorb (that regime belongs to the
  // replication policy, fig7). At 0.8 the head is ~3%, so the *aggregate*
  // spike is what overloads the cluster and scaling out genuinely helps.
  t0.spec = workload::WorkloadSpec::ReadMostlyUpdate(r0, 0.8);
  t0.key_base = 0;
  t0.hot_churn_interval_us = 0.4 * kSecond;
  // Tenant 1: uniform read-only (zipf_theta <= 0 selects the uniform
  // generator), the "batch analytics" scan-out.
  load::TenantSpec t1;
  t1.weight = 0.3;
  t1.spec = workload::WorkloadSpec::ReadOnly(r1, 0.0);
  t1.key_base = r0;
  // Tenant 2: moderately-skewed write-heavy, the "session store".
  load::TenantSpec t2;
  t2.weight = 0.2;
  t2.spec = workload::WorkloadSpec::WriteHeavyUpdate(r2, 0.5);
  t2.key_base = r0 + r1;
  for (auto* t : {&t0, &t1, &t2}) {
    t->spec.value_size = bench::kValueSize;
    spec.tenants.push_back(*t);
  }
  spec.horizon_us = cfg.duration_us;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("storm_autoscaling", argc, argv);
  StormConfig cfg;
  if (!reporter.quick()) {
    // Full run: two diurnal periods, a longer spike, more data.
    cfg.records = 96000;
    cfg.duration_us = 4.5 * kSecond;
    cfg.diurnal_period_us = 2.0 * kSecond;
    cfg.spike_at_us = 1.2 * kSecond;
    cfg.spike_dur_us = 0.3 * kSecond;
  }
  bench::PrintHeader(
      "Open-loop storm: 100 KNs / 12 DPM nodes, diurnal + flash spike\n"
      "SLO autoscaler on windowed p99 measured from intended arrival");

  sim::DinomoSimOptions opt = StormOptions(cfg);
  sim::DinomoSim sim(opt);
  sim.Preload();

  load::RateSchedule schedule = load::RateSchedule::Diurnal(
      cfg.trough_ops_s, cfg.peak_ops_s, cfg.diurnal_period_us,
      /*steps_per_period=*/16, cfg.duration_us);
  schedule.AddSpike(cfg.spike_at_us, cfg.spike_dur_us, cfg.spike_ops_s);
  load::OpenLoopSpec tenants = StormTenants(cfg);
  load::OpenLoopSource source(
      std::make_unique<load::ScheduledArrivalProcess>(schedule, opt.seed),
      tenants);

  sim::DinomoSim::OpenLoopOptions run;
  run.source = &source;
  run.value_size = bench::kValueSize;
  run.autoscale = true;
  run.autoscaler.p99_slo_us = cfg.p99_slo_us;
  run.autoscaler.breach_windows = 2;
  run.autoscaler.clear_windows = 3;
  run.autoscaler.clear_fraction = 0.5;
  run.autoscaler.cooldown_s = 0.15;
  run.autoscaler.min_kns = cfg.base_kns;
  run.autoscaler.max_kns = cfg.max_kns;
  run.autoscaler.scale_up_step = 12;
  run.autoscaler.scale_down_step = 8;
  run.autoscaler_interval_us = cfg.scaler_window_us;
  sim.RunOpenLoop(run, cfg.duration_us, cfg.warmup_us);

  const sim::DinomoSim::OpenLoopStats& st = *sim.open_loop_stats();

  // Per-window table + SLO-violation accounting. A window with offered
  // traffic and zero completions is a violation (queueing collapse).
  std::printf("%8s %10s %10s %12s %6s\n", "t(s)", "off(K/s)", "del(K/s)",
              "p99int(us)", "KNs");
  double violation_s = 0.0;
  double violation_before_spike_s = 0.0;
  int peak_kns = cfg.base_kns;
  size_t traj = 0;
  const double win_s = st.windows.window_us() / kSecond;
  for (size_t i = 0; i < st.windows.num_windows(); ++i) {
    const double t_end = (i + 1) * st.windows.window_us();
    const sim::WindowStats::Window& w = st.windows.window(i);
    const uint64_t offered = w.offered;
    const uint64_t completed = w.completed;
    const double p99 = w.latency.P99();
    const bool violated =
        (completed > 0 && p99 > cfg.p99_slo_us) || (offered > 0 && completed == 0);
    if (violated) {
      violation_s += win_s;
      if (t_end <= cfg.spike_at_us && t_end > cfg.warmup_us) {
        violation_before_spike_s += win_s;
      }
    }
    while (traj + 1 < st.kn_trajectory.size() &&
           st.kn_trajectory[traj].first < t_end) {
      traj++;
    }
    const int kns = st.kn_trajectory.empty()
                        ? sim.NumActiveKns()
                        : st.kn_trajectory[traj].second;
    peak_kns = std::max(peak_kns, kns);
    std::printf("%8.2f %10.1f %10.1f %12.1f %6d\n", t_end / kSecond,
                offered / st.windows.window_us() * 1e3,
                completed / st.windows.window_us() * 1e3, p99, kns);
  }

  const double delivered_ratio =
      st.offered > 0 ? static_cast<double>(st.completed) / st.offered : 0.0;
  std::printf(
      "\noffered=%llu completed=%llu (%.1f%%) abandoned=%llu in_flight_at_end=%llu\n"
      "intended p50/p99/p999 = %.0f / %.0f / %.0f us   service p99 = %.0f us"
      "   queue wait p99 = %.0f us\n"
      "SLO(p99<%.0fus) violation seconds = %.2f (before spike: %.2f)\n"
      "KNs: base=%d peak=%d final=%d  scale_ups=%d scale_downs=%d\n",
      static_cast<unsigned long long>(st.offered),
      static_cast<unsigned long long>(st.completed), 100.0 * delivered_ratio,
      static_cast<unsigned long long>(st.abandoned),
      static_cast<unsigned long long>(st.in_flight_at_end),
      st.intended_latency.P50(), st.intended_latency.P99(),
      st.intended_latency.P999(), st.service_latency.P99(),
      st.queue_wait.P99(), cfg.p99_slo_us,
      violation_s, violation_before_spike_s, cfg.base_kns, peak_kns,
      sim.NumActiveKns(), st.scale_ups, st.scale_downs);

  reporter.Config("base_kns", cfg.base_kns)
      .Config("max_kns", cfg.max_kns)
      .Config("dpm_nodes", cfg.dpm_nodes)
      .Config("records", static_cast<double>(cfg.records))
      .Config("duration_us", cfg.duration_us)
      .Config("p99_slo_us", cfg.p99_slo_us)
      .Config("spike_ops_s", cfg.spike_ops_s)
      .Config("seed", static_cast<double>(opt.seed))
      .Config("latency_basis", "intended-send");
  reporter.Add(
      obs::Json::Object()
          .Set("section", "summary")
          .Set("base_kns", cfg.base_kns)
          .Set("dpm_nodes", cfg.dpm_nodes)
          .Set("offered", static_cast<double>(st.offered))
          .Set("completed", static_cast<double>(st.completed))
          .Set("abandoned", static_cast<double>(st.abandoned))
          .Set("in_flight_at_end", static_cast<double>(st.in_flight_at_end))
          .Set("delivered_ratio", delivered_ratio)
          .Set("intended_p50_us", st.intended_latency.P50())
          .Set("intended_p99_us", st.intended_latency.P99())
          .Set("intended_p999_us", st.intended_latency.P999())
          .Set("service_p99_us", st.service_latency.P99())
          .Set("queue_wait_p99_us", st.queue_wait.P99())
          .Set("slo_violation_s", violation_s)
          .Set("slo_violation_s_before_spike", violation_before_spike_s)
          .Set("peak_kns", peak_kns)
          .Set("final_kns", sim.NumActiveKns())
          .Set("scale_ups", st.scale_ups)
          .Set("scale_downs", st.scale_downs));

  const std::string sum = "results[section=summary].";
  reporter
      .Gate("config.base_kns", ">=", 100,
            "the storm must run at rack scale (>= 100 KNs)")
      .Gate("config.dpm_nodes", ">=", 10,
            "the storm must run against >= 10 DPM nodes")
      .Gate("config.latency_basis", "==", "intended-send",
            "storm latencies must be measured from intended arrival time")
      .Gate(sum + "slo_violation_s_before_spike", "<=", 0,
            "the diurnal base load alone breached the p99 SLO: capacity "
            "regressed or intended-send accounting charges phantom "
            "queueing delay")
      .Gate(sum + "scale_ups", ">=", 1,
            "the autoscaler never reacted to a spike ~1.4x over capacity")
      .Gate(sum + "scale_downs", ">=", 1,
            "the autoscaler never decayed after the spike passed; the "
            "clear/hysteresis path is broken")
      .Gate(sum + "peak_kns", ">", bench::Times(1.0, "config.base_kns"),
            "no KN was actually added under the spike")
      .Gate(sum + "final_kns", "<", bench::Times(1.0, sum + "peak_kns"),
            "the KN count did not come back down from its peak")
      .Gate(sum + "delivered_ratio", ">=", 0.95,
            "the open-loop backlog never drained; offered traffic is being "
            "dropped or stranded")
      .Gate("metrics.counters.dpm.segments_gced", ">", 0,
            "no log segment was ever reclaimed: the write-heavy tenant's "
            "superseded entries pin their segments (log cleaner broken)");
  return reporter.Finish() ? 0 : 1;
}
