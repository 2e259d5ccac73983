// Pipelined async client: closed-loop throughput vs pipeline depth, and
// the doorbell dual-counter cross-check.
//
// Section 1 (virtual time, seed-deterministic — the CI gate): a
// shortcut-only read loop where every op pays one one-sided RT. At depth
// 1 the serving core is occupied for the op's full network time; at
// depth N the network wait overlaps with other requests, so throughput
// approaches the CPU-bound ceiling. The bench gates depth 8 at >= 2x the
// depth-1 throughput (measured 5.4x at --quick; the rest is headroom).
//
// Section 2 (real threads): a small cluster under pipelined GET load so
// KvsNode fuses queued direct reads into doorbell batches, then gates the
// two independently-accumulated round-trip totals — leaf trace spans vs
// per-request OpCost — to agree within 1%, and fusion to have happened
// (fabric.doorbell.batches > 0).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "obs/trace.h"

namespace {

using namespace dinomo;

constexpr uint64_t kRecords = 20000;
constexpr size_t kValueSize = 64;

double MeasureMops(int depth, double duration_us) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::ReadOnly(kRecords, 0.0);
  spec.value_size = kValueSize;

  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = 1;
  opt.dpm.pool_size = 512 * bench::kMiB;
  opt.dpm.index_log2_buckets = 12;
  opt.dpm.segment_size = 1 * bench::kMiB;
  // RTT-dominated link: the regime the pipelined client exists for
  // (disaggregated PM fabrics where the wire dwarfs KN compute).
  opt.dpm.link_profile.rt_latency_us = 12.0;
  opt.kn.num_workers = 4;
  opt.kn.policy = kn::CachePolicyKind::kShortcutOnly;
  opt.kn.cache_bytes = 8 * bench::kMiB;
  opt.spec = spec;
  opt.client_threads = 64;
  opt.pipeline_depth = depth;

  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, duration_us / 5.0);
  return sim.ThroughputMops();
}

// ----- Section 2: doorbell fusion + dual-counter agreement -----

struct DoorbellResult {
  uint64_t trace_rts = 0;
  uint64_t opcost_rts = 0;
  uint64_t batches = 0;
  uint64_t fused_ops = 0;
  uint64_t saved_rts = 0;
};

DoorbellResult RunDoorbellSection(int ops_per_thread) {
  obs::Tracer tracer;
  obs::TraceOptions topt;
  topt.sample_every = 1;
  topt.ring_capacity = 1 << 14;
  tracer.Enable(topt);

  ClusterOptions opt;
  opt.variant = SystemVariant::kDinomoS;  // every read is a 1-RT direct read
  opt.dpm.pool_size = 256 * bench::kMiB;
  opt.dpm.index_log2_buckets = 10;
  opt.dpm.segment_size = 256 * 1024;
  opt.kn.num_workers = 1;  // one queue => concurrent GETs form fusable runs
  opt.kn.cache_bytes = 4 * bench::kMiB;
  opt.initial_kns = 1;
  opt.dpm_merge_threads = 1;
  opt.pipeline_depth = 8;
  opt.tracer = &tracer;

  const uint64_t batches_before =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.batches");
  const uint64_t fused_before =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.fused_ops");
  const uint64_t saved_before =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.saved_rts");

  constexpr int kKeys = 256;
  {
    Cluster cluster(opt);
    DINOMO_CHECK(cluster.Start().ok());
    {
      auto loader = cluster.NewClient();
      const std::string value(kValueSize, 'v');
      for (int i = 0; i < kKeys; ++i) {
        DINOMO_CHECK(loader->Put("key-" + std::to_string(i), value).ok());
      }
    }
    for (uint64_t id : cluster.ActiveKns()) {
      cluster.kn(id)->RunOnAllWorkers(
          [](kn::KnWorker* w) { (void)w->FlushWrites(); });
    }
    for (int n = 0; n < cluster.dpm_pool()->num_nodes(); ++n) {
      DINOMO_CHECK(cluster.dpm_pool()->node(n)->merge()->DrainAll().ok());
    }
    // Warm the shortcut cache so the measured loop is all direct reads.
    {
      auto warm = cluster.NewClient();
      for (int i = 0; i < kKeys; ++i) {
        DINOMO_CHECK(warm->Get("key-" + std::to_string(i)).ok());
      }
    }

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&cluster, ops_per_thread, t] {
        auto client = cluster.NewClient();
        std::vector<Client::OpFuture> window;
        window.reserve(8);
        for (int i = 0; i < ops_per_thread; ++i) {
          const std::string key =
              "key-" + std::to_string((t * 31 + i * 7) % kKeys);
          window.push_back(client->GetAsync(key));
          if (window.size() == 8) {
            for (auto& f : window) DINOMO_CHECK(f.Get().ok());
            window.clear();
          }
        }
        for (auto& f : window) DINOMO_CHECK(f.Get().ok());
      });
    }
    for (auto& th : threads) th.join();
    cluster.Stop();
  }

  DoorbellResult r;
  r.trace_rts = tracer.trace_round_trips();
  r.opcost_rts = tracer.opcost_round_trips();
  r.batches =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.batches") -
      batches_before;
  r.fused_ops =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.fused_ops") -
      fused_before;
  r.saved_rts =
      obs::MetricsRegistry::Global().CounterValue("fabric.doorbell.saved_rts") -
      saved_before;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // --pipeline_depth=N narrows the sweep to {1, N} (speedup still
  // reported vs depth 1); remaining flags pass through to the reporter.
  int depth_override = 0;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::sscanf(argv[i], "--pipeline_depth=%d", &depth_override) == 1) {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  bench::BenchReporter reporter("pipelined_client",
                                static_cast<int>(passthrough.size()),
                                passthrough.data());
  bench::PrintHeader(
      "Pipelined async client: closed-loop throughput vs pipeline depth\n"
      "(shortcut-only reads, RTT-dominated link; higher is better)");

  const std::vector<int> depths =
      depth_override > 1 ? std::vector<int>{1, depth_override}
      : reporter.quick() ? std::vector<int>{1, 8}
                         : std::vector<int>{1, 2, 4, 8};
  const double duration_us = reporter.Scaled(500e3, 150e3);

  reporter.Config("records", kRecords)
      .Config("value_size", kValueSize)
      .Config("num_kns", 1)
      .Config("workers_per_kn", 4)
      .Config("client_threads", 64)
      .Config("rt_latency_us", 12.0)
      .Config("duration_us", duration_us)
      // Closed-loop driver: every latency below is a *service* latency
      // (issue -> completion of ops the driver chose to send), subject to
      // coordinated omission under overload. Intended-send latency needs a
      // configured arrival rate; see bench/storm_autoscaling and
      // EXPERIMENTS.md "Latency bases".
      .Config("latency_basis", "service")
      .Config("seed", sim::DinomoSimOptions().seed);

  double depth1_mops = 0.0;
  std::printf("%-8s%12s%10s\n", "depth", "Mops/s", "speedup");
  for (int depth : depths) {
    const double mops = MeasureMops(depth, duration_us);
    if (depth == 1) depth1_mops = mops;
    const double speedup = depth1_mops > 0 ? mops / depth1_mops : 0.0;
    std::printf("%-8d%12.3f%9.2fx\n", depth, mops, speedup);
    std::fflush(stdout);
    reporter.Add(obs::Json::Object()
                     .Set("section", "pipeline_throughput")
                     .Set("depth", depth)
                     .Set("mops", mops)
                     .Set("speedup_vs_depth1", speedup));
  }

  std::printf("\nDoorbell fusion + dual-counter cross-check (real threads):\n");
  const DoorbellResult db =
      RunDoorbellSection(/*ops_per_thread=*/
                         static_cast<int>(reporter.Scaled(
                             static_cast<uint64_t>(2000), 500)));
  const double rel_err =
      db.opcost_rts > 0
          ? std::abs(static_cast<double>(db.trace_rts) -
                     static_cast<double>(db.opcost_rts)) /
                static_cast<double>(db.opcost_rts)
          : 1.0;
  std::printf("  trace.round_trips        = %llu\n",
              static_cast<unsigned long long>(db.trace_rts));
  std::printf("  trace.opcost_round_trips = %llu (rel err %.4f)\n",
              static_cast<unsigned long long>(db.opcost_rts), rel_err);
  std::printf("  fabric.doorbell.batches  = %llu (fused %llu, saved %llu RTs)\n",
              static_cast<unsigned long long>(db.batches),
              static_cast<unsigned long long>(db.fused_ops),
              static_cast<unsigned long long>(db.saved_rts));
  reporter.Add(obs::Json::Object()
                   .Set("section", "doorbell_dual_counter")
                   .Set("trace_round_trips", db.trace_rts)
                   .Set("opcost_round_trips", db.opcost_rts)
                   .Set("rel_err", rel_err)
                   .Set("doorbell_batches", db.batches)
                   .Set("doorbell_fused_ops", db.fused_ops)
                   .Set("doorbell_saved_rts", db.saved_rts));

  const char* d1 = "results[section=pipeline_throughput,depth=1].mops";
  reporter
      .Gate(d1, ">", 0, "the depth-1 closed loop completed nothing")
      .Gate("results[section=pipeline_throughput,depth=8].mops", ">=",
            bench::Times(2.0, d1),
            "the pipelined client is no longer overlapping round trips");
  const std::string dual = "results[section=doorbell_dual_counter].";
  const std::string opcost = dual + "opcost_round_trips";
  const char* dual_why =
      "with doorbell fusion on, a fused op is traced without being "
      "charged, or vice versa";
  reporter.Gate(dual + "trace_round_trips", ">", 0, dual_why)
      .Gate(opcost, ">", 0, dual_why)
      .Gate(dual + "trace_round_trips", ">=", bench::Times(0.99, opcost),
            dual_why)
      .Gate(dual + "trace_round_trips", "<=", bench::Times(1.01, opcost),
            dual_why)
      .Gate(dual + "doorbell_batches", ">=", 1,
            "the pipelined GET load never fused a batch; KvsNode run "
            "assembly or Fabric::OpBatch is broken");
  return reporter.Finish() ? 0 : 1;
}
