// A web-session store on DINOMO: the kind of dynamic, non-uniform workload
// the paper's introduction motivates (bursty applications on shared cloud
// infrastructure). Multiple application threads create, touch and expire
// user sessions against the cluster while we report hit ratios, round
// trips per operation and latency percentiles.
//
//   $ ./build/examples/session_store

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/zipf.h"
#include "core/cluster.h"

namespace {

using namespace dinomo;

std::string SessionKey(uint64_t user) {
  return "session:" + std::to_string(user);
}

std::string SessionBlob(uint64_t user, int touches) {
  return "{\"user\":" + std::to_string(user) +
         ",\"touches\":" + std::to_string(touches) +
         ",\"cart\":[1,2,3],\"token\":\"deadbeef\"}";
}

}  // namespace

int main() {
  ClusterOptions options;
  options.initial_kns = 3;
  options.kn.num_workers = 2;
  options.kn.cache_bytes = 4 * 1024 * 1024;
  options.dpm.pool_size = 512 * 1024 * 1024;
  options.dpm.segment_size = 1024 * 1024;
  options.dpm_merge_threads = 1;

  Cluster cluster(options);
  if (!cluster.Start().ok()) return 1;

  constexpr int kAppThreads = 3;
  constexpr int kUsers = 20000;
  constexpr int kOpsPerThread = 20000;

  std::atomic<uint64_t> created{0};
  std::atomic<uint64_t> touched{0};
  std::atomic<uint64_t> expired{0};
  std::atomic<uint64_t> errors{0};
  std::vector<Histogram> latencies(kAppThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster.NewClient();
      // Session popularity is skewed: a few users are very active.
      ZipfianGenerator zipf(kUsers, 0.99, 1000 + t);
      Random rng(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t user = zipf.Next();
        const std::string key = SessionKey(user);
        auto got = client->Get(key);
        Status st;
        if (got.ok()) {
          if (rng.Bernoulli(0.02)) {
            st = client->Delete(key);  // logout
            expired++;
          } else {
            st = client->Put(key, SessionBlob(user, i));  // touch
            touched++;
          }
        } else if (got.status().IsNotFound()) {
          st = client->Put(key, SessionBlob(user, 0));  // login
          created++;
        } else {
          st = got.status();
        }
        if (!st.ok()) errors++;
        latencies[t].Add(client->last_latency_us());
      }
    });
  }
  for (auto& th : threads) th.join();

  Histogram all;
  for (const auto& h : latencies) all.Merge(h);

  std::printf("session store run complete:\n");
  std::printf("  logins   : %llu\n",
              static_cast<unsigned long long>(created.load()));
  std::printf("  touches  : %llu\n",
              static_cast<unsigned long long>(touched.load()));
  std::printf("  logouts  : %llu\n",
              static_cast<unsigned long long>(expired.load()));
  std::printf("  errors   : %llu\n",
              static_cast<unsigned long long>(errors.load()));
  std::printf("  modeled latency: avg=%.1fus p50=%.1fus p99=%.1fus\n",
              all.Average(), all.P50(), all.P99());

  // Per-KN cache effectiveness (ownership partitioning at work: each KN
  // caches only its own partition, so there is no redundancy).
  for (uint64_t id : cluster.ActiveKns()) {
    auto stats = cluster.kn(id)->AggregateStats();
    const uint64_t lookups =
        stats.value_hits + stats.shortcut_hits + stats.misses;
    std::printf(
        "  KN %llu: reads=%llu writes=%llu hit=%.1f%% (values %.1f%%)\n",
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(stats.reads),
        static_cast<unsigned long long>(stats.writes),
        lookups ? 100.0 * (stats.value_hits + stats.shortcut_hits) / lookups
                : 0.0,
        lookups ? 100.0 * stats.value_hits / lookups : 0.0);
  }

  auto dpm_stats = cluster.dpm()->Stats();
  std::printf(
      "  DPM: %llu live segments, %llu GCed, %llu entries merged, index "
      "holds %llu keys\n",
      static_cast<unsigned long long>(dpm_stats.live_segments),
      static_cast<unsigned long long>(dpm_stats.segments_gced),
      static_cast<unsigned long long>(dpm_stats.merged_entries),
      static_cast<unsigned long long>(dpm_stats.index_count));

  cluster.Stop();
  return errors.load() == 0 ? 0 : 1;
}
