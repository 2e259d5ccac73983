#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "obs/metrics.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;

ClusterOptions SmallCluster(SystemVariant variant = SystemVariant::kDinomo,
                            int kns = 2) {
  ClusterOptions opt;
  opt.variant = variant;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 6;
  opt.dpm.segment_size = 256 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 1 * kMiB;
  opt.kn.batch_max_ops = 4;
  opt.initial_kns = kns;
  opt.dpm_merge_threads = 1;
  return opt;
}

TEST(ClusterE2eTest, PutGetDeleteRoundTrip) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();

  ASSERT_TRUE(client->Put("hello", "world").ok());
  auto got = client->Get("hello");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "world");

  ASSERT_TRUE(client->Delete("hello").ok());
  EXPECT_TRUE(client->Get("hello").status().IsNotFound());
  cluster.Stop();
}

TEST(ClusterE2eTest, ManyKeysAcrossKns) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client
                    ->Put("key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto got = client->Get("key" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "key" << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "value" + std::to_string(i));
  }
  cluster.Stop();
}

TEST(ClusterE2eTest, ConcurrentClients) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 2));
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kClients = 4;
  constexpr int kOps = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = cluster.NewClient();
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "c" + std::to_string(c) + "-" +
                                std::to_string(i % 50);
        if (!client->Put(key, "v" + std::to_string(i)).ok()) {
          failures++;
          continue;
        }
        auto got = client->Get(key);
        if (!got.ok() || got.value() != "v" + std::to_string(i)) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  cluster.Stop();
}

TEST(ClusterE2eTest, ScanReturnsOrderedRange) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 60; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "s%03d", i);
    ASSERT_TRUE(client->Put(key, "v" + std::to_string(i)).ok());
  }
  // Scans read the merged ordered index plus the serving worker's own
  // un-merged writes; in a 2-KN cluster some keys were written by the
  // other KN, so make everything merged state first.
  cluster.dpm()->merge()->DrainAll();

  auto scanned = client->Scan("s010", 25);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  const auto& rows = scanned.value();
  ASSERT_EQ(rows.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    char want[8];
    snprintf(want, sizeof(want), "s%03d", 10 + i);
    EXPECT_EQ(rows[i].key, want);
    EXPECT_EQ(rows[i].value, "v" + std::to_string(10 + i));
  }
  // Past-the-end scan is empty, not an error.
  auto empty = client->Scan("zzzz", 5);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  cluster.Stop();
}

TEST(ClusterE2eTest, UpdatesAreReadYourWrites) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Put("counter", std::to_string(i)).ok());
    auto got = client->Get("counter");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), std::to_string(i));
  }
  cluster.Stop();
}

class ClusterVariantTest : public ::testing::TestWithParam<SystemVariant> {};

TEST_P(ClusterVariantTest, BasicWorkloadOnEveryVariant) {
  Cluster cluster(SmallCluster(GetParam(), 2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        client->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    auto got = client->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  cluster.Stop();
}

std::string VariantName(const ::testing::TestParamInfo<SystemVariant>& info) {
  switch (info.param) {
    case SystemVariant::kDinomo:
      return "Dinomo";
    case SystemVariant::kDinomoS:
      return "DinomoS";
    case SystemVariant::kDinomoN:
      return "DinomoN";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(Variants, ClusterVariantTest,
                         ::testing::Values(SystemVariant::kDinomo,
                                           SystemVariant::kDinomoS,
                                           SystemVariant::kDinomoN),
                         VariantName);

// ----- Reconfiguration -----

TEST(ClusterReconfigTest, AddKnPreservesAllData) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 1));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        client->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  auto added = cluster.AddKn();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(cluster.ActiveKns().size(), 2u);
  for (int i = 0; i < 300; ++i) {
    auto got = client->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  // Writes still work and land on the right owners.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Put("new" + std::to_string(i), "nv").ok());
  }
  cluster.Stop();
}

TEST(ClusterReconfigTest, RemoveKnPreservesAllData) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        client->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  const auto kns = cluster.ActiveKns();
  ASSERT_TRUE(cluster.RemoveKn(kns[1]).ok());
  EXPECT_EQ(cluster.ActiveKns().size(), 2u);
  for (int i = 0; i < 300; ++i) {
    auto got = client->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  cluster.Stop();
}

TEST(ClusterReconfigTest, AddKnOnDinomoNMigratesData) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomoN, 1));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        client->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  auto added = cluster.AddKn();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  for (int i = 0; i < 200; ++i) {
    auto got = client->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  cluster.Stop();
}

TEST(ClusterReconfigTest, KillKnLosesNoCommittedData) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        client->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Let queued group commits land before the crash: anything acked after
  // a flush is durable; un-flushed writes were never acked.
  for (uint64_t id : cluster.ActiveKns()) {
    cluster.kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { w->FlushWrites(); });
  }
  const auto kns = cluster.ActiveKns();
  ASSERT_TRUE(cluster.KillKn(kns[0]).ok());
  EXPECT_EQ(cluster.ActiveKns().size(), 2u);
  for (int i = 0; i < 300; ++i) {
    auto got = client->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  cluster.Stop();
}

TEST(ClusterReconfigTest, ReplicateAndDereplicateHotKey) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  ASSERT_TRUE(client->Put("hot", "v0").ok());

  ASSERT_TRUE(cluster.ReplicateKey("hot", 3).ok());
  auto table = cluster.routing()->Snapshot();
  EXPECT_EQ(table->ReplicationFactor(kn::KeyHash(Slice("hot"))), 3);

  // Reads spread across owners and stay correct; writes publish via CAS.
  for (int i = 0; i < 30; ++i) {
    auto got = client->Get("hot");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i / 10));
    if (i % 10 == 9) {
      ASSERT_TRUE(
          client->Put("hot", "v" + std::to_string(i / 10 + 1)).ok());
    }
  }

  ASSERT_TRUE(cluster.DereplicateKey("hot").ok());
  table = cluster.routing()->Snapshot();
  EXPECT_EQ(table->ReplicationFactor(kn::KeyHash(Slice("hot"))), 1);
  auto got = client->Get("hot");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "v3");
  cluster.Stop();
}

TEST(ClusterReconfigTest, TrafficContinuesDuringAddKn) {
  Cluster cluster(SmallCluster(SystemVariant::kDinomo, 2));
  ASSERT_TRUE(cluster.Start().ok());
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> ops{0};
  std::thread traffic([&] {
    auto client = cluster.NewClient();
    int i = 0;
    while (!stop.load()) {
      const std::string key = "t" + std::to_string(i % 100);
      if (!client->Put(key, "x" + std::to_string(i)).ok()) errors++;
      auto got = client->Get(key);
      if (!got.ok()) errors++;
      ops++;
      i++;
    }
  });
  // Two scale-outs while traffic flows.
  ASSERT_TRUE(cluster.AddKn().ok());
  ASSERT_TRUE(cluster.AddKn().ok());
  stop = true;
  traffic.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(ops.load(), 0);
  EXPECT_EQ(cluster.ActiveKns().size(), 4u);
  cluster.Stop();
}

// Occupancy is the fraction of the epoch a KN's workers were busy, so a
// 2-worker KN divides its summed busy time by two epochs.
TEST(ClusterMetricsTest, CollectsOccupancyAndHotKeys) {
  ClusterOptions opt = SmallCluster(SystemVariant::kDinomo, 2);
  ASSERT_EQ(opt.kn.num_workers, 2);
  // Every put flushes its own batch, so the idle-queue flush finds nothing
  // to charge and the busy time does not depend on thread timing.
  opt.kn.batch_max_ops = 1;
  Cluster cluster(opt);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Put("hotkey", "v").ok());
  }
  // One worker served 200 puts, each a write plus a batch flush at the
  // modeled 3 us.
  const double busy_us = 200 * (opt.kn.cpu_write_us + 3.0);
  const double epoch_s = 1e-3;
  auto metrics = cluster.CollectMetrics(epoch_s);
  ASSERT_EQ(metrics.occupancy.size(), 2u);
  std::vector<double> occ;
  for (const auto& [kn_id, o] : metrics.occupancy) occ.push_back(o);
  std::sort(occ.begin(), occ.end());
  EXPECT_DOUBLE_EQ(occ[0], 0.0);
  EXPECT_DOUBLE_EQ(occ[1], busy_us / (epoch_s * 1e6 * opt.kn.num_workers));
  ASSERT_FALSE(metrics.hot_keys.empty());
  EXPECT_EQ(metrics.hot_keys[0].first, kn::KeyHash(Slice("hotkey")));
  EXPECT_GT(metrics.avg_latency_us, 0.0);
  cluster.Stop();
}

// The M-node's epochs drain only their own inputs: worker counts and the
// registry's cache counters keep growing across RunPolicyOnce, and a
// registry delta across two epochs is exactly the traffic in between.
TEST(ClusterMetricsTest, PolicyEpochsLeaveCountersMonotonic) {
  obs::MetricsRegistry reg;
  ClusterOptions opt = SmallCluster(SystemVariant::kDinomo, 2);
  opt.kn.metrics = &reg;
  opt.dpm.metrics = &reg;
  opt.policy.avg_latency_slo_us = 1e12;  // observe only, never act
  opt.policy.tail_latency_slo_us = 1e12;
  opt.policy.min_kns = 2;
  Cluster cluster(opt);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  constexpr int kKeys = 64;
  auto get_all = [&] {
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client->Get("key-" + std::to_string(i)).ok());
    }
  };
  auto totals = [&] {
    kn::WorkerStats t;
    for (uint64_t id : cluster.ActiveKns()) {
      const kn::WorkerStats s = cluster.kn(id)->AggregateStats();
      t.reads += s.reads;
      t.writes += s.writes;
      t.value_hits += s.value_hits;
      t.shortcut_hits += s.shortcut_hits;
      t.misses += s.misses;
    }
    return t;
  };
  auto cache_lookups = [](const obs::MetricsSnapshot& snap) {
    uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("cache.", 0) == 0 &&
          (name.ends_with(".value_hits") || name.ends_with(".shortcut_hits") ||
           name.ends_with(".misses"))) {
        sum += value;
      }
    }
    return sum;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client->Put("key-" + std::to_string(i), "v").ok());
  }
  get_all();
  cluster.RunPolicyOnce(1.0, 1.0);
  const kn::WorkerStats s1 = totals();
  const obs::MetricsSnapshot snap1 = reg.Snapshot();
  get_all();
  get_all();
  cluster.RunPolicyOnce(2.0, 1.0);
  const kn::WorkerStats s2 = totals();
  const obs::MetricsSnapshot snap2 = reg.Snapshot();

  EXPECT_GE(s1.reads, uint64_t{kKeys});
  EXPECT_GE(s2.writes, s1.writes);
  EXPECT_EQ(s2.reads - s1.reads, uint64_t{2 * kKeys});
  EXPECT_EQ(s2.value_hits + s2.shortcut_hits + s2.misses -
                (s1.value_hits + s1.shortcut_hits + s1.misses),
            uint64_t{2 * kKeys});
  for (const auto& [name, value] : snap1.counters) {
    EXPECT_GE(snap2.counters.at(name), value) << name;
  }
  EXPECT_EQ(cache_lookups(snap2.DeltaSince(snap1)), uint64_t{2 * kKeys});
  cluster.Stop();
}

}  // namespace
}  // namespace dinomo
