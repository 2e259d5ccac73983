// One §3.5 control plane, two runtimes: the same admin sequence driven
// through ReconfigProtocol on the wall-clock Cluster and on the
// virtual-time DinomoSim must leave both with the same membership, the
// same replicated keys and the same data. Plus the sim's DPM-kill path
// with merges in flight: a synchronous drain there must not wait on a
// merge that only a future engine event can finish.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "dpm/log.h"
#include "obs/metrics.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;
constexpr uint64_t kRecords = 1500;
constexpr size_t kValueSize = 64;

void SmallParts(dpm::DpmOptions* dpm, kn::KnOptions* kno,
                obs::MetricsRegistry* reg) {
  dpm->pool_size = 32 * kMiB;
  dpm->index_log2_buckets = 8;
  dpm->segment_size = 128 * 1024;
  dpm->metrics = reg;
  kno->num_workers = 2;
  kno->cache_bytes = 1 * kMiB;
  kno->metrics = reg;
}

std::set<uint64_t> Replicated(const cluster::RoutingTable& table) {
  std::set<uint64_t> keys;
  for (const auto& [key_hash, owners] : table.replicated) keys.insert(key_hash);
  return keys;
}

// The value the pool's current primary for `key_hash` indexes, or "" if
// it resolves nowhere.
std::string ReadFromPool(dpm::DpmPool* pool, uint64_t key_hash) {
  const dpm::DpmPlacement pl = pool->PlacementOf(key_hash);
  if (pl.primary < 0 || !pool->alive(pl.primary)) return "";
  dpm::DpmNode* node = pool->node(pl.primary);
  const dpm::ValuePtr vp(node->index()->Lookup(key_hash));
  if (vp.null() || vp.indirect()) return "";
  std::string buf(vp.entry_size(), '\0');
  EXPECT_TRUE(
      node->fabric()->Read(0, vp.offset(), buf.data(), buf.size()).ok());
  dpm::LogRecord rec;
  size_t consumed = 0;
  if (!dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok()) {
    return "";
  }
  return std::string(rec.value.data(), rec.value.size());
}

TEST(ControlPlaneDiffTest, BothRuntimesAgreeAfterEveryAdminStep) {
  obs::MetricsRegistry creg;
  ClusterOptions copt;
  SmallParts(&copt.dpm, &copt.kn, &creg);
  copt.initial_kns = 3;
  copt.dpm_nodes = 4;
  copt.replication_factor = 2;
  copt.dpm_merge_threads = 1;
  Cluster cluster(copt);
  ASSERT_TRUE(cluster.Start().ok());
  const std::string value(kValueSize, 'p');
  {
    auto client = cluster.NewClient();
    for (uint64_t rec = 0; rec < kRecords; ++rec) {
      ASSERT_TRUE(client->Put(workload::KeyForRecord(rec), value).ok());
    }
  }

  obs::MetricsRegistry sreg;
  sim::DinomoSimOptions sopt;
  SmallParts(&sopt.dpm, &sopt.kn, &sreg);
  sopt.metrics = &sreg;
  sopt.num_kns = 3;
  sopt.dpm_nodes = 4;
  sopt.replication_factor = 2;
  sopt.client_threads = 0;
  sopt.spec.record_count = kRecords;
  sopt.spec.value_size = kValueSize;
  sim::DinomoSim sim(sopt);
  sim.Preload();
  ReconfigProtocol* proto = sim.protocol();

  auto expect_same = [&](const std::string& step) {
    SCOPED_TRACE(step);
    auto ct = cluster.routing()->Snapshot();
    auto st = proto->routing()->Snapshot();
    EXPECT_EQ(ct->global_ring.Nodes(), st->global_ring.Nodes());
    EXPECT_EQ(cluster.ActiveKns(), sim.ActiveKns());
    EXPECT_EQ(Replicated(*ct), Replicated(*st));
  };
  expect_same("bootstrap");

  auto c_new = cluster.AddKn();
  auto s_new = proto->AddKn();
  ASSERT_TRUE(c_new.ok() && s_new.ok());
  EXPECT_EQ(c_new.value(), s_new.value());
  expect_same("add KN");

  const uint64_t hot = kn::KeyHash(workload::KeyForRecord(7));
  ASSERT_TRUE(cluster.ReplicateKeyHash(hot, 3).ok());
  ASSERT_TRUE(proto->Replicate(hot, 3).ok());
  expect_same("replicate");
  EXPECT_EQ(Replicated(*proto->routing()->Snapshot()),
            std::set<uint64_t>{hot});

  ASSERT_TRUE(cluster.DereplicateKeyHash(hot).ok());
  ASSERT_TRUE(proto->Dereplicate(hot).ok());
  expect_same("dereplicate");
  EXPECT_TRUE(Replicated(*proto->routing()->Snapshot()).empty());

  ASSERT_TRUE(cluster.RemoveKn(2).ok());
  ASSERT_TRUE(proto->RemoveKn(2).ok());
  expect_same("remove KN");

  // The sim recovers once the modeled failure detection fires.
  auto detect = [&sim] {
    sim.engine()->RunUntil(sim.engine()->now_us() + 1e6);
  };
  ASSERT_TRUE(cluster.KillKn(3).ok());
  ASSERT_TRUE(proto->KillKn(3).ok());
  detect();
  expect_same("kill KN");

  // A replicated key must be collapsed by the DPM-kill recovery.
  ASSERT_TRUE(cluster.ReplicateKeyHash(hot, 2).ok());
  ASSERT_TRUE(proto->Replicate(hot, 2).ok());
  ASSERT_TRUE(cluster.KillDpm(1).ok());
  ASSERT_TRUE(proto->KillDpm(1).ok());
  detect();
  expect_same("kill DPM node");
  EXPECT_TRUE(Replicated(*proto->routing()->Snapshot()).empty());

  // Every preloaded record reads back the same value from both pools.
  int mismatched = 0;
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    const uint64_t kh = kn::KeyHash(workload::KeyForRecord(rec));
    const std::string c = ReadFromPool(cluster.dpm_pool(), kh);
    const std::string s = ReadFromPool(sim.pool(), kh);
    if (c != value || s != value) mismatched++;
  }
  EXPECT_EQ(mismatched, 0);
  cluster.Stop();
}

// A DPM fail-stop while the sim has merges dequeued but unfinished (their
// completions are future engine events): promotion drains every survivor
// synchronously, which must not wait on those batches. The run must end
// and no acknowledged write may be lost.
TEST(SimDpmKillTest, MergesInFlightNeitherWedgeNorLoseWrites) {
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions opt;
  SmallParts(&opt.dpm, &opt.kn, &reg);
  opt.dpm.pool_size = 64 * kMiB;
  opt.metrics = &reg;
  opt.num_kns = 4;
  opt.dpm_nodes = 4;
  opt.replication_factor = 2;
  // One DPM processor under a write-heavy closed loop keeps a merge
  // backlog, so batches are always mid-merge when the node dies.
  opt.dpm_threads = 1;
  opt.client_threads = 16;
  opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(kRecords, 0.99);
  opt.spec.value_size = kValueSize;
  opt.faults.seed = opt.seed;
  opt.faults.DpmFailStop(/*node=*/0, /*at_us=*/20e3);
  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(/*duration_us=*/60e3);
  EXPECT_GT(sim.ThroughputMops(), 0.0);

  dpm::DpmPool* pool = sim.pool();
  ASSERT_FALSE(pool->alive(0));
  sim.DrainLogs();
  for (int n = 0; n < pool->num_nodes(); ++n) {
    if (pool->alive(n)) {
      ASSERT_TRUE(pool->node(n)->merge()->DrainAll().ok());
    }
  }
  int lost = 0;
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    const uint64_t kh = kn::KeyHash(workload::KeyForRecord(rec));
    if (ReadFromPool(pool, kh).size() != kValueSize) lost++;
  }
  EXPECT_EQ(lost, 0);
}

}  // namespace
}  // namespace dinomo
