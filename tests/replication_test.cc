// Tests of the replicated DPM pool (dpm/dpm_pool.h) and the KN's
// replicate-before-ack flush protocol.
//
// Three properties, matching DESIGN.md "Replication model":
//  * mirror-ack ordering — the primary's commit marker (the byte that
//    makes a batch decodable, and the precondition for acking the flush)
//    is never persisted before the mirror has acknowledged a full durable
//    copy. The deliberately reordered append behind
//    KnOptions::test_reorder_replicated_flush shows exactly the violation
//    the protocol prevents;
//  * stale-promotion rejection — after a fail-stop promotes mirrors, RPCs
//    stamped with the pre-kill placement generation (and RPCs addressed
//    to the dead node) bounce as retryable Unavailable before touching
//    any node state;
//  * re-replication completeness — after a kill + promotion, a repair
//    pass restores every surviving key's mirror copy, and a second pass
//    finds nothing left to copy.
//
// Plus a crash-point sweep over the replicated write path: at EVERY
// persist boundary of the primary's PM pool, recovery succeeds and no
// acknowledged write is lost (the split of the flush into payload-write
// and marker-publish creates boundaries the unreplicated sweep in
// dpm_recovery_test.cc never crosses).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "dpm/log.h"
#include "kn/kn_worker.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;

dpm::DpmPoolOptions SmallPool(int nodes, obs::MetricsRegistry* reg) {
  dpm::DpmPoolOptions popt;
  popt.nodes = nodes;
  popt.replication_factor = 2;
  popt.dpm.pool_size = 64 * kMiB;
  popt.dpm.index_log2_buckets = 6;
  popt.dpm.segment_size = 256 * 1024;
  popt.dpm.metrics = reg;
  return popt;
}

kn::KnOptions OneOpBatches(obs::MetricsRegistry* reg) {
  kn::KnOptions kno;
  kno.kn_id = 1;
  kno.fabric_node = 1;
  kno.num_workers = 1;
  kno.cache_bytes = 1 * kMiB;
  kno.batch_max_ops = 1;  // every Put flushes (and replicates) immediately
  kno.metrics = reg;
  return kno;
}

// Resolves a key on one node: index lookup + one-sided entry read + decode.
std::string ReadNodeValue(dpm::DpmNode* node, uint64_t key_hash) {
  const pm::PmPtr raw = node->index()->Lookup(key_hash);
  if (raw == pm::kNullPmPtr) return "<missing>";
  dpm::ValuePtr vp(raw);
  std::string buf(vp.entry_size(), '\0');
  EXPECT_TRUE(
      node->fabric()->Read(0, vp.offset(), buf.data(), buf.size()).ok());
  dpm::LogRecord rec;
  size_t consumed = 0;
  if (!dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok()) {
    return "<corrupt>";
  }
  return rec.value.ToString();
}

// Put that rides out unmerged-segment back-pressure by merging inline on
// every alive node (these tests run no background merge threads).
void PutRetry(dpm::DpmPool* pool, kn::KnWorker* worker,
              const std::string& key, const std::string& value) {
  for (int tries = 0; tries < 1000; ++tries) {
    auto r = worker->Put(key, value);
    if (r.status.ok()) return;
    ASSERT_TRUE(r.status.IsBusy()) << r.status.ToString();
    bool progressed = false;
    for (int n = 0; n < pool->num_nodes(); ++n) {
      if (!pool->alive(n)) continue;
      progressed = pool->node(n)->merge()->ProcessOne() || progressed;
    }
    ASSERT_TRUE(progressed);
  }
  FAIL() << "write never unblocked";
}

// Finds two keys sharing a primary (and so a write state + log segment).
void TwoKeysSamePlacement(dpm::DpmPool* pool, std::string* k1,
                          std::string* k2, dpm::DpmPlacement* pl) {
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "okey" + std::to_string(i);
    const auto p = pool->PlacementOf(kn::KeyHash(Slice(key)));
    if (k1->empty()) {
      *k1 = key;
      *pl = p;
    } else if (p.primary == pl->primary) {
      *k2 = key;
      return;
    }
  }
  FAIL() << "no two keys landed on the same primary";
}

// ---------------------------------------------------------------------
// Mirror-ack ordering
// ---------------------------------------------------------------------

TEST(ReplicationTest, CommitMarkerWithheldUntilMirrorAck) {
  obs::MetricsRegistry reg;
  net::FaultSchedule sched;
  sched.RpcUnavailable(-1, /*probability=*/1.0);
  net::FaultInjector inj(sched, &reg);

  dpm::DpmPool pool(SmallPool(2, &reg));
  kn::KnWorker worker(OneOpBatches(&reg), 0, &pool);

  // Key 1 flushes while both replicas are healthy and anchors the segment
  // address; key 2 then flushes against a mirror whose RPCs all bounce.
  std::string k1, k2;
  dpm::DpmPlacement pl;
  ASSERT_NO_FATAL_FAILURE(TwoKeysSamePlacement(&pool, &k1, &k2, &pl));
  ASSERT_GE(pl.mirror, 0);

  const std::string v1 = "healthy";
  ASSERT_TRUE(worker.Put(k1, v1).status.ok());
  ASSERT_TRUE(pool.node(pl.primary)->merge()->DrainAll().ok());
  ASSERT_TRUE(pool.node(pl.mirror)->merge()->DrainAll().ok());
  const dpm::ValuePtr vp1(
      pool.node(pl.primary)->index()->Lookup(kn::KeyHash(Slice(k1))));
  ASSERT_FALSE(vp1.null());
  // Batches append back to back in the owner's segment: key 2's entry
  // will start right after key 1's.
  const pm::PmPtr dst2 = vp1.offset() + dpm::EncodedEntrySize(k1.size(),
                                                              v1.size());

  pool.node(pl.mirror)->SetFaultInjector(&inj);
  const std::string v2 = "must-not-commit";
  auto put = worker.Put(k2, v2);
  EXPECT_FALSE(put.status.ok());

  // The primary holds key 2's payload, but the entry is torn: the commit
  // marker was withheld because the mirror never acked. DecodeEntry must
  // reject it — recovery would discard it, exactly right for an un-acked
  // write whose mirror copy does not exist.
  const size_t len2 = dpm::EncodedEntrySize(k2.size(), v2.size());
  std::string buf(len2, '\0');
  ASSERT_TRUE(pool.node(pl.primary)
                  ->fabric()
                  ->Read(0, dst2, buf.data(), buf.size())
                  .ok());
  dpm::LogRecord rec;
  size_t consumed = 0;
  const Status dec =
      dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed);
  EXPECT_TRUE(dec.IsCorruption()) << dec.ToString();

  // And the batch was never submitted to the primary's merge path.
  ASSERT_TRUE(pool.node(pl.primary)->merge()->DrainAll().ok());
  EXPECT_EQ(pool.node(pl.primary)->index()->Lookup(kn::KeyHash(Slice(k2))),
            pm::kNullPmPtr);
  pool.node(pl.mirror)->SetFaultInjector(nullptr);
}

TEST(ReplicationTest, ReorderedAppendPublishesMarkerWithoutMirrorAck) {
  // The same scenario with the deliberately reordered append: the full
  // batch (marker included) lands on the primary BEFORE the mirror is
  // contacted. The entry now decodes as committed although no mirror copy
  // exists — the violation the replicate-before-ack ordering prevents,
  // and what this suite would report if FlushState regressed.
  obs::MetricsRegistry reg;
  net::FaultSchedule sched;
  sched.RpcUnavailable(-1, /*probability=*/1.0);
  net::FaultInjector inj(sched, &reg);

  dpm::DpmPool pool(SmallPool(2, &reg));
  kn::KnOptions kno = OneOpBatches(&reg);
  kno.test_reorder_replicated_flush = true;
  kn::KnWorker worker(kno, 0, &pool);

  std::string k1, k2;
  dpm::DpmPlacement pl;
  ASSERT_NO_FATAL_FAILURE(TwoKeysSamePlacement(&pool, &k1, &k2, &pl));
  const std::string v1 = "healthy";
  ASSERT_TRUE(worker.Put(k1, v1).status.ok());
  ASSERT_TRUE(pool.node(pl.primary)->merge()->DrainAll().ok());
  ASSERT_TRUE(pool.node(pl.mirror)->merge()->DrainAll().ok());
  const dpm::ValuePtr vp1(
      pool.node(pl.primary)->index()->Lookup(kn::KeyHash(Slice(k1))));
  ASSERT_FALSE(vp1.null());
  const pm::PmPtr dst2 = vp1.offset() + dpm::EncodedEntrySize(k1.size(),
                                                              v1.size());

  pool.node(pl.mirror)->SetFaultInjector(&inj);
  const std::string v2 = "prematurely-committed";
  auto put = worker.Put(k2, v2);
  EXPECT_FALSE(put.status.ok());  // the flush still fails (mirror down)...

  const size_t len2 = dpm::EncodedEntrySize(k2.size(), v2.size());
  std::string buf(len2, '\0');
  ASSERT_TRUE(pool.node(pl.primary)
                  ->fabric()
                  ->Read(0, dst2, buf.data(), buf.size())
                  .ok());
  dpm::LogRecord rec;
  size_t consumed = 0;
  // ...but the primary already published a decodable, committed-looking
  // entry with no mirror copy behind it: a primary fail-stop here would
  // silently lose what recovery had presented as committed data.
  const Status dec =
      dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed);
  ASSERT_TRUE(dec.ok()) << dec.ToString();
  EXPECT_EQ(rec.value.ToString(), v2);
  EXPECT_EQ(ReadNodeValue(pool.node(pl.mirror), kn::KeyHash(Slice(k2))),
            "<missing>");
  pool.node(pl.mirror)->SetFaultInjector(nullptr);
}

// ---------------------------------------------------------------------
// Stale-promotion rejection
// ---------------------------------------------------------------------

TEST(ReplicationTest, StaleGenerationAndDeadNodeRpcsRejected) {
  obs::MetricsRegistry reg;
  dpm::DpmPool pool(SmallPool(3, &reg));
  const uint64_t owner = (1ULL << 8);
  const uint64_t gen0 = pool.generation();

  auto healthy = pool.AllocateSegment(0, gen0, 1, owner);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();

  ASSERT_TRUE(pool.KillNode(1).ok());
  EXPECT_EQ(pool.generation(), gen0 + 1);
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.num_alive(), 2);

  // An RPC still stamped with the pre-kill generation is rejected as
  // retryable before touching any node state: the KN re-resolves
  // placement (the promoted mirror) and retries under the new stamp.
  auto stale = pool.AllocateSegment(0, gen0, 1, owner);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsUnavailable()) << stale.status().ToString();
  EXPECT_NE(stale.status().ToString().find("stale"), std::string::npos);

  // An RPC addressed to the dead node bounces even with a fresh stamp.
  auto dead = pool.AllocateSegment(1, pool.generation(), 1, owner);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status().ToString();

  // A current-generation RPC to a live node still works.
  auto fresh = pool.AllocateSegment(0, pool.generation(), 1, owner);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Administrative edges: double kill and killing the last node.
  EXPECT_TRUE(pool.KillNode(1).IsInvalidArgument());
  ASSERT_TRUE(pool.KillNode(2).ok());
  EXPECT_TRUE(pool.KillNode(0).IsInvalidArgument());

  EXPECT_GE(reg.CounterValue("dpm.pool.promotions"), 2u);
  EXPECT_GE(reg.CounterValue("dpm.pool.stale_rpcs"), 1u);
}

// ---------------------------------------------------------------------
// Promotion + re-replication completeness
// ---------------------------------------------------------------------

TEST(ReplicationTest, PromotionServesReadsAndReReplicationRestoresMirrors) {
  obs::MetricsRegistry reg;
  dpm::DpmPool pool(SmallPool(3, &reg));
  kn::KnWorker worker(OneOpBatches(&reg), 0, &pool);

  constexpr int kKeys = 48;
  auto key_of = [](int i) { return "rep-key" + std::to_string(i); };
  auto val_of = [](int i) { return "val" + std::to_string(i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_NO_FATAL_FAILURE(PutRetry(&pool, &worker, key_of(i), val_of(i)));
  }
  ASSERT_TRUE(worker.DrainLog().ok());

  // Kill a node that is primary for at least one of the keys.
  const int victim =
      pool.PlacementOf(kn::KeyHash(Slice(key_of(0)))).primary;
  ASSERT_TRUE(pool.KillNode(victim).ok());

  // Retry-on-promotion: the worker notices the generation bump, recovers
  // its placements, and every key reads back — keys whose primary died
  // are served by their promoted mirror.
  worker.cache()->Clear();
  for (int i = 0; i < kKeys; ++i) {
    auto got = worker.Get(key_of(i));
    ASSERT_TRUE(got.status.ok())
        << key_of(i) << ": " << got.status.ToString();
    EXPECT_EQ(got.value, val_of(i));
  }

  // The repair pass restores two copies of everything that survived.
  auto repair = pool.ReReplicate();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_GT(repair.value().keys_examined, 0u);
  EXPECT_GT(repair.value().entries_copied, 0u);
  EXPECT_GT(repair.value().bytes_copied, 0u);

  for (int i = 0; i < kKeys; ++i) {
    const uint64_t kh = kn::KeyHash(Slice(key_of(i)));
    const auto pl = pool.PlacementOf(kh);
    ASSERT_TRUE(pool.alive(pl.primary));
    ASSERT_GE(pl.mirror, 0) << key_of(i);
    EXPECT_EQ(ReadNodeValue(pool.node(pl.primary), kh), val_of(i));
    EXPECT_EQ(ReadNodeValue(pool.node(pl.mirror), kh), val_of(i))
        << key_of(i) << " not restored on mirror " << pl.mirror;
  }

  // Idempotence: a second pass finds every mirror already current.
  auto again = pool.ReReplicate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().entries_copied, 0u);
  EXPECT_GE(reg.CounterValue("dpm.pool.repaired_entries"),
            repair.value().entries_copied);
}

// ---------------------------------------------------------------------
// Crash-point sweep over the replicated write path
// ---------------------------------------------------------------------

TEST(ReplicationCrashSweepTest, EveryPersistBoundaryKeepsAckedWrites) {
  obs::MetricsRegistry reg;
  dpm::DpmPoolOptions popt = SmallPool(2, &reg);
  popt.dpm.pool_size = 32 * kMiB;
  popt.dpm.index_log2_buckets = 4;
  popt.dpm.segment_size = 128 * 1024;
  popt.dpm.crash_sim = true;
  dpm::DpmPool pool(popt);

  // Sweep one node's boundaries; only write keys it is primary for, so
  // every flush follows payload -> mirror ack -> marker publish there.
  const int P = pool.PlacementOf(kn::KeyHash(Slice("sweep"))).primary;
  pool.node(P)->pool()->EnablePersistTrace();

  kn::KnWorker worker(OneOpBatches(&reg), 0, &pool);

  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 6 && i < 1000; ++i) {
    const std::string key = "swp" + std::to_string(i);
    if (pool.PlacementOf(kn::KeyHash(Slice(key))).primary == P) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(keys.size(), 6u);

  // Committed ("" = deleted) state after each acknowledged op. With
  // batch_max_ops = 1 every Put/Delete below IS an acked, replicated
  // flush, so checkpoints are per-operation — much finer than the
  // per-round sweep of dpm_recovery_test.cc.
  struct Checkpoint {
    uint64_t boundary;
    std::map<std::string, std::string> state;
  };
  std::map<std::string, std::string> state;
  std::vector<Checkpoint> checkpoints;
  checkpoints.push_back({0, state});

  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (round == 2 && i % 3 == 0) {
        for (int tries = 0;; ++tries) {
          ASSERT_LT(tries, 1000);
          auto r = worker.Delete(keys[i]);
          if (r.status.ok()) break;
          ASSERT_TRUE(r.status.IsBusy()) << r.status.ToString();
          bool progressed = false;
          for (int n = 0; n < pool.num_nodes(); ++n) {
            progressed = pool.node(n)->merge()->ProcessOne() || progressed;
          }
          ASSERT_TRUE(progressed);
        }
        state[keys[i]] = "";
      } else {
        const std::string value =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        ASSERT_NO_FATAL_FAILURE(PutRetry(&pool, &worker, keys[i], value));
        state[keys[i]] = value;
      }
      checkpoints.push_back({pool.node(P)->pool()->persist_boundaries(),
                             state});
    }
    if (round == 1) {
      // Merge mid-workload so the sweep also crosses merge/GC persists.
      ASSERT_TRUE(pool.node(P)->merge()->DrainAll().ok());
      checkpoints.push_back({pool.node(P)->pool()->persist_boundaries(),
                             state});
    }
  }

  const pm::PmPool& ppool = *pool.node(P)->pool();
  const uint64_t total = ppool.persist_boundaries();
  ASSERT_EQ(checkpoints.back().boundary, total);

  dpm::DpmOptions ropt = popt.dpm;
  ropt.node_id = P;

  obs::MetricsRegistry scratch;
  size_t cp = 0;
  for (uint64_t k = 0; k <= total; ++k) {
    while (cp + 1 < checkpoints.size() && checkpoints[cp + 1].boundary <= k) {
      cp++;
    }
    auto clone = ppool.CloneAtBoundary(k, &scratch);
    auto recovered = dpm::DpmNode::Recover(ropt, std::move(clone));
    ASSERT_TRUE(recovered.ok())
        << "boundary " << k << ": " << recovered.status().ToString();
    std::unique_ptr<dpm::DpmNode> rnode = std::move(recovered.value());
    ASSERT_TRUE(rnode->index()->CheckConsistency().ok()) << "boundary " << k;

    // No acked write lost at any crash point: every key holds its value
    // from the last acked op at or before this boundary — or, between
    // checkpoints, the next value, whose marker already published.
    const auto& committed = checkpoints[cp].state;
    const std::map<std::string, std::string>* next =
        cp + 1 < checkpoints.size() ? &checkpoints[cp + 1].state : nullptr;
    for (const auto& [key, value] : committed) {
      const uint64_t kh = kn::KeyHash(Slice(key));
      const std::string got = ReadNodeValue(rnode.get(), kh);
      const std::string want = value.empty() ? "<missing>" : value;
      if (got == want) continue;
      ASSERT_NE(next, nullptr) << "boundary " << k << " key " << key
                               << " got " << got << " want " << want;
      const auto it = next->find(key);
      const std::string newer = it == next->end() || it->second.empty()
                                    ? "<missing>"
                                    : it->second;
      EXPECT_EQ(got, newer)
          << "boundary " << k << " key " << key << " want " << want;
    }
  }
}

}  // namespace
}  // namespace dinomo
