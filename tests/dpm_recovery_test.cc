// Crash-recovery tests of the whole DPM node: the persistent superblock,
// segment directory, idempotent log replay, and indirect-slot rebuild.
// These exercise the paper's durability guarantee ("once committed, data
// will not be lost or corrupted") against the cache-line-granular crash
// simulator: SimulateCrash() discards every store that was never
// explicitly persisted.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/hash.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"

namespace dinomo {
namespace dpm {
namespace {

constexpr size_t kMiB = 1024 * 1024;

DpmOptions CrashOptions() {
  DpmOptions opt;
  opt.pool_size = 128 * kMiB;
  opt.index_log2_buckets = 6;
  opt.segment_size = 256 * 1024;
  opt.crash_sim = true;
  return opt;
}

// Crashes the node and recovers a new one attached to the same pool.
std::unique_ptr<DpmNode> CrashAndRecover(std::unique_ptr<DpmNode> node) {
  auto pool = std::move(*node).DetachPool();
  node.reset();
  EXPECT_TRUE(pool->SimulateCrash().ok());
  auto recovered = DpmNode::Recover(CrashOptions(), std::move(pool));
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  return std::move(recovered.value());
}

// Put that rides out unmerged-segment Busy back-pressure by letting the
// DPM merge inline (no background merge threads in these tests).
void PutRetry(DpmNode* dpm, kn::KnWorker* worker, const std::string& key,
              const std::string& value) {
  for (int tries = 0; tries < 1000; ++tries) {
    auto r = worker->Put(key, value);
    if (r.status.ok()) return;
    ASSERT_TRUE(r.status.IsBusy()) << r.status.ToString();
    ASSERT_TRUE(dpm->merge()->ProcessOne());
  }
  FAIL() << "write never unblocked";
}

std::string ReadValue(DpmNode* dpm, const std::string& key) {
  const uint64_t kh = kn::KeyHash(key);
  const pm::PmPtr raw = dpm->index()->Lookup(kh);
  if (raw == pm::kNullPmPtr) return "<missing>";
  ValuePtr vp(raw);
  std::string buf(vp.entry_size(), '\0');
  EXPECT_TRUE(dpm->fabric()->Read(0, vp.offset(), buf.data(), buf.size()).ok());
  LogRecord rec;
  size_t consumed;
  if (!DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok()) {
    return "<corrupt>";
  }
  return rec.value.ToString();
}

TEST(DpmRecoveryTest, MergedDataSurvivesCrash) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        worker.Put("key" + std::to_string(i), "val" + std::to_string(i))
            .status.ok());
  }
  ASSERT_TRUE(worker.DrainLog().ok());

  node = CrashAndRecover(std::move(node));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(ReadValue(node.get(), "key" + std::to_string(i)),
              "val" + std::to_string(i));
  }
  EXPECT_EQ(node->index()->Count(), 500u);
}

TEST(DpmRecoveryTest, UnmergedCommittedBatchesReplayOnRecovery) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  // Flush (commit: the durable one-sided write completed) but crash
  // BEFORE the DPM processors merge — recovery must replay the log.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        worker.Put("key" + std::to_string(i), "val" + std::to_string(i))
            .status.ok());
  }
  ASSERT_TRUE(worker.FlushWrites().status.ok());
  EXPECT_GT(node->merge()->TotalPendingBatches(), 0u);  // not merged!

  node = CrashAndRecover(std::move(node));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ReadValue(node.get(), "key" + std::to_string(i)),
              "val" + std::to_string(i));
  }
}

TEST(DpmRecoveryTest, UnflushedBatchIsLostButLogStaysConsistent) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  kopt.batch_max_ops = 1000;  // keep everything buffered
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  ASSERT_TRUE(worker.Put("durable", "yes").status.ok());
  ASSERT_TRUE(worker.FlushWrites().status.ok());
  // These stay in KN DRAM (never flushed): not committed, so losing them
  // is correct — they were never acknowledged as durable.
  ASSERT_TRUE(worker.Put("volatile1", "x").status.ok());
  ASSERT_TRUE(worker.Put("volatile2", "y").status.ok());

  node = CrashAndRecover(std::move(node));
  EXPECT_EQ(ReadValue(node.get(), "durable"), "yes");
  EXPECT_EQ(ReadValue(node.get(), "volatile1"), "<missing>");
  EXPECT_EQ(ReadValue(node.get(), "volatile2"), "<missing>");
}

TEST(DpmRecoveryTest, ReplayIsIdempotentAcrossPartialMerges) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  kopt.batch_max_ops = 4;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  // Interleave merged and un-merged batches with overwrites, so replay
  // re-applies some already-applied entries.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(worker
                      .Put("key" + std::to_string(i),
                           "r" + std::to_string(round))
                      .status.ok());
    }
    if (round % 3 == 0) {
      ASSERT_TRUE(node->merge()->DrainAll().ok());
    }
  }
  ASSERT_TRUE(worker.FlushWrites().status.ok());

  node = CrashAndRecover(std::move(node));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ReadValue(node.get(), "key" + std::to_string(i)), "r9");
  }
  EXPECT_EQ(node->index()->Count(), 20u);
}

TEST(DpmRecoveryTest, DeletesSurviveCrash) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  ASSERT_TRUE(worker.Put("keep", "k").status.ok());
  ASSERT_TRUE(worker.Put("drop", "d").status.ok());
  ASSERT_TRUE(worker.Delete("drop").status.ok());
  ASSERT_TRUE(worker.FlushWrites().status.ok());

  node = CrashAndRecover(std::move(node));
  EXPECT_EQ(ReadValue(node.get(), "keep"), "k");
  EXPECT_EQ(ReadValue(node.get(), "drop"), "<missing>");
}

TEST(DpmRecoveryTest, SharedSlotsRebuiltFromIndirectMarkers) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  ASSERT_TRUE(worker.Put("hot", "v0").status.ok());
  ASSERT_TRUE(worker.DrainLog().ok());
  const uint64_t kh = kn::KeyHash(Slice("hot"));
  auto slot = node->InstallIndirect(0, kh);
  ASSERT_TRUE(slot.ok());
  const pm::PmPtr slot_ptr = slot.value();

  node = CrashAndRecover(std::move(node));
  EXPECT_TRUE(node->IsShared(kh));
  EXPECT_EQ(node->SharedSlot(kh), slot_ptr);
  // The slot still resolves to the committed value.
  const Result<uint64_t> raw = node->fabric()->AtomicRead64(0, slot_ptr);
  ASSERT_TRUE(raw.ok());
  ASSERT_NE(*raw, 0u);
  ValuePtr vp(*raw);
  std::string buf(vp.entry_size(), '\0');
  ASSERT_TRUE(
      node->fabric()->Read(0, vp.offset(), buf.data(), buf.size()).ok());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.value.ToString(), "v0");
}

TEST(DpmRecoveryTest, SegmentAccountingSurvives) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  const std::string value(4096, 'v');
  for (int i = 0; i < 200; ++i) {
    PutRetry(node.get(), &worker, "k" + std::to_string(i % 8), value);
  }
  ASSERT_TRUE(worker.DrainLog().ok());
  const auto before = node->Stats();
  ASSERT_GT(before.live_segments, 0u);

  node = CrashAndRecover(std::move(node));
  const auto after = node->Stats();
  EXPECT_EQ(after.live_segments, before.live_segments);
  EXPECT_EQ(after.index_count, before.index_count);

  // The recovered node keeps working: new writes via a fresh worker land
  // in fresh segments and GC still functions.
  DpmPool dpool2(node.get());
  kn::KnWorker worker2(kopt, 0, &dpool2);
  for (int i = 0; i < 200; ++i) {
    PutRetry(node.get(), &worker2, "k" + std::to_string(i % 8), value);
  }
  ASSERT_TRUE(worker2.DrainLog().ok());
  EXPECT_EQ(node->index()->Count(), 8u);
}

TEST(DpmRecoveryTest, DoubleCrashRecovers) {
  auto node = std::make_unique<DpmNode>(CrashOptions());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);
  ASSERT_TRUE(worker.Put("a", "1").status.ok());
  ASSERT_TRUE(worker.FlushWrites().status.ok());

  node = CrashAndRecover(std::move(node));
  DpmPool dpool2(node.get());
  kn::KnWorker worker2(kopt, 0, &dpool2);
  ASSERT_TRUE(worker2.Put("b", "2").status.ok());
  ASSERT_TRUE(worker2.FlushWrites().status.ok());

  node = CrashAndRecover(std::move(node));
  EXPECT_EQ(ReadValue(node.get(), "a"), "1");
  EXPECT_EQ(ReadValue(node.get(), "b"), "2");
}

// Systematic crash-point sweep over a DPM log workload: enumerate EVERY
// persist boundary (segment allocation, directory publication, two-sided
// batch commits, merges, overwrites, deletes) and verify that recovery
// succeeds at each one with no committed write lost and replay idempotent
// (a second crash+recovery yields the same state).
TEST(DpmCrashSweepTest, EveryPersistBoundaryRecoversCommittedWrites) {
  DpmOptions opt;
  opt.pool_size = 32 * kMiB;
  opt.index_log2_buckets = 4;
  opt.segment_size = 128 * 1024;
  opt.crash_sim = true;

  auto node = std::make_unique<DpmNode>(opt);
  node->pool()->EnablePersistTrace();  // boundary 0 = freshly-initialized

  kn::KnOptions kopt;
  kopt.kn_id = 1;
  DpmPool dpool(node.get());
  kn::KnWorker worker(kopt, 0, &dpool);

  // Committed state after each FlushWrites checkpoint ("" = deleted).
  struct Checkpoint {
    uint64_t boundary;
    std::map<std::string, std::string> state;
  };
  std::map<std::string, std::string> state;
  std::vector<Checkpoint> checkpoints;
  checkpoints.push_back({0, state});

  const int kKeys = 15;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "key" + std::to_string(i);
      if (round == 2 && i % 3 == 0) {
        ASSERT_TRUE(worker.Delete(key).status.ok());
        state[key] = "";
      } else {
        const std::string value =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        ASSERT_TRUE(worker.Put(key, value).status.ok());
        state[key] = value;
      }
    }
    ASSERT_TRUE(worker.FlushWrites().status.ok());
    if (round == 1) {
      // Merge mid-workload so the sweep also crosses merge/CompleteBatch
      // and GC persists, not just log appends.
      ASSERT_TRUE(node->merge()->DrainAll().ok());
    }
    checkpoints.push_back({node->pool()->persist_boundaries(), state});
  }

  const pm::PmPool& pool = *node->pool();
  const uint64_t total = pool.persist_boundaries();
  ASSERT_EQ(checkpoints.back().boundary, total);
  ASSERT_GE(checkpoints.size(), 4u);

  obs::MetricsRegistry scratch;
  size_t cp = 0;
  for (uint64_t k = 0; k <= total; ++k) {
    while (cp + 1 < checkpoints.size() && checkpoints[cp + 1].boundary <= k) {
      cp++;
    }
    auto clone = pool.CloneAtBoundary(k, &scratch);
    auto recovered = DpmNode::Recover(opt, std::move(clone));
    ASSERT_TRUE(recovered.ok())
        << "boundary " << k << ": " << recovered.status().ToString();
    std::unique_ptr<DpmNode> rnode = std::move(recovered.value());
    ASSERT_TRUE(rnode->index()->CheckConsistency().ok()) << "boundary " << k;

    // No committed write lost: every key holds its value from the last
    // checkpoint at or before this boundary — or, between checkpoints, a
    // newer value whose batch already sealed its commit markers.
    const auto& committed = checkpoints[cp].state;
    const std::map<std::string, std::string>* next =
        cp + 1 < checkpoints.size() ? &checkpoints[cp + 1].state : nullptr;
    for (const auto& [key, value] : committed) {
      const std::string got = ReadValue(rnode.get(), key);
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

    // Replay idempotence: crash the recovered node and recover again; the
    // second pass must reproduce the first (spot-check to bound runtime).
    if (k % 7 == 0 || k == total) {
      std::map<std::string, std::string> first_pass;
      for (const auto& [key, value] : committed) {
        first_pass[key] = ReadValue(rnode.get(), key);
      }
      const uint64_t first_count = rnode->index()->Count();
      auto pool2 = std::move(*rnode).DetachPool();
      rnode.reset();
      ASSERT_TRUE(pool2->SimulateCrash().ok());
      auto again = DpmNode::Recover(opt, std::move(pool2));
      ASSERT_TRUE(again.ok()) << "boundary " << k << " second recovery: "
                              << again.status().ToString();
      EXPECT_EQ(again.value()->index()->Count(), first_count)
          << "boundary " << k;
      for (const auto& [key, value] : first_pass) {
        EXPECT_EQ(ReadValue(again.value().get(), key), value)
            << "boundary " << k << " key " << key;
      }
    }
  }
}

TEST(DpmRecoveryTest, RecoverRejectsGarbagePool) {
  auto pool = std::make_unique<pm::PmPool>(16 * kMiB, true);
  auto r = DpmNode::Recover(CrashOptions(), std::move(pool));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(DpmRecoveryTest, RecoverRejectsPartitionedMetadata) {
  auto opt = CrashOptions();
  opt.partitioned_metadata = true;
  auto pool = std::make_unique<pm::PmPool>(opt.pool_size, true);
  auto r = DpmNode::Recover(opt, std::move(pool));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported());
}

}  // namespace
}  // namespace dpm
}  // namespace dinomo
