#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/clht.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace index {
namespace {

constexpr size_t kMiB = 1024 * 1024;

class ClhtTest : public ::testing::Test {
 protected:
  ClhtTest()
      : pool_(256 * kMiB),
        alloc_(&pool_, 64, 256 * kMiB - 64),
        fabric_(&pool_) {
    auto r = Clht::Create(&pool_, &alloc_, /*log2_buckets=*/4);
    EXPECT_TRUE(r.ok());
    table_.reset(r.value());
  }

  // Values in these tests are arbitrary non-null pool offsets; the index
  // stores opaque PmPtrs.
  static pm::PmPtr Val(uint64_t i) { return 1024 + i * 8; }

  pm::PmPool pool_;
  pm::PmAllocator alloc_;
  net::Fabric fabric_;
  std::unique_ptr<Clht> table_;
};

TEST_F(ClhtTest, LookupMissingReturnsNull) {
  EXPECT_EQ(table_->Lookup(42), pm::kNullPmPtr);
}

TEST_F(ClhtTest, UpsertThenLookup) {
  auto r = table_->Upsert(42, Val(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), pm::kNullPmPtr);  // fresh insert
  EXPECT_EQ(table_->Lookup(42), Val(1));
  EXPECT_EQ(table_->Count(), 1u);
}

TEST_F(ClhtTest, UpsertReturnsPreviousValue) {
  ASSERT_TRUE(table_->Upsert(42, Val(1)).ok());
  auto r = table_->Upsert(42, Val(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Val(1));
  EXPECT_EQ(table_->Lookup(42), Val(2));
  EXPECT_EQ(table_->Count(), 1u);  // update, not insert
}

TEST_F(ClhtTest, RemoveReturnsValueAndDeletes) {
  ASSERT_TRUE(table_->Upsert(42, Val(1)).ok());
  auto r = table_->Remove(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Val(1));
  EXPECT_EQ(table_->Lookup(42), pm::kNullPmPtr);
  EXPECT_EQ(table_->Count(), 0u);
}

TEST_F(ClhtTest, RemoveMissingReturnsNull) {
  auto r = table_->Remove(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), pm::kNullPmPtr);
}

TEST_F(ClhtTest, ManyKeysWithResizes) {
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  EXPECT_EQ(table_->Count(), kKeys);
  EXPECT_GT(table_->Epoch(), 1u);  // grew from 16 buckets
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Lookup(k), Val(k)) << "key " << k;
  }
  EXPECT_TRUE(table_->CheckConsistency().ok());
}

TEST_F(ClhtTest, DeleteThenReinsert) {
  for (uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  for (uint64_t k = 1; k <= 100; k += 2) {
    ASSERT_TRUE(table_->Remove(k).ok());
  }
  for (uint64_t k = 1; k <= 100; k += 2) {
    EXPECT_EQ(table_->Lookup(k), pm::kNullPmPtr);
    ASSERT_TRUE(table_->Upsert(k, Val(k + 1000)).ok());
  }
  for (uint64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(table_->Lookup(k), (k % 2 == 1) ? Val(k + 1000) : Val(k));
  }
}

TEST_F(ClhtTest, ConcurrentWritersDisjointKeys) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = 1 + t * kPerThread + i;
        ASSERT_TRUE(table_->Upsert(key, Val(key)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table_->Count(), kThreads * kPerThread);
  for (uint64_t key = 1; key <= kThreads * kPerThread; ++key) {
    ASSERT_EQ(table_->Lookup(key), Val(key));
  }
  EXPECT_TRUE(table_->CheckConsistency().ok());
}

TEST_F(ClhtTest, LockFreeReadsDuringWritesSeeValidValues) {
  // A reader concurrently with an updater must always observe one of the
  // values ever written for the key, never garbage — the atomic-snapshot
  // property of CLHT reads.
  constexpr uint64_t kKey = 77;
  ASSERT_TRUE(table_->Upsert(kKey, Val(0)).ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};

  std::thread writer([&] {
    for (uint64_t i = 1; i <= 20000; ++i) {
      ASSERT_TRUE(table_->Upsert(kKey, Val(i)).ok());
    }
    stop = true;
  });
  std::thread reader([&] {
    uint64_t last_seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const pm::PmPtr v = table_->Lookup(kKey);
      if (v == pm::kNullPmPtr || v < Val(0) || v > Val(20000) ||
          (v - 1024) % 8 != 0) {
        bad = true;
        break;
      }
      // Single-writer updates must appear monotonically to one reader.
      const uint64_t seen = (v - 1024) / 8;
      if (seen < last_seen) {
        bad = true;
        break;
      }
      last_seen = seen;
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(bad.load());
}

TEST_F(ClhtTest, ReadersSurviveConcurrentResize) {
  // Pre-populate, then hammer inserts (forcing resizes) while readers
  // verify previously inserted keys remain visible.
  for (uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread reader([&] {
    Random r(3);
    while (!stop.load()) {
      const uint64_t k = 1 + r.Uniform(1000);
      if (table_->Lookup(k) != Val(k)) {
        bad = true;
        return;
      }
    }
  });
  for (uint64_t k = 1001; k <= 30000; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  stop = true;
  reader.join();
  EXPECT_FALSE(bad.load());
  EXPECT_GT(table_->Epoch(), 1u);
}

TEST_F(ClhtTest, RemoteLookupFindsKeys) {
  for (uint64_t k = 1; k <= 500; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  auto handle = table_->FetchRemoteHandle(&fabric_, /*node=*/1);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->valid());
  EXPECT_EQ(handle->epoch, table_->Epoch());

  for (uint64_t k = 1; k <= 500; ++k) {
    auto r = table_->RemoteLookup(&fabric_, 1, *handle, k);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found) << "key " << k;
    EXPECT_EQ(r->value, Val(k));
    EXPECT_GE(r->hops, 1u);
  }
}

TEST_F(ClhtTest, RemoteLookupMissReportsHops) {
  auto handle = table_->FetchRemoteHandle(&fabric_, 1);
  ASSERT_TRUE(handle.ok());
  auto r = table_->RemoteLookup(&fabric_, 1, *handle, 999);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_GE(r->hops, 1u);
}

TEST_F(ClhtTest, RemoteLookupChargesOneRtPerHop) {
  ASSERT_TRUE(table_->Upsert(5, Val(5)).ok());
  auto handle = table_->FetchRemoteHandle(&fabric_, 2);
  ASSERT_TRUE(handle.ok());
  net::OpCost cost;
  {
    net::ScopedOpCost scope(&cost);
    auto r = table_->RemoteLookup(&fabric_, 2, *handle, 5);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found);
    EXPECT_EQ(cost.round_trips, r->hops);
  }
}

TEST_F(ClhtTest, StaleRemoteHandleStillServesPreResizeKeys) {
  // The paper's correctness argument: a KN with a pre-resize handle can
  // still read every key merged before the resize (retired arrays are not
  // reused until quiescence).
  for (uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  auto stale = table_->FetchRemoteHandle(&fabric_, 1);
  ASSERT_TRUE(stale.ok());
  // Force resizes.
  for (uint64_t k = 101; k <= 20000; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  ASSERT_GT(table_->Epoch(), stale->epoch);
  for (uint64_t k = 1; k <= 100; ++k) {
    auto r = table_->RemoteLookup(&fabric_, 1, *stale, k);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found) << "key " << k;
    EXPECT_EQ(r->value, Val(k));
  }
  // A refreshed handle sees everything.
  auto fresh = table_->FetchRemoteHandle(&fabric_, 1);
  ASSERT_TRUE(fresh.ok());
  auto r = table_->RemoteLookup(&fabric_, 1, *fresh, 15000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST_F(ClhtTest, RemoteHandleRejectsOutOfRangeBucketCount) {
  // The header's packed word is (epoch << 8) | log2_buckets. A log2 the
  // remote reader would shift by (>= 64 is undefined behaviour) or whose
  // bucket array cannot be addressed is corruption, not a handle.
  for (const uint64_t log2 : {64u, 200u, 58u}) {
    const uint64_t packed = (uint64_t{7} << 8) | log2;
    ASSERT_TRUE(
        fabric_.AtomicWrite64(0, table_->header_ptr(), packed).ok());
    auto handle = table_->FetchRemoteHandle(&fabric_, 1);
    ASSERT_FALSE(handle.ok()) << "log2 " << log2;
    EXPECT_TRUE(handle.status().IsCorruption()) << handle.status().ToString();
  }
}

TEST_F(ClhtTest, RemoteLookupRejectsHostileChainLinks) {
  auto handle = table_->FetchRemoteHandle(&fabric_, 1);
  ASSERT_TRUE(handle.ok());
  // Point every bucket's `next` (the last word of its 64-byte line) past
  // the end of the pool: whichever bucket a key hashes to, the traversal
  // follows the link and must report it instead of aborting.
  for (uint64_t i = 0; i < handle->num_buckets; ++i) {
    const pm::PmPtr next_word = handle->buckets + i * 64 + 56;
    ASSERT_TRUE(
        fabric_.AtomicWrite64(0, next_word, pool_.capacity() + 4096).ok());
  }
  auto r = table_->RemoteLookup(&fabric_, 1, *handle, 42);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();

  // A link back to its own bucket is a cycle: the traversal gives up with
  // Corruption instead of spinning.
  for (uint64_t i = 0; i < handle->num_buckets; ++i) {
    const pm::PmPtr bucket = handle->buckets + i * 64;
    ASSERT_TRUE(fabric_.AtomicWrite64(0, bucket + 56, bucket).ok());
  }
  r = table_->RemoteLookup(&fabric_, 1, *handle, 42);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(ClhtTest, FreeRetiredTablesReclaimsSpace) {
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_TRUE(table_->Upsert(k, Val(k)).ok());
  }
  const size_t before = alloc_.allocated_bytes();
  table_->FreeRetiredTables();
  EXPECT_LT(alloc_.allocated_bytes(), before);
  // Table still fully functional.
  for (uint64_t k = 1; k <= 20000; k += 97) {
    EXPECT_EQ(table_->Lookup(k), Val(k));
  }
}

// ----- Crash-recovery properties -----

class ClhtCrashTest : public ::testing::Test {
 protected:
  ClhtCrashTest()
      : pool_(128 * kMiB, /*crash_sim=*/true),
        alloc_(&pool_, 64, 128 * kMiB - 64) {}

  static pm::PmPtr Val(uint64_t i) { return 1024 + i * 8; }

  pm::PmPool pool_;
  pm::PmAllocator alloc_;
};

TEST_F(ClhtCrashTest, PersistedEntriesSurviveCrash) {
  auto created = Clht::Create(&pool_, &alloc_, 4);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Clht> table(created.value());
  const pm::PmPtr header = table->header_ptr();
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_TRUE(table->Upsert(k, Val(k)).ok());
  }
  table.reset();

  ASSERT_TRUE(pool_.SimulateCrash().ok());
  // Rebuild the allocator (its state is volatile; a real deployment
  // rebuilds allocation metadata during recovery).
  auto recovered = Clht::Recover(&pool_, &alloc_, header);
  ASSERT_TRUE(recovered.ok());
  std::unique_ptr<Clht> table2(recovered.value());
  EXPECT_EQ(table2->Count(), 5000u);
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(table2->Lookup(k), Val(k)) << "key " << k;
  }
}

TEST_F(ClhtCrashTest, RecoveryPassesConsistencyCheckAfterRandomCrashPoint) {
  // Property: crash at an arbitrary point during a write burst leaves the
  // persisted image structurally consistent (no key without a valid value
  // pointer, no dangling chain).
  for (int trial = 0; trial < 5; ++trial) {
    pm::PmPool pool(64 * kMiB, /*crash_sim=*/true);
    pm::PmAllocator alloc(&pool, 64, 64 * kMiB - 64);
    auto created = Clht::Create(&pool, &alloc, 4);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Clht> table(created.value());
    const pm::PmPtr header = table->header_ptr();

    Random rng(trial * 7919 + 1);
    const uint64_t crash_after = 100 + rng.Uniform(3000);
    for (uint64_t k = 1; k <= crash_after; ++k) {
      ASSERT_TRUE(table->Upsert(1 + rng.Uniform(2000), Val(k)).ok());
    }
    table.reset();
    ASSERT_TRUE(pool.SimulateCrash().ok());

    auto recovered = Clht::Recover(&pool, &alloc, header);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    std::unique_ptr<Clht> table2(recovered.value());
    EXPECT_TRUE(table2->CheckConsistency().ok());
  }
}

// Systematic crash-point sweep: enumerate EVERY persist boundary of a
// single-threaded op sequence (inserts with overflow chaining and resizes,
// in-place upserts, removes) and verify the recovered table at each one.
// Between two op checkpoints only the in-flight op's key may differ from
// the pre-op state, and it must hold either its old or its new value —
// ops are cache-line-atomic at every intermediate persist.
TEST(ClhtCrashSweepTest, EveryPersistBoundaryRecoversConsistently) {
  constexpr size_t kPool = 8 * kMiB;
  pm::PmPool pool(kPool, /*crash_sim=*/true);
  pm::PmAllocator alloc(&pool, 64, kPool - 64);
  // 4 buckets * 3 slots: the insert phase forces several resizes.
  auto created = Clht::Create(&pool, &alloc, /*log2_buckets=*/2);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Clht> table(created.value());
  const pm::PmPtr header = table->header_ptr();
  pool.EnablePersistTrace();  // boundary 0 = empty table, durable

  struct Checkpoint {
    uint64_t boundary;
    uint64_t touched_key;  // key the op ENDING at this boundary wrote
    std::map<uint64_t, pm::PmPtr> state;  // full expected table contents
  };
  std::map<uint64_t, pm::PmPtr> state;
  std::vector<Checkpoint> checkpoints;
  checkpoints.push_back({0, 0, state});
  auto record = [&](uint64_t key) {
    checkpoints.push_back({pool.persist_boundaries(), key, state});
  };

  const auto val = [](uint64_t key, uint64_t round) {
    return pm::PmPtr{key * 1000 + round + 1};
  };
  for (uint64_t k = 1; k <= 40; ++k) {  // inserts, incl. resizes + chains
    ASSERT_TRUE(table->Upsert(k, val(k, 0)).ok());
    state[k] = val(k, 0);
    record(k);
  }
  EXPECT_GT(table->Epoch(), 1u);  // the sweep really covers resizes
  for (uint64_t k = 1; k <= 10; ++k) {  // in-place updates
    ASSERT_TRUE(table->Upsert(k, val(k, 1)).ok());
    state[k] = val(k, 1);
    record(k);
  }
  for (uint64_t k = 5; k <= 14; ++k) {  // removes
    ASSERT_TRUE(table->Remove(k).ok());
    state.erase(k);
    record(k);
  }
  for (uint64_t k = 41; k <= 50; ++k) {  // reuse freed slots
    ASSERT_TRUE(table->Upsert(k, val(k, 2)).ok());
    state[k] = val(k, 2);
    record(k);
  }
  table.reset();

  const uint64_t total = pool.persist_boundaries();
  ASSERT_EQ(checkpoints.back().boundary, total);
  obs::MetricsRegistry scratch;
  size_t cp = 0;  // last checkpoint with boundary <= k
  for (uint64_t k = 0; k <= total; ++k) {
    while (cp + 1 < checkpoints.size() && checkpoints[cp + 1].boundary <= k) {
      cp++;
    }
    auto clone = pool.CloneAtBoundary(k, &scratch);
    pm::PmAllocator clone_alloc(clone.get(), 64, kPool - 64);
    auto recovered = Clht::Recover(clone.get(), &clone_alloc, header);
    ASSERT_TRUE(recovered.ok())
        << "boundary " << k << ": " << recovered.status().ToString();
    std::unique_ptr<Clht> t(recovered.value());
    ASSERT_TRUE(t->CheckConsistency().ok()) << "boundary " << k;

    const Checkpoint& before = checkpoints[cp];
    const bool mid_op = before.boundary < k;
    const Checkpoint* after =
        mid_op && cp + 1 < checkpoints.size() ? &checkpoints[cp + 1] : nullptr;
    uint64_t expected_live = 0;
    for (const auto& [key, value] : before.state) {
      if (after != nullptr && key == after->touched_key) continue;
      EXPECT_EQ(t->Lookup(key), value) << "boundary " << k << " key " << key;
      expected_live++;
    }
    if (after != nullptr) {
      const uint64_t key = after->touched_key;
      const pm::PmPtr got = t->Lookup(key);
      const auto old_it = before.state.find(key);
      const pm::PmPtr old_v =
          old_it != before.state.end() ? old_it->second : pm::kNullPmPtr;
      const auto new_it = after->state.find(key);
      const pm::PmPtr new_v =
          new_it != after->state.end() ? new_it->second : pm::kNullPmPtr;
      EXPECT_TRUE(got == old_v || got == new_v)
          << "boundary " << k << " key " << key << " got " << got;
      if (got != pm::kNullPmPtr) expected_live++;
    } else {
      // Exactly at a checkpoint: the durable image matches the op history.
      EXPECT_EQ(t->Count(), expected_live) << "boundary " << k;
    }
  }
}

// Parameterized: table behaves identically across initial sizes.
class ClhtSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClhtSizeSweep, InsertLookupRemoveAtEverySize) {
  pm::PmPool pool(128 * kMiB);
  pm::PmAllocator alloc(&pool, 64, 128 * kMiB - 64);
  auto created = Clht::Create(&pool, &alloc, GetParam());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Clht> table(created.value());

  std::map<uint64_t, pm::PmPtr> model;
  Random rng(GetParam());
  for (int i = 0; i < 8000; ++i) {
    const uint64_t key = 1 + rng.Uniform(2000);
    const int op = static_cast<int>(rng.Uniform(3));
    if (op < 2) {
      const pm::PmPtr v = 1024 + 8 * (1 + rng.Uniform(100000));
      ASSERT_TRUE(table->Upsert(key, v).ok());
      model[key] = v;
    } else {
      ASSERT_TRUE(table->Remove(key).ok());
      model.erase(key);
    }
  }
  EXPECT_EQ(table->Count(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(table->Lookup(k), v) << "key " << k;
  }
  for (uint64_t k = 2001; k <= 2100; ++k) {
    EXPECT_EQ(table->Lookup(k), pm::kNullPmPtr);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClhtSizeSweep, ::testing::Values(1, 2, 4, 8, 12));

}  // namespace
}  // namespace index
}  // namespace dinomo
