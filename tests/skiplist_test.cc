#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/skiplist.h"
#include "kn/search_layer_cache.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace index {
namespace {

constexpr size_t kMiB = 1024 * 1024;

class SkipListTest : public ::testing::Test {
 protected:
  SkipListTest()
      : pool_(256 * kMiB),
        alloc_(&pool_, 64, 256 * kMiB - 64),
        fabric_(&pool_) {
    auto r = PmSkipList::Create(&pool_, &alloc_);
    EXPECT_TRUE(r.ok());
    list_.reset(r.value());
  }

  // Values are arbitrary non-null pool offsets; the index stores opaque
  // PmPtrs.
  static pm::PmPtr Val(uint64_t i) { return 1024 + i * 8; }

  pm::PmPool pool_;
  pm::PmAllocator alloc_;
  net::Fabric fabric_;
  std::unique_ptr<PmSkipList> list_;
};

TEST_F(SkipListTest, LookupMissingReturnsNull) {
  EXPECT_EQ(list_->Lookup(42), pm::kNullPmPtr);
  EXPECT_EQ(list_->Count(), 0u);
}

TEST_F(SkipListTest, UpsertThenLookup) {
  auto r = list_->Upsert(42, Val(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), pm::kNullPmPtr);  // fresh insert
  EXPECT_EQ(list_->Lookup(42), Val(1));
  EXPECT_EQ(list_->Count(), 1u);
}

TEST_F(SkipListTest, UpsertReturnsPreviousValue) {
  ASSERT_TRUE(list_->Upsert(42, Val(1)).ok());
  auto r = list_->Upsert(42, Val(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Val(1));
  EXPECT_EQ(list_->Lookup(42), Val(2));
  EXPECT_EQ(list_->Count(), 1u);  // update, not insert
}

TEST_F(SkipListTest, RemoveTombstonesAndReinsertRevives) {
  ASSERT_TRUE(list_->Upsert(7, Val(1)).ok());
  auto r = list_->Remove(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Val(1));
  EXPECT_EQ(list_->Lookup(7), pm::kNullPmPtr);
  EXPECT_EQ(list_->Count(), 0u);
  // Double remove is a no-op.
  auto r2 = list_->Remove(7);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), pm::kNullPmPtr);
  // Reinsert revives the tombstoned node in place.
  ASSERT_TRUE(list_->Upsert(7, Val(2)).ok());
  EXPECT_EQ(list_->Lookup(7), Val(2));
  EXPECT_EQ(list_->Count(), 1u);
}

TEST_F(SkipListTest, OrderedKeyIsBigEndianLexicographic) {
  // The ordering contract the scan path depends on: numeric okey order ==
  // lexicographic key order (for the first 8 bytes).
  const std::vector<std::string> keys = {
      std::string("\x00", 1), "a", "ab", "abc", "abd", "b",
      std::string("b\x01", 2), "ba", std::string("\xff\x01", 2),
      std::string("\xff\xff", 2)};
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_LT(PmSkipList::OrderedKey(keys[i]), PmSkipList::OrderedKey(keys[i + 1]))
        << "keys[" << i << "] vs keys[" << i + 1 << "]";
  }
  // 8-byte big-endian-encoded record ids order numerically.
  char a[8], b[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = static_cast<char>((uint64_t{12345} >> (56 - 8 * i)) & 0xff);
    b[i] = static_cast<char>((uint64_t{12346} >> (56 - 8 * i)) & 0xff);
  }
  EXPECT_EQ(PmSkipList::OrderedKey(a, 8), 12345u);
  EXPECT_EQ(PmSkipList::OrderedKey(b, 8), 12346u);
}

TEST_F(SkipListTest, ForEachFromVisitsAscendingFromStart) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 500; ++k) keys.push_back(k * 3);
  std::shuffle(keys.begin(), keys.end(), std::mt19937(7));
  for (uint64_t k : keys) ASSERT_TRUE(list_->Upsert(k, Val(k)).ok());
  // Tombstone every 5th key: the iteration must skip them.
  for (uint64_t k = 1; k <= 500; k += 5) ASSERT_TRUE(list_->Remove(k * 3).ok());

  std::vector<uint64_t> seen;
  list_->ForEachFrom(750, [&](uint64_t okey, pm::PmPtr value) {
    EXPECT_EQ(value, Val(okey));
    seen.push_back(okey);
    return true;
  });
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(seen.front(), 750u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (uint64_t okey : seen) {
    EXPECT_NE((okey / 3 - 1) % 5, 0u) << "tombstoned key visited: " << okey;
  }
  // Early exit stops the walk.
  int visits = 0;
  list_->ForEachFrom(0, [&](uint64_t, pm::PmPtr) { return ++visits < 10; });
  EXPECT_EQ(visits, 10);
}

TEST_F(SkipListTest, RandomizedOpsMatchModel) {
  std::map<uint64_t, pm::PmPtr> model;
  Random rng(23);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = 1 + rng.Uniform(3000);
    if (rng.Uniform(3) < 2) {
      const pm::PmPtr v = Val(1 + rng.Uniform(100000));
      auto r = list_->Upsert(key, v);
      ASSERT_TRUE(r.ok());
      model[key] = v;
    } else {
      ASSERT_TRUE(list_->Remove(key).ok());
      model.erase(key);
    }
  }
  EXPECT_EQ(list_->Count(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(list_->Lookup(k), v);
  // Full iteration equals the model, in order.
  auto it = model.begin();
  list_->ForEachFrom(0, [&](uint64_t okey, pm::PmPtr value) {
    EXPECT_NE(it, model.end());
    EXPECT_EQ(okey, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, model.end());
  EXPECT_TRUE(list_->CheckConsistency().ok());
}

TEST_F(SkipListTest, VersionBumpsAsSearchLayerGrows) {
  const uint64_t v0 = list_->Version();
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(list_->Upsert(k, Val(k)).ok());
  }
  // ~1/64 of 2000 inserts are tall; the version must have moved.
  EXPECT_GT(list_->Version(), v0);
}

TEST_F(SkipListTest, RemoteWalkMatchesLocalIteration) {
  for (uint64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(list_->Upsert(k * 7, Val(k)).ok());
  }
  ASSERT_TRUE(list_->Remove(7 * 100).ok());

  auto handle =
      PmSkipList::FetchRemoteHandle(&fabric_, /*node=*/1, list_->header_ptr());
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->valid());
  EXPECT_EQ(handle->version, list_->Version());

  // Walk level 0 with one-sided reads; live rows must equal ForEach.
  std::vector<std::pair<uint64_t, pm::PmPtr>> remote;
  PmSkipList::NodeImage img;
  ASSERT_TRUE(PmSkipList::ReadRemoteNode(&fabric_, 1, handle->head, &img).ok());
  pm::PmPtr p = img.next[0];
  while (p != pm::kNullPmPtr) {
    ASSERT_TRUE(PmSkipList::ReadRemoteNode(&fabric_, 1, p, &img).ok());
    if (!img.tombstone()) remote.emplace_back(img.okey, img.value);
    p = img.next[0];
  }
  std::vector<std::pair<uint64_t, pm::PmPtr>> local;
  list_->ForEach([&](uint64_t okey, pm::PmPtr v) { local.emplace_back(okey, v); });
  EXPECT_EQ(remote, local);
}

TEST_F(SkipListTest, ReadRemoteNodeRejectsGarbage) {
  // A zero-filled image (fault-injected dropped read) has height 0.
  auto scratch = alloc_.Alloc(PmSkipList::kNodeBytes);
  ASSERT_TRUE(scratch.ok());
  PmSkipList::NodeImage img;
  const Status st =
      PmSkipList::ReadRemoteNode(&fabric_, 1, scratch.value(), &img);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SkipListTest, ReadRemoteNodeRejectsPointerPastThePool) {
  // Node links come off the wire: a hostile next[] pointer past the pool
  // (or straddling its end) is reported, never dereferenced.
  PmSkipList::NodeImage img;
  for (const pm::PmPtr p :
       {pool_.capacity() + 4096, pool_.capacity() - PmSkipList::kNodeBytes / 2,
        ~pm::PmPtr{0} - 8}) {
    const Status st = PmSkipList::ReadRemoteNode(&fabric_, 1, p, &img);
    EXPECT_TRUE(st.IsCorruption()) << p << ": " << st.ToString();
  }
}

// ----- KN search-layer cache over a real list -----

TEST_F(SkipListTest, SearchLayerCacheSeeksAndCachesByGeneration) {
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(list_->Upsert(k, Val(k)).ok());
  }
  kn::SearchLayerCache slc;
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(),
                              /*generation=*/3).ok());
  EXPECT_TRUE(slc.valid());
  EXPECT_EQ(slc.rebuilds(), 1u);
  EXPECT_GT(slc.size(), 0u);  // 2000 inserts surely made tall nodes
  EXPECT_EQ(slc.version(), list_->Version());

  // Seek lands strictly before the start key: a scan walks the leaves
  // from the returned node's successor, so an equal node would lose its
  // own row.
  for (uint64_t start : {1u, 2u, 500u, 1999u, 2000u, 5000u}) {
    const pm::PmPtr pos = slc.Seek(start);
    ASSERT_NE(pos, pm::kNullPmPtr);
    if (pos != slc.head()) {
      PmSkipList::NodeImage img;
      ASSERT_TRUE(PmSkipList::ReadRemoteNode(&fabric_, 1, pos, &img).ok());
      EXPECT_LT(img.okey, start);
    }
  }

  // Same generation + unchanged version: the poll fast path, no rebuild.
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(), 3).ok());
  EXPECT_EQ(slc.rebuilds(), 1u);
  // An ownership change (new generation) forces a rebuild even when the
  // list itself did not move.
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(), 4).ok());
  EXPECT_EQ(slc.rebuilds(), 2u);
  // Clear() drops the layer (ownership-change invalidation path).
  slc.Clear();
  EXPECT_FALSE(slc.valid());
}

// Walks level 0 remotely, teaching `slc` every node's link (head first);
// returns the node pointers in list order, head excluded.
std::vector<pm::PmPtr> LearnWholeList(net::Fabric* fabric, pm::PmPtr head,
                                      kn::SearchLayerCache* slc) {
  std::vector<pm::PmPtr> nodes;
  PmSkipList::NodeImage img;
  pm::PmPtr p = head;
  while (p != pm::kNullPmPtr) {
    EXPECT_TRUE(PmSkipList::ReadRemoteNode(fabric, 1, p, &img).ok());
    slc->Learn(img.okey, p, img.next[0]);
    if (p != head) nodes.push_back(p);
    p = img.next[0];
  }
  return nodes;
}

TEST_F(SkipListTest, SearchLayerCachePredictsRunsFromLearnedLinks) {
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(list_->Upsert(2 * k, Val(k)).ok());  // even okeys 2..4000
  }
  kn::SearchLayerCache slc(/*link_budget_bytes=*/1 << 20);
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(), 3).ok());
  std::vector<pm::PmPtr> run;
  EXPECT_FALSE(slc.PredictRun(list_->header_ptr(), 3, 10, 4, &run));

  const std::vector<pm::PmPtr> nodes =
      LearnWholeList(&fabric_, slc.head(), &slc);
  ASSERT_EQ(nodes.size(), 2000u);
  EXPECT_EQ(slc.links(), 2000u);
  // Re-learning unchanged links writes nothing new.
  LearnWholeList(&fabric_, slc.head(), &slc);
  EXPECT_EQ(slc.links(), 2000u);

  // Start 11 (absent) and 12 (present) share the predecessor okey 10,
  // i.e. nodes[4]; the run is it plus `limit` successors.
  for (uint64_t start : {11u, 12u}) {
    ASSERT_TRUE(slc.PredictRun(list_->header_ptr(), 3, start, 4, &run));
    EXPECT_EQ(run, std::vector<pm::PmPtr>(nodes.begin() + 4,
                                          nodes.begin() + 9));
  }
  // Before every key the predecessor is the head; past the end the tail
  // alone (its learned link is null).
  ASSERT_TRUE(slc.PredictRun(list_->header_ptr(), 3, 1, 2, &run));
  EXPECT_EQ(run, (std::vector<pm::PmPtr>{slc.head(), nodes[0], nodes[1]}));
  ASSERT_TRUE(slc.PredictRun(list_->header_ptr(), 3, 9000, 4, &run));
  EXPECT_EQ(run, std::vector<pm::PmPtr>{nodes.back()});
  // Another generation or list header predicts nothing.
  EXPECT_FALSE(slc.PredictRun(list_->header_ptr(), 4, 12, 4, &run));
  EXPECT_FALSE(slc.PredictRun(list_->header_ptr() + 64, 3, 12, 4, &run));

  // Links only predict. One made stale by an insert (13 lands between
  // the learned 12 -> 14) still predicts the old run; a link that does
  // not name the next learned node ends the run there.
  ASSERT_TRUE(list_->Upsert(13, Val(13)).ok());
  ASSERT_TRUE(slc.PredictRun(list_->header_ptr(), 3, 7, 6, &run));
  EXPECT_EQ(run.size(), 7u);
  slc.Learn(12, nodes[5], /*next=*/list_->header_ptr());
  ASSERT_TRUE(slc.PredictRun(list_->header_ptr(), 3, 7, 6, &run));
  EXPECT_EQ(run, std::vector<pm::PmPtr>(nodes.begin() + 2,
                                        nodes.begin() + 6));
  EXPECT_FALSE(slc.PredictRun(list_->header_ptr(), 3, 13, 6, &run));

  // A rebuild for a new generation drops every link.
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(), 4).ok());
  EXPECT_EQ(slc.links(), 0u);
}

TEST_F(SkipListTest, SearchLayerCacheLinksStayWithinBudget) {
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_TRUE(list_->Upsert(k, Val(k)).ok());
  }
  constexpr size_t kBudget = 32 * 1024;
  kn::SearchLayerCache slc(kBudget);
  ASSERT_TRUE(slc.EnsureFresh(&fabric_, 1, list_->header_ptr(), 1).ok());
  LearnWholeList(&fabric_, slc.head(), &slc);
  EXPECT_GT(slc.links(), 0u);
  EXPECT_LE(slc.links() * sizeof(kn::SearchLayerCache::Link), kBudget);
  // The recently learned tail survives eviction and still predicts.
  std::vector<pm::PmPtr> run;
  EXPECT_TRUE(slc.PredictRun(list_->header_ptr(), 1, 4990, 5, &run));
  EXPECT_EQ(run.size(), 6u);
  // No budget, no links (the head's own link is free).
  kn::SearchLayerCache none;
  ASSERT_TRUE(none.EnsureFresh(&fabric_, 1, list_->header_ptr(), 1).ok());
  LearnWholeList(&fabric_, none.head(), &none);
  EXPECT_EQ(none.links(), 0u);
}

// ----- Crash-recovery properties -----

class SkipListCrashTest : public ::testing::Test {
 protected:
  SkipListCrashTest()
      : pool_(128 * kMiB, /*crash_sim=*/true),
        alloc_(&pool_, 64, 128 * kMiB - 64) {}

  static pm::PmPtr Val(uint64_t i) { return 1024 + i * 8; }

  pm::PmPool pool_;
  pm::PmAllocator alloc_;
};

TEST_F(SkipListCrashTest, PersistedEntriesSurviveCrash) {
  auto created = PmSkipList::Create(&pool_, &alloc_);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<PmSkipList> list(created.value());
  const pm::PmPtr header = list->header_ptr();
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_TRUE(list->Upsert(k, Val(k)).ok());
  }
  for (uint64_t k = 1; k <= 5000; k += 10) {
    ASSERT_TRUE(list->Remove(k).ok());
  }
  const uint64_t version_before = list->Version();
  list.reset();

  ASSERT_TRUE(pool_.SimulateCrash().ok());
  auto recovered = PmSkipList::Recover(&pool_, &alloc_, header);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<PmSkipList> list2(recovered.value());
  EXPECT_EQ(list2->Count(), 5000u - 500u);
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(list2->Lookup(k), (k % 10 == 1) ? pm::kNullPmPtr : Val(k))
        << "key " << k;
  }
  // Recovery bumps the version so pre-crash KN search layers refetch.
  EXPECT_GT(list2->Version(), version_before);
  EXPECT_TRUE(list2->CheckConsistency().ok());
}

TEST_F(SkipListCrashTest, RecoverRejectsUninitializedHeader) {
  auto scratch = alloc_.Alloc(sizeof(uint64_t) * 8);
  ASSERT_TRUE(scratch.ok());
  auto recovered = PmSkipList::Recover(&pool_, &alloc_, scratch.value());
  EXPECT_FALSE(recovered.ok());  // zeroed block: magic mismatch
}

// Systematic crash-point sweep: enumerate EVERY persist boundary of a
// single-threaded op sequence (fresh inserts incl. tall nodes, in-place
// updates, tombstone removes, revivals) and verify the recovered list at
// each one. Between two op checkpoints only the in-flight op's key may
// differ from the pre-op state, and it must hold either its old or its
// new value — the publication points (pred level-0 link for inserts, the
// 8-byte value word for updates/tombstones) are the only state switches,
// and torn upper links must never fail recovery.
TEST(SkipListCrashSweepTest, EveryPersistBoundaryRecoversConsistently) {
  constexpr size_t kPool = 8 * kMiB;
  pm::PmPool pool(kPool, /*crash_sim=*/true);
  pm::PmAllocator alloc(&pool, 64, kPool - 64);
  auto created = PmSkipList::Create(&pool, &alloc);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<PmSkipList> list(created.value());
  const pm::PmPtr header = list->header_ptr();
  pool.EnablePersistTrace();  // boundary 0 = empty list, durable

  struct Checkpoint {
    uint64_t boundary;
    uint64_t touched_key;  // key the op ENDING at this boundary wrote
    std::map<uint64_t, pm::PmPtr> state;  // full expected live contents
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
  bool saw_tall = false;
  uint64_t version = list->Version();
  for (uint64_t k = 1; k <= 80; ++k) {  // fresh inserts (interleaved okeys)
    const uint64_t key = (k * 37) % 97 + 1;
    if (state.count(key)) continue;
    ASSERT_TRUE(list->Upsert(key, val(key, 0)).ok());
    state[key] = val(key, 0);
    record(key);
    if (list->Version() != version) saw_tall = true;
    version = list->Version();
  }
  EXPECT_TRUE(saw_tall);  // the sweep really covers tall-node inserts
  uint64_t round = 1;
  for (auto it = state.begin(); it != state.end(); ++it) {  // updates
    if (round > 10) break;
    ASSERT_TRUE(list->Upsert(it->first, val(it->first, round)).ok());
    it->second = val(it->first, round);
    record(it->first);
    round++;
  }
  std::vector<uint64_t> removed;
  for (const auto& [key, value] : state) {
    if (removed.size() >= 10) break;
    removed.push_back(key);
  }
  for (uint64_t key : removed) {  // tombstones
    ASSERT_TRUE(list->Remove(key).ok());
    state.erase(key);
    record(key);
  }
  for (uint64_t key : removed) {  // revivals over tombstones
    ASSERT_TRUE(list->Upsert(key, val(key, 99)).ok());
    state[key] = val(key, 99);
    record(key);
  }
  list.reset();

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
    auto recovered = PmSkipList::Recover(clone.get(), &clone_alloc, header);
    ASSERT_TRUE(recovered.ok())
        << "boundary " << k << ": " << recovered.status().ToString();
    std::unique_ptr<PmSkipList> l(recovered.value());

    const Checkpoint& before = checkpoints[cp];
    const bool mid_op = before.boundary < k;
    const Checkpoint* after =
        mid_op && cp + 1 < checkpoints.size() ? &checkpoints[cp + 1] : nullptr;
    uint64_t expected_live = 0;
    for (const auto& [key, value] : before.state) {
      if (after != nullptr && key == after->touched_key) continue;
      EXPECT_EQ(l->Lookup(key), value) << "boundary " << k << " key " << key;
      expected_live++;
    }
    if (after != nullptr) {
      const uint64_t key = after->touched_key;
      const pm::PmPtr got = l->Lookup(key);
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
      EXPECT_EQ(l->Count(), expected_live) << "boundary " << k;
    }
    // Ordered iteration stays strictly ascending at every boundary.
    uint64_t prev = 0;
    bool first = true;
    l->ForEachFrom(0, [&](uint64_t okey, pm::PmPtr) {
      if (!first) {
        EXPECT_GT(okey, prev) << "boundary " << k;
      }
      first = false;
      prev = okey;
      return true;
    });
  }
}

}  // namespace
}  // namespace index
}  // namespace dinomo
