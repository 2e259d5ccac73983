#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace dinomo {
namespace kn {
namespace {

constexpr size_t kMiB = 1024 * 1024;

dpm::DpmOptions SmallDpm() {
  dpm::DpmOptions opt;
  opt.pool_size = 128 * kMiB;
  opt.index_log2_buckets = 6;
  opt.segment_size = 256 * 1024;
  return opt;
}

class KnWorkerTest : public ::testing::Test {
 protected:
  KnWorkerTest() : dpm_(SmallDpm()), pool_(&dpm_) {
    KnOptions kno;
    kno.kn_id = 1;
    kno.fabric_node = 1;
    kno.num_workers = 1;
    kno.cache_bytes = 1 * kMiB;
    kno.batch_max_ops = 4;
    worker_ = std::make_unique<KnWorker>(kno, 0, &pool_);
    // Forward merge acks the way the runtimes do, so cached batches are
    // evicted when (and only when) their merge actually completes.
    dpm_.merge()->SetMergeCallback([this](const dpm::MergeAck& ack) {
      if (ack.owner == worker_->log_owner()) {
        worker_->OnOwnerBatchMerged(ack.node, ack.base);
      }
    });
  }

  void DrainAll() { ASSERT_TRUE(dpm_.merge()->DrainAll().ok()); }

  dpm::DpmNode dpm_;
  dpm::DpmPool pool_;
  std::unique_ptr<KnWorker> worker_;
};

TEST_F(KnWorkerTest, PutThenGetFromCache) {
  auto put = worker_->Put("alpha", "one");
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  auto get = worker_->Get("alpha");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "one");
  // Fresh write: served from cache, zero round trips.
  EXPECT_EQ(get.cost.round_trips, 0u);
  EXPECT_EQ(get.hit, cache::HitKind::kValueHit);
}

TEST_F(KnWorkerTest, GetMissingKeyReturnsNotFound) {
  worker_->FlushWrites();
  auto get = worker_->Get("no-such-key");
  EXPECT_TRUE(get.status.IsNotFound());
}

TEST_F(KnWorkerTest, ReadYourWritesBeforeFlush) {
  // The write sits in the un-flushed batch; a read must still see it.
  ASSERT_TRUE(worker_->Put("k", "v1").status.ok());
  worker_->cache()->Invalidate(KeyHash(Slice("k")));  // defeat the cache
  auto get = worker_->Get("k");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v1");
}

TEST_F(KnWorkerTest, ReadYourWritesAfterFlushBeforeMerge) {
  ASSERT_TRUE(worker_->Put("k", "v2").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  worker_->cache()->Invalidate(KeyHash(Slice("k")));
  // Not merged yet: must come from the cached un-merged batch.
  EXPECT_GT(dpm_.merge()->TotalPendingBatches(), 0u);
  auto get = worker_->Get("k");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v2");
}

TEST_F(KnWorkerTest, ReadAfterMergeUsesIndex) {
  ASSERT_TRUE(worker_->Put("k", "v3").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  DrainAll();  // merge ack evicts the cached batch
  const uint64_t kh = KeyHash(Slice("k"));
  worker_->cache()->Invalidate(kh);
  // Defeat the index-metadata cache too (the write path admitted the
  // entry's location): this read must take the remote traversal.
  ASSERT_NE(worker_->icache(), nullptr);
  worker_->icache()->Invalidate(kh);
  auto get = worker_->Get("k");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v3");
  // Remote path: at least index hop + value read.
  EXPECT_GE(get.cost.round_trips, 2u);
}

TEST_F(KnWorkerTest, RepeatMissUsesIndexMetadataCache) {
  ASSERT_TRUE(worker_->Put("k", "v3").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  DrainAll();
  const uint64_t kh = KeyHash(Slice("k"));
  worker_->cache()->Invalidate(kh);
  worker_->icache()->Invalidate(kh);
  auto first = worker_->Get("k");  // traversal; re-admits the icache slot
  ASSERT_TRUE(first.status.ok());
  EXPECT_GE(first.cost.round_trips, 2u);
  worker_->cache()->Invalidate(kh);  // miss again, but keep the icache
  auto second = worker_->Get("k");
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.value, "v3");
  // The cached index metadata resolves the location: one value read, no
  // index-lookup round.
  EXPECT_EQ(second.cost.round_trips, 1u);
  EXPECT_GE(worker_->icache()->stats().hits, 1u);
}

TEST_F(KnWorkerTest, StaleIndexMetadataFallsBackToTraversal) {
  ASSERT_TRUE(worker_->Put("k", "v3").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  DrainAll();
  const uint64_t kh = KeyHash(Slice("k"));
  // Poison the icache with a plausible-but-wrong location: the bytes at
  // a segment header fail the decode / fingerprint check rather than
  // aliasing another key's value.
  auto stale = dpm::ValuePtr::Pack(pm::PmPtr{64}, 64);
  worker_->icache()->Admit(kh, pool_.generation(), 0, stale.raw());
  worker_->cache()->Invalidate(kh);
  auto get = worker_->Get("k");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "v3");
  EXPECT_GE(worker_->icache()->stats().stale, 1u);
}

TEST_F(KnWorkerTest, DeleteMakesKeyNotFound) {
  ASSERT_TRUE(worker_->Put("k", "v").status.ok());
  ASSERT_TRUE(worker_->Delete("k").status.ok());
  auto get = worker_->Get("k");
  EXPECT_TRUE(get.status.IsNotFound());
  // Also after everything merges.
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  DrainAll();
  get = worker_->Get("k");
  EXPECT_TRUE(get.status.IsNotFound());
}

TEST_F(KnWorkerTest, BatchFlushesAtOpThreshold) {
  const uint64_t before = dpm_.fabric()->counters(1).one_sided_writes;
  for (int i = 0; i < 4; ++i) {  // batch_max_ops = 4
    ASSERT_TRUE(
        worker_->Put("key" + std::to_string(i), "value").status.ok());
  }
  const uint64_t after = dpm_.fabric()->counters(1).one_sided_writes;
  // Exactly one one-sided batch write for the 4 puts (§3.6).
  EXPECT_EQ(after - before, 1u);
  EXPECT_GT(dpm_.merge()->TotalPendingBatches(), 0u);
}

TEST_F(KnWorkerTest, UpdatesReturnLatestValueThroughAllPaths) {
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(
        worker_->Put("key", "v" + std::to_string(round)).status.ok());
    auto get = worker_->Get("key");
    ASSERT_TRUE(get.status.ok());
    EXPECT_EQ(get.value, "v" + std::to_string(round));
    if (round % 3 == 0) {
      ASSERT_TRUE(worker_->FlushWrites().status.ok());
    }
    if (round % 5 == 0) {
      DrainAll();
    }
  }
  DrainAll();
  worker_->cache()->Clear();
  auto get = worker_->Get("key");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v19");
}

TEST_F(KnWorkerTest, WrongOwnerRejected) {
  auto routing = std::make_shared<cluster::RoutingTable>();
  routing->global_ring.AddNode(2);  // some other KN owns everything
  routing->threads_per_kn = 1;
  worker_->SetRouting(routing);
  EXPECT_TRUE(worker_->Get("k").status.IsWrongOwner());
  EXPECT_TRUE(worker_->Put("k", "v").status.IsWrongOwner());
  EXPECT_TRUE(worker_->Delete("k").status.IsWrongOwner());
  EXPECT_EQ(worker_->SnapshotStats().wrong_owner, 3u);
}

TEST_F(KnWorkerTest, OwnershipAcceptedWhenRingNamesThisKn) {
  auto routing = std::make_shared<cluster::RoutingTable>();
  routing->global_ring.AddNode(1);
  routing->threads_per_kn = 1;
  worker_->SetRouting(routing);
  EXPECT_TRUE(worker_->Put("k", "v").status.ok());
  EXPECT_TRUE(worker_->Get("k").status.ok());
}

TEST_F(KnWorkerTest, BusyWhenUnmergedThresholdReached) {
  // Tiny segments + no merging: the worker must hit the threshold.
  dpm::DpmOptions opt = SmallDpm();
  opt.segment_size = 4096;
  opt.unmerged_segment_threshold = 2;
  dpm::DpmNode dpm(opt);
  dpm::DpmPool pool(&dpm);
  KnOptions kno;
  kno.kn_id = 1;
  kno.batch_max_ops = 1;  // flush every op
  KnWorker worker(kno, 0, &pool);

  const std::string value(1024, 'x');
  bool saw_busy = false;
  for (int i = 0; i < 64; ++i) {
    auto r = worker.Put("key" + std::to_string(i), value);
    if (r.status.IsBusy()) {
      saw_busy = true;
      break;
    }
    ASSERT_TRUE(r.status.ok());
  }
  ASSERT_TRUE(saw_busy);
  EXPECT_TRUE(worker.WriteWouldBlock());
  // Merge progress unblocks the writer (the log-write blocking of §4).
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());
  EXPECT_FALSE(worker.WriteWouldBlock());
  EXPECT_TRUE(worker.Put("more", value).status.ok());
}

TEST_F(KnWorkerTest, DrainLogFlushesAndMerges) {
  ASSERT_TRUE(worker_->Put("k", "v").status.ok());
  ASSERT_TRUE(worker_->DrainLog().ok());
  EXPECT_EQ(dpm_.merge()->PendingBatches(worker_->log_owner()), 0u);
  EXPECT_NE(dpm_.index()->Lookup(KeyHash(Slice("k"))), pm::kNullPmPtr);
}

TEST_F(KnWorkerTest, ResetForOwnershipChangeEmptiesCache) {
  ASSERT_TRUE(worker_->Put("k", "v").status.ok());
  ASSERT_TRUE(worker_->DrainLog().ok());
  worker_->ResetForOwnershipChange();
  EXPECT_EQ(worker_->cache()->charge(), 0u);
  // Data still readable remotely.
  auto get = worker_->Get("k");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v");
  EXPECT_GE(get.cost.round_trips, 2u);
}

TEST_F(KnWorkerTest, OutOfOrderMergeAcksEvictByBase) {
  // Two flushed batches of the same owner. With >= 2 merge threads the
  // acks can be delivered newest-first; simulate that delivery order and
  // check that eviction matches the acked batch, not queue position.
  ASSERT_TRUE(worker_->Put("k1", "v1").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  ASSERT_TRUE(worker_->Put("k2", "v2").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  auto bases = worker_->UnmergedBatchBases();
  ASSERT_EQ(bases.size(), 2u);

  worker_->OnOwnerBatchMerged(0, bases[1]);  // the SECOND batch's ack first

  auto remaining = worker_->UnmergedBatchBases();
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0], bases[0]);
  // The un-acked first batch is still authoritative for reads: k1 is not
  // merged yet, so evicting it would lose the committed write.
  worker_->cache()->Invalidate(KeyHash(Slice("k1")));
  auto get = worker_->Get("k1");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "v1");
}

TEST_F(KnWorkerTest, StaleMergeAckAfterOwnershipChangeIsNoOp) {
  // A merge ack for a pre-ownership-change batch must not evict a batch
  // of the new era.
  ASSERT_TRUE(worker_->Put("old", "v-old").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  auto old_bases = worker_->UnmergedBatchBases();
  ASSERT_EQ(old_bases.size(), 1u);

  worker_->ResetForOwnershipChange();  // clears the tracked batches

  ASSERT_TRUE(worker_->Put("new", "v-new").status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  auto new_bases = worker_->UnmergedBatchBases();
  ASSERT_EQ(new_bases.size(), 1u);
  ASSERT_NE(new_bases[0], old_bases[0]);

  worker_->OnOwnerBatchMerged(0, old_bases[0]);  // late ack from the old era

  EXPECT_EQ(worker_->UnmergedBatchBases(), new_bases);
  worker_->cache()->Invalidate(KeyHash(Slice("new")));
  auto get = worker_->Get("new");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "v-new");
}

TEST_F(KnWorkerTest, CollidingHashKeysDoNotAlias) {
  // Two different keys with the same 64-bit fingerprint (not producible
  // with real FNV-1a inputs, so the batch is injected): the batch scan
  // must compare key bytes, not just the hash.
  const uint64_t h = KeyHash(Slice("keyA"));
  dpm::LogBuilder batch;
  batch.AddPut(1, h, "keyA", "valueA");
  batch.AddPut(2, h, "keyB", "valueB");
  worker_->InjectUnmergedBatchForTest(
      std::string(batch.data(), batch.bytes()), /*base=*/0x1000);

  auto get = worker_->Get("keyA");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "valueA");  // hash-only matching returns "valueB"

  // The colliding key's tombstone must not delete this key either.
  dpm::LogBuilder tomb;
  tomb.AddDelete(3, h, "keyB");
  worker_->InjectUnmergedBatchForTest(
      std::string(tomb.data(), tomb.bytes()), /*base=*/0x2000);
  worker_->cache()->Invalidate(h);
  get = worker_->Get("keyA");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "valueA");
}

TEST_F(KnWorkerTest, StatsTrackHotKeys) {
  for (int i = 0; i < 50; ++i) worker_->Put("hot", "v");
  worker_->Put("cold", "v");
  auto load = worker_->DrainEpochLoad();
  ASSERT_FALSE(load.hot_keys.empty());
  EXPECT_EQ(load.hot_keys[0].first, KeyHash(Slice("hot")));
  EXPECT_EQ(load.hot_keys[0].second, 50u);
  EXPECT_GT(load.key_freq_mean, 0.0);
  EXPECT_GT(load.busy_us, 0.0);
  // Drained: the next epoch starts empty, the cumulative counts do not.
  auto load2 = worker_->DrainEpochLoad();
  EXPECT_TRUE(load2.hot_keys.empty());
  EXPECT_EQ(load2.busy_us, 0.0);
  EXPECT_EQ(worker_->SnapshotStats().writes, 51u);
}

TEST_F(KnWorkerTest, LargeValuesRoundTrip) {
  const std::string big(200 * 1024, 'B');
  ASSERT_TRUE(worker_->Put("big", big).status.ok());
  ASSERT_TRUE(worker_->FlushWrites().status.ok());
  DrainAll();
  worker_->cache()->Clear();
  auto get = worker_->Get("big");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, big);
}

TEST_F(KnWorkerTest, EntryLargerThanSegmentRejected) {
  const std::string huge(300 * 1024, 'X');  // segment is 256 KiB
  auto r = worker_->Put("huge", huge);
  EXPECT_TRUE(r.status.IsInvalidArgument());
}

// ----- Range scans over the ordered DPM index -----

static std::string ScanKey(int i) {
  char buf[8];
  snprintf(buf, sizeof(buf), "k%03d", i);
  return std::string(buf);
}

TEST_F(KnWorkerTest, ScanReturnsMergedRowsInKeyOrder) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());

  std::vector<ScanRow> rows;
  auto r = worker_->Scan(Slice("k005"), 10, &rows);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(rows.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[i].key, ScanKey(5 + i));
    EXPECT_EQ(rows[i].value, "v" + std::to_string(5 + i));
  }
  // The leaf walk is pointer chasing (one one-sided read per visited
  // node), but all 10 value reads fuse into ONE doorbell round — the
  // total stays under 2 rounds per row including descent and the
  // search-layer rebuild, where a naive scan would pay 2 per row plus a
  // full index traversal per key.
  EXPECT_GT(r.cost.round_trips, 0u);
  EXPECT_LT(r.cost.round_trips, 2u * 10u);
}

TEST_F(KnWorkerTest, ScanStartsAtFirstKeyGeqStart) {
  for (int i = 0; i < 20; i += 2) {  // even keys only
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v").status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice("k003"), 3, &rows).status.ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, ScanKey(4));  // k003 absent: next key up
  EXPECT_EQ(rows[1].key, ScanKey(6));
  EXPECT_EQ(rows[2].key, ScanKey(8));
}

TEST_F(KnWorkerTest, ScanStartingOnASearchLayerNodeReturnsIt) {
  // Enough keys that some nodes reach the cached search layer (height
  // >= kSearchLayerHeight). A scan starting exactly on one of them must
  // return that node's own row first.
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(0)), 1, &rows).status.ok());
  ASSERT_GT(worker_->search_layer(0).size(), 0u);
  // The first pass positions by descent; the second runs from the leaf
  // links the first pass taught the cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kKeys; ++i) {
      auto r = worker_->Scan(Slice(ScanKey(i)), 2, &rows);
      ASSERT_TRUE(r.status.ok());
      ASSERT_FALSE(rows.empty()) << ScanKey(i);
      EXPECT_EQ(rows[0].key, ScanKey(i));
      EXPECT_EQ(rows[0].value, "v" + std::to_string(i));
      if (pass == 1) {
        EXPECT_LE(r.cost.round_trips, 3u) << ScanKey(i);
      }
    }
  }
}

TEST_F(KnWorkerTest, ScanOverlaysOwnUnmergedWrites) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "old").status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  // Un-merged changes: an update, a fresh insert, and a delete. The scan
  // must serve this worker's writes even though the skiplist has not seen
  // them yet.
  ASSERT_TRUE(worker_->Put(ScanKey(3), "new").status.ok());
  ASSERT_TRUE(worker_->Put("k0035", "inserted").status.ok());
  ASSERT_TRUE(worker_->Delete(ScanKey(5)).status.ok());

  std::vector<ScanRow> rows;
  auto r = worker_->Scan(Slice("k000"), 100, &rows);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(rows.size(), 10u);  // 10 merged + 1 insert - 1 delete
  std::map<std::string, std::string> got;
  std::string prev;
  for (const auto& row : rows) {
    EXPECT_GT(row.key, prev);  // ascending, duplicates impossible
    prev = row.key;
    got[row.key] = row.value;
  }
  EXPECT_EQ(got[ScanKey(3)], "new");
  EXPECT_EQ(got["k0035"], "inserted");
  EXPECT_EQ(got.count(ScanKey(5)), 0u);
  EXPECT_EQ(got[ScanKey(4)], "old");
}

TEST_F(KnWorkerTest, ScanPastEndAndZeroLength) {
  ASSERT_TRUE(worker_->Put("a", "1").status.ok());
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice("zzz"), 5, &rows).status.ok());
  EXPECT_TRUE(rows.empty());
  ASSERT_TRUE(worker_->Scan(Slice("a"), 0, &rows).status.ok());
  EXPECT_TRUE(rows.empty());
}

TEST_F(KnWorkerTest, ScanCountsInStats) {
  ASSERT_TRUE(worker_->Put("a", "1").status.ok());
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice("a"), 1, &rows).status.ok());
  ASSERT_EQ(rows.size(), 1u);
  auto stats = worker_->SnapshotStats();
  EXPECT_EQ(stats.scans, 1u);
}

TEST_F(KnWorkerTest, SearchLayerCacheReusedAcrossScans) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v").status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice("k000"), 5, &rows).status.ok());
  const uint64_t rebuilds = worker_->search_layer(0).rebuilds();
  EXPECT_GE(rebuilds, 1u);
  // A second scan with an unchanged list polls the version and reuses the
  // cached layer instead of re-walking it.
  ASSERT_TRUE(worker_->Scan(Slice("k010"), 5, &rows).status.ok());
  EXPECT_EQ(worker_->search_layer(0).rebuilds(), rebuilds);
  // Ownership change invalidates the cached layer like the index caches.
  worker_->ResetForOwnershipChange();
  EXPECT_FALSE(worker_->search_layer(0).valid());
}

// ----- Learned leaf links (warm scans) -----

std::vector<std::string> Keys(const std::vector<ScanRow>& rows) {
  std::vector<std::string> keys;
  for (const ScanRow& row : rows) keys.push_back(row.key);
  return keys;
}

TEST_F(KnWorkerTest, RescanOfAWalkedRangeCostsAtMostThreeRoundTrips) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> cold;
  auto first = worker_->Scan(Slice(ScanKey(50)), 16, &cold);
  ASSERT_TRUE(first.status.ok());
  ASSERT_EQ(cold.size(), 16u);
  EXPECT_GT(worker_->search_layer(0).links(), 0u);

  // The same range again, and a window inside it: the learned links name
  // the exact predecessor, so one prefetch round plus one value round.
  std::vector<ScanRow> warm;
  auto again = worker_->Scan(Slice(ScanKey(50)), 16, &warm);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(Keys(warm), Keys(cold));
  EXPECT_LE(again.cost.round_trips, 3u);
  EXPECT_LT(again.cost.round_trips, first.cost.round_trips);
  auto inner = worker_->Scan(Slice(ScanKey(55)), 8, &warm);
  ASSERT_TRUE(inner.status.ok());
  ASSERT_EQ(warm.size(), 8u);
  EXPECT_EQ(warm[0].key, ScanKey(55));
  EXPECT_LE(inner.cost.round_trips, 3u);
}

TEST_F(KnWorkerTest, KeyMergedIntoACachedGapShowsUpInTheNextScan) {
  for (int i = 0; i < 40; i += 2) {  // even keys only
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v").status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(0)), 10, &rows).status.ok());
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(0)), 10, &rows).status.ok());

  // k005 lands between two learned links; merged, so it is no longer in
  // this worker's overlay and must come from the DPM leaf walk.
  ASSERT_TRUE(worker_->Put(ScanKey(5), "new").status.ok());
  ASSERT_TRUE(worker_->DrainLog().ok());
  ASSERT_TRUE(worker_->UnmergedBatchBases().empty());
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(1)), 4, &rows).status.ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].key, ScanKey(2));
  EXPECT_EQ(rows[1].key, ScanKey(4));
  EXPECT_EQ(rows[2].key, ScanKey(5));
  EXPECT_EQ(rows[2].value, "new");
  EXPECT_EQ(rows[3].key, ScanKey(6));
}

TEST_F(KnWorkerTest, OwnershipResetKeepsScanRows) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> before;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(30)), 12, &before).status.ok());
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(30)), 12, &before).status.ok());
  ASSERT_EQ(before.size(), 12u);

  worker_->ResetForOwnershipChange();
  EXPECT_EQ(worker_->search_layer(0).links(), 0u);
  std::vector<ScanRow> after;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(30)), 12, &after).status.ok());
  EXPECT_EQ(Keys(after), Keys(before));
}

TEST_F(KnWorkerTest, PlacementGenerationChangeKeepsScanRows) {
  // Two mirrored DPM nodes: killing one bumps the placement generation,
  // which must drop every learned link (they name the old placement's
  // pools) without changing what a scan returns.
  dpm::DpmPoolOptions popt;
  popt.nodes = 2;
  popt.replication_factor = 2;
  popt.dpm = SmallDpm();
  dpm::DpmPool pool(popt);
  KnOptions kno;
  kno.kn_id = 2;
  kno.fabric_node = 1;
  kno.cache_bytes = 1 * kMiB;
  KnWorker worker(kno, 0, &pool);
  for (int n = 0; n < pool.num_nodes(); ++n) {
    pool.node(n)->merge()->SetMergeCallback(
        [&worker](const dpm::MergeAck& ack) {
          if (ack.owner == worker.log_owner()) {
            worker.OnOwnerBatchMerged(ack.node, ack.base);
          }
        });
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(worker.Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker.DrainLog().ok());
  std::vector<ScanRow> before;
  ASSERT_TRUE(worker.Scan(Slice(ScanKey(20)), 10, &before).status.ok());
  auto warm = worker.Scan(Slice(ScanKey(20)), 10, &before);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(before.size(), 10u);
  EXPECT_LE(warm.cost.round_trips, 2u * 3u);  // <= 3 per DPM node
  ASSERT_GT(worker.search_layer(0).links(), 0u);

  const uint64_t gen = pool.generation();
  ASSERT_TRUE(pool.KillNode(1).ok());
  ASSERT_GT(pool.generation(), gen);
  std::vector<ScanRow> after;
  ASSERT_TRUE(worker.Scan(Slice(ScanKey(20)), 10, &after).status.ok());
  EXPECT_EQ(Keys(after), Keys(before));
  EXPECT_EQ(worker.search_layer(1).links(), 0u);
}

TEST_F(KnWorkerTest, DroppedSpeculativeBatchFallsBackToTheSameRows) {
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  std::vector<ScanRow> expect;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(10)), 8, &expect).status.ok());
  ASSERT_EQ(expect.size(), 8u);

  // Drop exactly the next scan's speculative node batch: the predecessor
  // and its 8 learned successors. The walk must re-read them one by one.
  net::FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/1.0);
  schedule.events.back().max_count = 9;
  obs::MetricsRegistry reg;
  net::FaultInjector injector(schedule, &reg);
  dpm_.fabric()->SetFaultInjector(&injector);
  std::vector<ScanRow> rows;
  auto r = worker_->Scan(Slice(ScanKey(10)), 8, &rows);
  dpm_.fabric()->SetFaultInjector(nullptr);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(Keys(rows), Keys(expect));
  EXPECT_GT(r.cost.round_trips, 3u);  // paid the per-node fallback
}

TEST_F(KnWorkerTest, DroppedValueReadsNeverShortenAScan) {
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v" + std::to_string(i)).status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  net::FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/0.05);
  obs::MetricsRegistry reg;
  net::FaultInjector injector(schedule, &reg);
  dpm_.fabric()->SetFaultInjector(&injector);
  int ok = 0;
  for (int n = 0; n < 300; ++n) {
    const int start = n % kKeys;
    std::vector<ScanRow> rows;
    auto r = worker_->Scan(Slice(ScanKey(start)), 10, &rows);
    if (!r.status.ok()) continue;  // a surfaced fault is fine
    ++ok;
    // An OK scan is never silently short.
    const size_t want = static_cast<size_t>(std::min(10, kKeys - start));
    ASSERT_EQ(rows.size(), want) << "scan from " << ScanKey(start);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].key, ScanKey(start + static_cast<int>(i)));
    }
  }
  dpm_.fabric()->SetFaultInjector(nullptr);
  EXPECT_GT(ok, 250);  // retries absorb almost every drop
}

TEST_F(KnWorkerTest, ScanFillsTheWindowPastAnUnmergedDelete) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(worker_->Put(ScanKey(i), "v").status.ok());
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  ASSERT_TRUE(worker_->Delete(ScanKey(3)).status.ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(worker_->Scan(Slice(ScanKey(0)), 5, &rows).status.ok());
  EXPECT_EQ(Keys(rows), (std::vector<std::string>{ScanKey(0), ScanKey(1),
                                                  ScanKey(2), ScanKey(4),
                                                  ScanKey(5)}));
}

// ----- One read path: Get and the fused doorbell GET agree ---------------

enum class Hint { kShortcut, kIcache };
enum class Pointer { kFresh, kStale, kDropped };

// One worker over one DPM node holding two merged keys, with a metrics
// registry of its own so its counts start at zero.
struct ParityEnv {
  ParityEnv() : dpm(SmallDpm()), pool(&dpm) {
    KnOptions kno;
    kno.kn_id = 1;
    kno.fabric_node = 1;
    kno.cache_bytes = 1 * kMiB;
    kno.metrics = &reg;
    worker = std::make_unique<KnWorker>(kno, 0, &pool);
    dpm.merge()->SetMergeCallback([this](const dpm::MergeAck& ack) {
      worker->OnOwnerBatchMerged(ack.node, ack.base);
    });
  }

  obs::MetricsRegistry reg;
  dpm::DpmNode dpm;
  dpm::DpmPool pool;
  std::unique_ptr<KnWorker> worker;
};

// Leaves "k"'s read to one hint: a shortcut (over a fresh icache slot) or
// an icache slot alone. A stale hint names "other"'s entry, which decodes
// but fails the key check, as a pointer into a reused segment would.
void ArrangeHint(ParityEnv* e, Hint hint, Pointer ptr) {
  ASSERT_TRUE(e->worker->Put("k", "value-of-k").status.ok());
  ASSERT_TRUE(e->worker->Put("other", "value-of-other").status.ok());
  ASSERT_TRUE(e->worker->DrainLog().ok());
  const uint64_t kh = KeyHash(Slice("k"));
  const dpm::ValuePtr vp(e->dpm.index()->Lookup(
      ptr == Pointer::kStale ? KeyHash(Slice("other")) : kh));
  e->worker->cache()->Invalidate(kh);
  if (hint == Hint::kShortcut) {
    e->worker->cache()->AdmitShortcutOnly(kh, vp);
  } else {
    e->worker->icache()->Admit(kh, e->pool.generation(), 0, vp.raw());
  }
}

OpResult InlineGet(ParityEnv* e) { return e->worker->Get("k"); }

// The doorbell path as KvsNode::ExecuteGetRun drives it, for one request.
OpResult FusedGet(ParityEnv* e) {
  DirectReadPlan plan;
  OpResult partial = e->worker->GetPrepare("k", &plan);
  EXPECT_TRUE(plan.ready);
  net::OpCost fused;
  {
    net::ScopedOpCost scope(&fused);
    net::Fabric::OpBatch batch(e->dpm.fabric(), /*node=*/1);
    EXPECT_TRUE(plan.AddReadTo(&batch));
    (void)batch.Execute();
  }
  partial.cost.Add(fused);
  return e->worker->GetComplete("k", &plan, std::move(partial));
}

struct Observed {
  OpResult result;
  uint64_t cache_lookups = 0;
  uint64_t icache_stale = 0;
};

Observed Observe(Hint hint, Pointer ptr, OpResult (*get)(ParityEnv*)) {
  ParityEnv e;
  Observed o;
  ArrangeHint(&e, hint, ptr);
  net::FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/1.0);
  schedule.events.back().max_count = 1;  // the hint's first read only
  net::FaultInjector injector(schedule, &e.reg);
  if (ptr == Pointer::kDropped) e.dpm.fabric()->SetFaultInjector(&injector);
  const uint64_t lookups = e.worker->cache()->stats().lookups();
  const uint64_t stale = e.worker->icache()->stats().stale;
  o.result = get(&e);
  e.dpm.fabric()->SetFaultInjector(nullptr);
  o.cache_lookups = e.worker->cache()->stats().lookups() - lookups;
  o.icache_stale = e.worker->icache()->stats().stale - stale;
  return o;
}

void ExpectOneReadPath(Hint hint, Pointer ptr) {
  const Observed a = Observe(hint, ptr, &InlineGet);
  const Observed b = Observe(hint, ptr, &FusedGet);
  for (const Observed* o : {&a, &b}) {
    ASSERT_TRUE(o->result.status.ok()) << o->result.status.ToString();
    EXPECT_EQ(o->result.value, "value-of-k");
    EXPECT_EQ(o->cache_lookups, 1u);  // one probe of the value cache
    // Only a hint that failed the key check is stale; a dropped read is
    // retried and the hint kept.
    EXPECT_EQ(o->icache_stale,
              hint == Hint::kIcache && ptr == Pointer::kStale ? 1u : 0u);
  }
  EXPECT_EQ(a.result.cost.round_trips, b.result.cost.round_trips);
  EXPECT_EQ(a.result.cost.wire_bytes, b.result.cost.wire_bytes);
  EXPECT_EQ(a.result.cpu_us, b.result.cpu_us);
  EXPECT_EQ(a.result.hit, b.result.hit);
  // A stale hint charges the miss CPU alone, not the hint's on top.
  const KnOptions defaults;
  const bool shortcut_served = hint == Hint::kShortcut && ptr != Pointer::kStale;
  EXPECT_EQ(a.result.cpu_us, shortcut_served ? defaults.cpu_shortcut_hit_us
                                             : defaults.cpu_miss_us);
  EXPECT_EQ(a.result.hit, shortcut_served ? cache::HitKind::kShortcutHit
                                          : cache::HitKind::kMiss);
}

TEST(KnWorkerReadPathTest, FreshShortcut) {
  ExpectOneReadPath(Hint::kShortcut, Pointer::kFresh);
}
TEST(KnWorkerReadPathTest, StaleShortcutFallsToTheIcache) {
  ExpectOneReadPath(Hint::kShortcut, Pointer::kStale);
}
TEST(KnWorkerReadPathTest, DroppedShortcutReadIsRetried) {
  ExpectOneReadPath(Hint::kShortcut, Pointer::kDropped);
}
TEST(KnWorkerReadPathTest, FreshIcacheSlot) {
  ExpectOneReadPath(Hint::kIcache, Pointer::kFresh);
}
TEST(KnWorkerReadPathTest, StaleIcacheSlotWalksTheIndex) {
  ExpectOneReadPath(Hint::kIcache, Pointer::kStale);
}
TEST(KnWorkerReadPathTest, DroppedIcacheReadKeepsTheSlot) {
  ExpectOneReadPath(Hint::kIcache, Pointer::kDropped);
}

// Shared (selectively replicated) keys.
class SharedKeyTest : public KnWorkerTest {
 protected:
  void SetUp() override {
    // Install the key, merge, and convert it to shared mode.
    ASSERT_TRUE(worker_->Put("hot", "v0").status.ok());
    ASSERT_TRUE(worker_->DrainLog().ok());
    key_hash_ = KeyHash(Slice("hot"));
    auto slot = dpm_.InstallIndirect(1, key_hash_);
    ASSERT_TRUE(slot.ok());

    auto routing = std::make_shared<cluster::RoutingTable>();
    routing->global_ring.AddNode(1);
    routing->threads_per_kn = 1;
    routing->replicated[key_hash_] = {1, 2};
    worker_->SetRouting(routing);
    worker_->cache()->Invalidate(key_hash_);
  }

  uint64_t key_hash_;
};

TEST_F(SharedKeyTest, SharedReadGoesThroughSlot) {
  auto get = worker_->Get("hot");
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  EXPECT_EQ(get.value, "v0");
  // Never cached as a value: a repeat read costs slot + value reads.
  auto get2 = worker_->Get("hot");
  ASSERT_TRUE(get2.status.ok());
  EXPECT_EQ(get2.cost.round_trips, 2u);
}

TEST_F(SharedKeyTest, SharedWritePublishesViaCas) {
  auto put = worker_->Put("hot", "v1");
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  auto get = worker_->Get("hot");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v1");
  // The slot now points at the new version; the index merge must not
  // clobber it.
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  auto get2 = worker_->Get("hot");
  ASSERT_TRUE(get2.status.ok());
  EXPECT_EQ(get2.value, "v1");
}

TEST_F(SharedKeyTest, TwoWorkersShareTheKeyConsistently) {
  KnOptions kno2;
  kno2.kn_id = 2;
  kno2.fabric_node = 2;
  KnWorker worker2(kno2, 0, &pool_);
  auto routing = std::make_shared<cluster::RoutingTable>();
  routing->global_ring.AddNode(1);  // primary
  routing->threads_per_kn = 1;
  routing->replicated[key_hash_] = {1, 2};
  worker2.SetRouting(routing);

  // Secondary owner reads the key.
  auto get = worker2.Get("hot");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v0");

  // Both owners write alternately; reads on either must see the latest.
  ASSERT_TRUE(worker_->Put("hot", "from1").status.ok());
  EXPECT_EQ(worker2.Get("hot").value, "from1");
  ASSERT_TRUE(worker2.Put("hot", "from2").status.ok());
  EXPECT_EQ(worker_->Get("hot").value, "from2");
}

}  // namespace
}  // namespace kn
}  // namespace dinomo
