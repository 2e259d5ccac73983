// Tests of the DPM log cleaner (DpmNode::CleanPass; DESIGN.md "Log
// cleaning"): victim choice, relocation and publish, the rule KN readers
// rely on once a relocated segment is freed and reused, crash consistency
// of a relocation at every persist boundary, a primary killed mid-clean,
// and soaks that overwrite ten pools' worth of data in both runtimes.
//
// The KN readers hold raw value pointers in four places: DAC shortcuts,
// the index-metadata cache (icache), fused doorbell GET plans and scan
// value reads. None of them is protected by a delayed free. The guarantee
// each stale-pointer test names is *validation*: every dereference decodes
// the entry (commit marker + CRC) and checks the key fingerprint, and on a
// mismatch re-resolves through the index (or, for a scan, re-reads the
// row's skiplist node). The cleaner publishes a move before it frees the
// victim, so re-resolution always finds the live copy. Relocation notices
// save that stale read; they must reach the caches before the victim's
// block is written again, or a notice could repoint a newer entry.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "dpm/log.h"
#include "index/skiplist.h"
#include "kn/kn_worker.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;
// 16 KiB segments hold 65 of the 248-byte entries below, so a few rounds
// of overwrites seal segments that are mostly garbage.
constexpr size_t kSegmentSize = 16 * 1024;
constexpr int kHotKeys = 60;
constexpr int kColdKeys = 4;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}
std::string ColdKey(int i) { return Key(1000 + i); }

// Every value has the same length, so every entry encodes to 248 bytes.
std::string Value(const std::string& key, int version) {
  std::string v = key + "@v" + std::to_string(version) + ":";
  v.resize(200, '.');
  return v;
}

dpm::DpmOptions CleanerDpm(bool crash_sim = false) {
  dpm::DpmOptions opt;
  opt.pool_size = 32 * kMiB;
  opt.index_log2_buckets = 6;
  opt.segment_size = kSegmentSize;
  opt.crash_sim = crash_sim;
  return opt;
}

// Put that rides out the unmerged-segment threshold by merging only this
// worker's own batches inline: no cleaner pass runs until a test asks.
void PutRetry(dpm::DpmPool* pool, kn::KnWorker* worker,
              const std::string& key, const std::string& value) {
  for (int tries = 0; tries < 1000; ++tries) {
    auto r = worker->Put(key, value);
    if (r.status.ok()) return;
    ASSERT_TRUE(r.status.IsBusy()) << r.status.ToString();
    for (int n = 0; n < pool->num_nodes(); ++n) {
      if (pool->alive(n)) {
        ASSERT_TRUE(pool->node(n)->DrainOwner(worker->log_owner()).ok());
      }
    }
  }
  FAIL() << "write never unblocked";
}

// The value `node`'s index (the CLHT, or the skiplist when `ordered`)
// resolves for `key`: "<missing>", "<corrupt>" or the stored value.
std::string IndexedValue(dpm::DpmNode* node, const std::string& key,
                         bool ordered = false) {
  const uint64_t kh = kn::KeyHash(Slice(key));
  const pm::PmPtr raw =
      ordered ? node->ordered()->Lookup(
                    index::PmSkipList::OrderedKey(key.data(), key.size()))
              : node->index()->Lookup(kh);
  if (raw == pm::kNullPmPtr) return "<missing>";
  dpm::ValuePtr vp(raw);
  std::string buf(vp.entry_size(), '\0');
  if (!node->fabric()->Read(0, vp.offset(), buf.data(), buf.size()).ok()) {
    return "<unreadable>";
  }
  dpm::LogRecord rec;
  size_t consumed = 0;
  if (!dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok() ||
      rec.key_hash != kh || rec.op != dpm::LogOp::kPut) {
    return "<corrupt>";
  }
  return rec.value.ToString();
}

dpm::ValuePtr IndexedPtr(dpm::DpmNode* node, const std::string& key) {
  return dpm::ValuePtr(node->index()->Lookup(kn::KeyHash(Slice(key))));
}

// Reallocates the freed segment that held the `stale` pointers (one
// segment) and plants another key's entry of the same size exactly where
// each points, as log writes into the reused segment would. (Straight from
// the allocator: the scan test runs this inside a fabric hook, where an
// RPC would re-enter the fault injector.) False if no freed segment
// covers them.
bool ReuseWithIntruders(dpm::DpmNode* node,
                        const std::vector<dpm::ValuePtr>& stale) {
  const size_t seg_size = node->options().segment_size;
  for (int i = 0; i < 64; ++i) {
    auto seg = node->allocator()->Alloc(seg_size);
    if (!seg.ok()) return false;
    auto covered = [&](dpm::ValuePtr vp) {
      return vp.offset() > *seg && vp.offset() < *seg + seg_size;
    };
    if (!covered(stale.front())) continue;
    const std::string key = "intrude";
    std::string entry(dpm::EncodedEntrySize(key.size(), 200), '\0');
    dpm::EncodeEntry(entry.data(), dpm::LogOp::kPut, 1,
                     kn::KeyHash(Slice(key)), Slice(key),
                     Slice(Value(key, 9)));
    for (const dpm::ValuePtr& vp : stale) {
      if (!covered(vp) || entry.size() != vp.entry_size() ||
          !dpm::AppendBatchPm(node->pool(), vp.offset(), entry.data(),
                              entry.size())
               .ok()) {
        return false;
      }
    }
    return true;
  }
  return false;
}
bool ReuseWithIntruder(dpm::DpmNode* node, dpm::ValuePtr stale) {
  return ReuseWithIntruders(node, {stale});
}

// One KN worker over one DPM node with small segments. The workload
// leaves the first segments almost all garbage: a few cold keys written
// once, then several rounds over a hot set.
class LogCleanerTest : public ::testing::Test {
 protected:
  explicit LogCleanerTest(
      kn::CachePolicyKind policy = kn::CachePolicyKind::kDac)
      : dpm_(CleanerDpm()), pool_(&dpm_) {
    kn::KnOptions kno;
    kno.kn_id = 1;
    kno.fabric_node = 1;
    kno.cache_bytes = 1 * kMiB;
    kno.batch_max_ops = 8;
    kno.policy = policy;
    worker_ = std::make_unique<kn::KnWorker>(kno, 0, &pool_);
    dpm_.merge()->SetMergeCallback([this](const dpm::MergeAck& ack) {
      if (ack.owner == worker_->log_owner()) {
        worker_->OnOwnerBatchMerged(ack.node, ack.base);
      }
    });
  }

  // Writes the cold keys once and `rounds` versions of every hot key,
  // merged, with no cleaner pass run yet.
  void WriteGarbage(int rounds) {
    for (int c = 0; c < kColdKeys; ++c) {
      ASSERT_NO_FATAL_FAILURE(
          PutRetry(&pool_, worker_.get(), ColdKey(c), Value(ColdKey(c), 0)));
    }
    for (int r = 0; r < rounds; ++r) {
      for (int h = 0; h < kHotKeys; ++h) {
        ASSERT_NO_FATAL_FAILURE(
            PutRetry(&pool_, worker_.get(), Key(h), Value(Key(h), r)));
      }
    }
    ASSERT_TRUE(worker_->DrainLog().ok());
    last_round_ = rounds - 1;
  }

  void ExpectEveryKeyIndexed() {
    for (int c = 0; c < kColdKeys; ++c) {
      for (bool ordered : {false, true}) {
        EXPECT_EQ(IndexedValue(&dpm_, ColdKey(c), ordered),
                  Value(ColdKey(c), 0));
      }
    }
    for (int h = 0; h < kHotKeys; ++h) {
      for (bool ordered : {false, true}) {
        EXPECT_EQ(IndexedValue(&dpm_, Key(h), ordered),
                  Value(Key(h), last_round_));
      }
    }
  }

  dpm::DpmNode dpm_;
  dpm::DpmPool pool_;
  std::unique_ptr<kn::KnWorker> worker_;
  int last_round_ = 0;
};

TEST_F(LogCleanerTest, RelocatesLiveEntriesAndFreesTheVictim) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const dpm::ValuePtr before = IndexedPtr(&dpm_, ColdKey(0));
  const auto stats0 = dpm_.Stats();
  EXPECT_EQ(stats0.clean_victims, 0u);

  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());  // runs the queued passes
  const auto stats = dpm_.Stats();
  EXPECT_GE(stats.clean_victims, 1u);
  EXPECT_GE(stats.clean_relocated, static_cast<uint64_t>(kColdKeys));
  EXPECT_EQ(stats.clean_lost, 0u);  // nothing raced the passes
  EXPECT_GE(stats.segments_gced, stats.clean_victims);
  EXPECT_LT(stats.live_segments, stats0.live_segments);
  EXPECT_EQ(dpm_.merge()->TotalPendingBatches(), 0u);
  EXPECT_NE(IndexedPtr(&dpm_, ColdKey(0)).offset(), before.offset());
  ExpectEveryKeyIndexed();

  // The worker's reads see the same values, pointers moved or not.
  for (int c = 0; c < kColdKeys; ++c) {
    auto got = worker_->Get(ColdKey(c));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.value, Value(ColdKey(c), 0));
  }
}

TEST_F(LogCleanerTest, InsertsAndReadsNeverClean) {
  // Every key written once: nothing is superseded, so no segment is a
  // candidate however many seal.
  for (int i = 0; i < 400; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        PutRetry(&pool_, worker_.get(), Key(i), Value(Key(i), 0)));
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(worker_->Get(Key(i)).status.ok());
  }
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  EXPECT_EQ(dpm_.CleanPass(), 0.0);
  const auto stats = dpm_.Stats();
  EXPECT_GT(stats.segments_allocated, 4u);
  EXPECT_EQ(stats.clean_victims, 0u);
  EXPECT_EQ(stats.clean_relocated, 0u);
  EXPECT_EQ(stats.segments_gced, 0u);
}

TEST_F(LogCleanerTest, SegmentsMostlyLiveAreLeftAlone) {
  // 130 keys fill two segments; overwriting 30% of the first one's keys
  // leaves it 70% live: short of the 40%-dead cleaning threshold.
  for (int i = 0; i < 130; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        PutRetry(&pool_, worker_.get(), Key(i), Value(Key(i), 0)));
  }
  for (int i = 0; i < 19; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        PutRetry(&pool_, worker_.get(), Key(i), Value(Key(i), 1)));
  }
  ASSERT_TRUE(worker_->DrainLog().ok());
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  EXPECT_EQ(dpm_.Stats().clean_victims, 0u);
  EXPECT_EQ(dpm_.Stats().clean_relocated, 0u);
}

// ----- Victim choice ---------------------------------------------------

// Writes `keys` at `version` as one batch into a fresh segment of `owner`,
// merges it and seals the segment. Returns its base.
pm::PmPtr WriteSealedSegment(dpm::DpmNode* node, uint64_t owner,
                             const std::vector<std::string>& keys,
                             int version) {
  auto seg = node->AllocateSegment(0, owner);
  EXPECT_TRUE(seg.ok());
  dpm::LogBuilder batch;
  for (const std::string& k : keys) {
    batch.AddPut(1, kn::KeyHash(Slice(k)), Slice(k), Slice(Value(k, version)));
  }
  const pm::PmPtr data = *seg + pm::kCacheLineSize;
  EXPECT_TRUE(dpm::AppendBatchPm(node->pool(), data, batch.data(),
                                 batch.bytes())
                  .ok());
  EXPECT_TRUE(node->SubmitBatch(0, owner, *seg, data, batch.bytes(),
                                batch.puts())
                  .ok());
  EXPECT_TRUE(node->SealSegment(0, owner, *seg).ok());
  EXPECT_TRUE(node->DrainOwner(owner).ok());
  return *seg;
}

std::vector<std::string> KeyRange(int first, int count) {
  std::vector<std::string> keys;
  for (int i = first; i < first + count; ++i) keys.push_back(Key(i));
  return keys;
}

bool Holds(pm::PmPtr segment, dpm::ValuePtr vp) {
  return vp.offset() > segment && vp.offset() < segment + kSegmentSize;
}

TEST(LogCleanerPolicyTest, CostBenefitRanksByDeadFractionAndAge) {
  dpm::DpmNode node(CleanerDpm());
  constexpr uint64_t kOwner = 0x105;
  // A: 20 keys, sealed first. B: 20 keys, sealed second. Then 12 of A's
  // keys (60% dead) and 19 of B's (95% dead) are overwritten in C.
  const pm::PmPtr a = WriteSealedSegment(&node, kOwner, KeyRange(0, 20), 0);
  const pm::PmPtr b = WriteSealedSegment(&node, kOwner, KeyRange(100, 20), 0);
  std::vector<std::string> over = KeyRange(0, 12);
  for (const std::string& k : KeyRange(100, 19)) over.push_back(k);
  WriteSealedSegment(&node, kOwner, over, 1);
  // Ages (segments sealed since, +1): A 3, B 2. Scores (1-u)*age/(1+u):
  // A 0.6*3/1.4 = 1.29, B 0.95*2/1.05 = 1.81 -- B goes first.
  EXPECT_GT(node.CleanPass(), 0.0);
  EXPECT_FALSE(Holds(b, IndexedPtr(&node, Key(119))));  // moved
  EXPECT_TRUE(Holds(a, IndexedPtr(&node, Key(19))));    // not yet
  EXPECT_EQ(node.Stats().clean_victims, 1u);
  // A is still a candidate and goes next; then nothing is left.
  EXPECT_GT(node.CleanPass(), 0.0);
  EXPECT_FALSE(Holds(a, IndexedPtr(&node, Key(19))));
  EXPECT_EQ(node.CleanPass(), 0.0);
  EXPECT_EQ(node.Stats().clean_victims, 2u);
  EXPECT_EQ(node.Stats().clean_relocated, 8u + 1u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(IndexedValue(&node, Key(i)), Value(Key(i), i < 12 ? 1 : 0));
    EXPECT_EQ(IndexedValue(&node, Key(100 + i)),
              Value(Key(100 + i), i < 19 ? 1 : 0));
  }
}

TEST(LogCleanerPolicyTest, OlderSegmentWinsAtEqualGarbage) {
  dpm::DpmNode node(CleanerDpm());
  constexpr uint64_t kOwner = 0x105;
  const pm::PmPtr a = WriteSealedSegment(&node, kOwner, KeyRange(0, 10), 0);
  // Age A by sealing more segments after it, all of them fully live.
  for (int s = 0; s < 4; ++s) {
    WriteSealedSegment(&node, kOwner, KeyRange(200 + 10 * s, 10), 0);
  }
  const pm::PmPtr b = WriteSealedSegment(&node, kOwner, KeyRange(100, 10), 0);
  std::vector<std::string> over = KeyRange(0, 6);
  for (const std::string& k : KeyRange(100, 6)) over.push_back(k);
  WriteSealedSegment(&node, kOwner, over, 1);
  EXPECT_GT(node.CleanPass(), 0.0);
  EXPECT_FALSE(Holds(a, IndexedPtr(&node, Key(9))));
  EXPECT_TRUE(Holds(b, IndexedPtr(&node, Key(109))));
}

// ----- Stale value pointers after relocation + free + reuse -------------

class LogCleanerShortcutTest : public LogCleanerTest {
 protected:
  LogCleanerShortcutTest()
      : LogCleanerTest(kn::CachePolicyKind::kShortcutOnly) {}
};

// Guarantee: validation. The DAC shortcut still names the cold key's old
// home; after the cleaner moved the entry and the segment was reused, the
// shortcut read decodes another key's entry, fails the fingerprint check,
// and the GET drops the shortcut and re-resolves through the index.
TEST_F(LogCleanerShortcutTest, StaleShortcutGetRevalidatesAndReresolves) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(1);
  auto warm = worker_->Get(key);  // shortcut hit, caches the old home
  ASSERT_TRUE(warm.status.ok());
  ASSERT_EQ(warm.hit, cache::HitKind::kShortcutHit);
  const dpm::ValuePtr stale = IndexedPtr(&dpm_, key);

  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_NE(IndexedPtr(&dpm_, key).offset(), stale.offset());
  ASSERT_TRUE(ReuseWithIntruder(&dpm_, stale));

  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, 0));
  // Paid the stale read, then the index walk and the value read.
  EXPECT_GE(got.cost.round_trips, 3u);
  auto again = worker_->Get(key);  // the re-learned shortcut is current
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.value, Value(key, 0));
  EXPECT_EQ(again.hit, cache::HitKind::kShortcutHit);
  EXPECT_EQ(again.cost.round_trips, 1u);
}

// Guarantee: validation. The icache slot (learned from this worker's own
// write) names the old home; its one-read fast path fails the decode /
// fingerprint check, is counted stale, and falls back to the traversal.
TEST_F(LogCleanerTest, StaleIcacheGetRevalidatesAndReresolves) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(2);
  const uint64_t kh = kn::KeyHash(Slice(key));
  const dpm::ValuePtr stale = IndexedPtr(&dpm_, key);

  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_NE(IndexedPtr(&dpm_, key).offset(), stale.offset());
  ASSERT_TRUE(ReuseWithIntruder(&dpm_, stale));

  worker_->cache()->Invalidate(kh);  // leave only the icache slot
  const uint64_t stale_before = worker_->icache()->stats().stale;
  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, 0));
  EXPECT_EQ(worker_->icache()->stats().stale, stale_before + 1);
}

// Guarantee: validation. A fused doorbell GET planned before the move
// reads the reused bytes after it; GetComplete rejects them, drops the
// icache slot and walks the index.
TEST_F(LogCleanerTest, StaleFusedGetRevalidatesAndReresolves) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(3);
  worker_->cache()->Invalidate(kn::KeyHash(Slice(key)));
  kn::DirectReadPlan plan;
  kn::OpResult partial = worker_->GetPrepare(Slice(key), &plan);
  ASSERT_TRUE(plan.ready);  // an icache hit, deferred for the doorbell
  ASSERT_EQ(plan.vp.offset(), IndexedPtr(&dpm_, key).offset());

  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_TRUE(ReuseWithIntruder(&dpm_, plan.vp));

  ASSERT_TRUE(dpm_.fabric()
                  ->Read(1, plan.vp.offset(), plan.buf.data(), plan.buf.size())
                  .ok());
  plan.fused = true;  // the read above is the doorbell round's
  auto got = worker_->GetComplete(Slice(key), &plan, std::move(partial));
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, 0));
}

// Guarantee: validation. The scan reads the cold rows' skiplist nodes,
// then -- between that walk and its fused value reads -- the cleaner moves
// the rows, frees their segment and it is reused. Each value read fails
// the fingerprint check; the scan re-reads the row's node, which names the
// relocated copy, and returns every row with its current value.
TEST_F(LogCleanerTest, ScanRereadsTheNodeOfARelocatedRow) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string first = ColdKey(0);
  const Slice start(first);
  std::vector<kn::ScanRow> rows;
  // Warm the learned links so the armed scan below takes the same path.
  ASSERT_TRUE(worker_->Scan(start, kColdKeys, &rows).status.ok());
  ASSERT_TRUE(worker_->Scan(start, kColdKeys, &rows).status.ok());

  // The fault injector consults its clock once per one-sided op, before
  // the op lands: with an inert event installed, the clock is a
  // deterministic per-op hook. Count one warm scan's ops first.
  net::FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/0.0);
  obs::MetricsRegistry reg;
  net::FaultInjector injector(schedule, &reg);
  int ops = 0;
  int fire_at = -1;
  std::vector<dpm::ValuePtr> stale;
  injector.SetClock([&] {
    if (ops++ == fire_at) {
      for (int c = 0; c < kColdKeys; ++c) {
        stale.push_back(IndexedPtr(&dpm_, ColdKey(c)));
      }
      EXPECT_TRUE(dpm_.merge()->DrainAll().ok());  // relocate + free
      EXPECT_TRUE(ReuseWithIntruders(&dpm_, stale));
    }
    return 0.0;
  });
  dpm_.fabric()->SetFaultInjector(&injector);
  ASSERT_TRUE(worker_->Scan(start, kColdKeys, &rows).status.ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kColdKeys));
  // A warm scan's last ops are its fused value reads, one per row.
  fire_at = ops + (ops - kColdKeys);
  auto armed = worker_->Scan(start, kColdKeys, &rows);
  dpm_.fabric()->SetFaultInjector(nullptr);

  ASSERT_EQ(stale.size(), static_cast<size_t>(kColdKeys));
  for (int c = 0; c < kColdKeys; ++c) {
    ASSERT_NE(IndexedPtr(&dpm_, ColdKey(c)).offset(), stale[c].offset());
  }
  ASSERT_TRUE(armed.status.ok()) << armed.status.ToString();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kColdKeys));
  for (int c = 0; c < kColdKeys; ++c) {
    EXPECT_EQ(rows[c].key, ColdKey(c));
    EXPECT_EQ(rows[c].value, Value(ColdKey(c), 0));
  }
}

// ----- Relocation notices ------------------------------------------------

// With the relocation callback wired, as both runtimes wire it, the
// owner's caches follow each move: the next read is a one-RT hit on the
// copy, and no stale read happens at all.
TEST_F(LogCleanerShortcutTest, RelocationNoticesRepointShortcuts) {
  dpm_.merge()->SetRelocationCallback(
      [this](int node, const std::vector<dpm::Relocation>& moves) {
        worker_->OnEntriesRelocated(node, moves);
      });
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(1);
  ASSERT_EQ(worker_->Get(key).hit, cache::HitKind::kShortcutHit);
  const dpm::ValuePtr stale = IndexedPtr(&dpm_, key);
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_NE(IndexedPtr(&dpm_, key).offset(), stale.offset());
  ASSERT_TRUE(ReuseWithIntruder(&dpm_, stale));

  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, 0));
  EXPECT_EQ(got.hit, cache::HitKind::kShortcutHit);
  EXPECT_EQ(got.cost.round_trips, 1u);
}

TEST_F(LogCleanerTest, RelocationNoticesRepointTheIcache) {
  dpm_.merge()->SetRelocationCallback(
      [this](int node, const std::vector<dpm::Relocation>& moves) {
        worker_->OnEntriesRelocated(node, moves);
      });
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(2);
  const dpm::ValuePtr stale = IndexedPtr(&dpm_, key);
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_TRUE(ReuseWithIntruder(&dpm_, stale));

  worker_->cache()->Invalidate(kn::KeyHash(Slice(key)));
  const uint64_t stale_before = worker_->icache()->stats().stale;
  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, 0));
  EXPECT_EQ(got.cost.round_trips, 1u);
  EXPECT_EQ(worker_->icache()->stats().stale, stale_before);
}

// A notice names the node whose pool it moved: one from a node that is not
// the key's primary (here, a mirror's own cleaner) must not repoint a
// pointer that happens to hold the same offset in the primary's pool.
TEST_F(LogCleanerShortcutTest, NoticesFromAnotherNodeAreIgnored) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(1));
  const std::string key = ColdKey(0);
  const dpm::ValuePtr here = IndexedPtr(&dpm_, key);
  worker_->OnEntriesRelocated(
      /*node=*/1, {dpm::Relocation{kn::KeyHash(Slice(key)), here.raw(),
                                   dpm::ValuePtr::Pack(64, here.entry_size())
                                       .raw()}});
  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.value, Value(key, 0));
  EXPECT_EQ(got.cost.round_trips, 1u);  // the shortcut was left alone
}

// A cleaned victim's block goes back to the allocator, whose free lists are
// LIFO, so the owner's next log segment is likely that very block. A write
// of a moved key can then land at exactly the address a move names as its
// old home. A notice applied after that write repoints the new entry's
// pointer at the cleaner's older copy, which still decodes as the key's
// put: validation cannot catch the stale read. ColdKey(0) is the first
// entry of the worker's first segment, the first victim, so its rewrite as
// the first entry of a reused block lands at its old address.

// The pass hands its notices over before it frees the victim. This
// callback rewrites the moved key until the write rolls onto a new
// segment, and only then delivers the moves: a block freed before the
// notices went out would be that segment.
TEST_F(LogCleanerShortcutTest, NoticesGoOutBeforeTheVictimIsFreed) {
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(4));
  const std::string key = ColdKey(0);
  const dpm::ValuePtr old_home = IndexedPtr(&dpm_, key);
  int version = 0;
  dpm_.merge()->SetRelocationCallback(
      [&](int node, const std::vector<dpm::Relocation>& moves) {
        for (const dpm::Relocation& mv : moves) {
          if (version != 0 || mv.from != old_home.raw()) continue;
          const uint64_t segments = dpm_.Stats().segments_allocated;
          while (dpm_.Stats().segments_allocated == segments) {
            ++version;
            auto put = worker_->Put(key, Value(key, version));
            ASSERT_TRUE(put.status.ok()) << put.status.ToString();
          }
        }
        worker_->OnEntriesRelocated(node, moves);
      });
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  ASSERT_GT(version, 0);  // the pass that moved the key ran the rewrite

  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, version));
}

// Notices delivered while a write is under way are applied as soon as it
// allocates a segment, before it writes there. The pass runs inside the
// rolling write's first DPM RPC (the fault injector's clock is a hook that
// every RPC consults), so the allocation that follows reuses its victim.
// Two rounds leave one candidate, the first segment, so one pass runs.
TEST_F(LogCleanerShortcutTest, NoticesApplyBeforeANewSegmentIsWritten) {
  dpm_.merge()->SetRelocationCallback(
      [this](int node, const std::vector<dpm::Relocation>& moves) {
        worker_->OnEntriesRelocated(node, moves);
      });
  constexpr int kRounds = 2;
  ASSERT_NO_FATAL_FAILURE(WriteGarbage(kRounds));
  const std::string key = ColdKey(0);
  const uint64_t kh = kn::KeyHash(Slice(key));
  const dpm::ValuePtr old_home = IndexedPtr(&dpm_, key);
  // Fill the worker's open segment, so that the next write rolls over.
  const size_t per_segment =
      (kSegmentSize - pm::kCacheLineSize) / old_home.entry_size();
  const size_t written = kColdKeys + kRounds * kHotKeys;
  int version = 0;
  for (size_t i = written % per_segment; i < per_segment; ++i) {
    ASSERT_TRUE(worker_->Put(key, Value(key, ++version)).status.ok());
  }

  net::FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/0.0);
  obs::MetricsRegistry reg;
  net::FaultInjector injector(schedule, &reg);
  bool cleaned = false;
  injector.SetClock([&] {
    if (!cleaned) {
      cleaned = true;
      EXPECT_TRUE(dpm_.merge()->DrainOwner(dpm::kCleanerOwner).ok());
    }
    return 0.0;
  });
  dpm_.SetFaultInjector(&injector);
  auto put = worker_->Put(key, Value(key, ++version));
  dpm_.SetFaultInjector(nullptr);
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  ASSERT_TRUE(cleaned);
  ASSERT_EQ(dpm_.Stats().clean_victims, 1u);
  ASSERT_NE(IndexedPtr(&dpm_, key).offset(), old_home.offset());
  // The scenario: the new entry sits at the key's old address.
  const cache::LookupResult cached = worker_->cache()->Lookup(kh);
  ASSERT_EQ(cached.ptr.raw(), old_home.raw());

  auto got = worker_->Get(key);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, Value(key, version));
}

// ----- Concurrency: merges and passes on real DPM threads ---------------

TEST_F(LogCleanerTest, RacingMergesAndPassesKeepEveryValue) {
  dpm_.merge()->StartThreads(2);
  for (int c = 0; c < kColdKeys; ++c) {
    ASSERT_TRUE(worker_->Put(ColdKey(c), Value(ColdKey(c), 0)).status.ok());
  }
  constexpr int kRounds = 30;
  for (int r = 0; r < kRounds; ++r) {
    for (int h = 0; h < kHotKeys; ++h) {
      kn::OpResult put;
      for (int tries = 0; tries < 100000; ++tries) {
        put = worker_->Put(Key(h), Value(Key(h), r));
        if (!put.status.IsBusy()) break;
        std::this_thread::yield();  // the merge threads catch up
      }
      ASSERT_TRUE(put.status.ok()) << put.status.ToString();
    }
  }
  kn::OpResult flushed = worker_->FlushWrites();
  ASSERT_TRUE(flushed.status.ok());
  dpm_.merge()->StopThreads();
  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  last_round_ = kRounds - 1;

  const auto stats = dpm_.Stats();
  EXPECT_GT(stats.clean_victims, 0u);
  EXPECT_GT(stats.clean_relocated, 0u);
  ExpectEveryKeyIndexed();
  for (int h = 0; h < kHotKeys; ++h) {
    auto got = worker_->Get(Key(h));
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(got.value, Value(Key(h), last_round_));
  }
  for (int c = 0; c < kColdKeys; ++c) {
    auto got = worker_->Get(ColdKey(c));
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(got.value, Value(ColdKey(c), 0));
  }
}

// A merge that swapped a victim's entry out of the CLHT has not charged
// it yet (ApplyRecord: CLHT upsert, skiplist upsert, NoteSuperseded). If
// the pass freed the victim in that window and the allocator handed its
// base to a new segment, the late charge would land there, and GC would
// free the new segment under its one live entry. The test thread plays
// that merge step by step inside an ExecutingScope; the pass runs on its
// own thread and reallocates the moment it returns. Guarantee: the
// delayed free (CleanPass waits for the merges executing when it is done).
TEST(LogCleanerRaceTest, PassWaitsForAMergeStillChargingItsVictim) {
  dpm::DpmNode node(CleanerDpm());
  constexpr uint64_t kOwner = 0x105;
  constexpr uint64_t kWriter = 0x205;
  constexpr uint64_t kReuser = 0x305;
  // The victim: 40 keys, then 20 of them overwritten (50% dead).
  const pm::PmPtr victim =
      WriteSealedSegment(&node, kOwner, KeyRange(0, 40), 0);
  WriteSealedSegment(&node, kOwner, KeyRange(0, 20), 1);
  const std::string key = Key(39);
  const uint64_t kh = kn::KeyHash(Slice(key));
  const dpm::ValuePtr old = IndexedPtr(&node, key);
  ASSERT_TRUE(Holds(victim, old));

  // The racing merge's entry: a newer version of `key`, in the log.
  auto seg = node.AllocateSegment(0, kWriter);
  ASSERT_TRUE(seg.ok());
  dpm::LogBuilder batch;
  batch.AddPut(1, kh, Slice(key), Slice(Value(key, 2)));
  const pm::PmPtr data = *seg + pm::kCacheLineSize;
  ASSERT_TRUE(
      dpm::AppendBatchPm(node.pool(), data, batch.data(), batch.bytes()).ok());
  const dpm::ValuePtr newer =
      dpm::ValuePtr::Pack(data, static_cast<uint32_t>(batch.bytes()));

  std::atomic<bool> passed{false};
  pm::PmPtr reused = pm::kNullPmPtr;
  std::thread cleaner;
  {
    dpm::MergeService::ExecutingScope merging(node.merge());
    auto prev = node.index()->Upsert(kh, newer.raw());
    ASSERT_TRUE(prev.ok());
    ASSERT_EQ(prev.value(), old.raw());
    ASSERT_TRUE(node.ordered()
                    ->UpsertHashed(index::PmSkipList::OrderedKey(
                                       key.data(), key.size()),
                                   kh, newer.raw())
                    .ok());
    cleaner = std::thread([&] {
      node.CleanPass();
      passed.store(true);
      auto again = node.AllocateSegment(0, kReuser);
      if (again.ok()) reused = again.value();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(passed.load()) << "the victim was freed under a merge";
    node.NoteSuperseded(old.offset());
  }
  cleaner.join();
  EXPECT_EQ(node.Stats().clean_victims, 1u);
  ASSERT_EQ(reused, victim);  // the freed base is the next one handed out

  // The reused segment gets one put and is sealed: nothing superseded it,
  // so GC must keep it.
  const uint64_t gced = node.Stats().segments_gced;
  const std::string fresh = "fresh";
  dpm::LogBuilder one;
  one.AddPut(1, kn::KeyHash(Slice(fresh)), Slice(fresh),
             Slice(Value(fresh, 0)));
  const pm::PmPtr at = reused + pm::kCacheLineSize;
  ASSERT_TRUE(
      dpm::AppendBatchPm(node.pool(), at, one.data(), one.bytes()).ok());
  ASSERT_TRUE(
      node.SubmitBatch(0, kReuser, reused, at, one.bytes(), one.puts()).ok());
  ASSERT_TRUE(node.SealSegment(0, kReuser, reused).ok());
  ASSERT_TRUE(node.DrainOwner(kReuser).ok());
  EXPECT_EQ(node.Stats().segments_gced, gced);
  EXPECT_EQ(IndexedValue(&node, fresh), Value(fresh, 0));
  auto next = node.AllocateSegment(0, kReuser);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value(), reused);
  EXPECT_EQ(IndexedValue(&node, key), Value(key, 2));
  for (int i = 0; i < 39; ++i) {
    EXPECT_EQ(IndexedValue(&node, Key(i)), Value(Key(i), i < 20 ? 1 : 0));
  }
}

// A pass cut short (here: no PM left for its next destination segment)
// hands its victim back with the entries it moved counted as superseded.
// A move only the skiplist took is not one of them: a merge already swapped
// the CLHT off that entry and charges it itself. Counting it twice would let
// GC free the victim under its last live entry.
TEST(LogCleanerRaceTest, CutShortPassCountsOnlyEntriesNoMergeWillCharge) {
  dpm::DpmOptions opt = CleanerDpm();
  opt.pool_size = 4 * kMiB;
  dpm::DpmNode node(opt);
  constexpr uint64_t kOwner = 0x105;
  constexpr uint64_t kWriter = 0x205;
  // Two passes leave 60 entries in the cleaner's open segment, which holds
  // 65: room for five more.
  for (int first : {100, 200}) {
    WriteSealedSegment(&node, kOwner, KeyRange(first, 60), 0);
    WriteSealedSegment(&node, kOwner, KeyRange(first, 30), 1);
    ASSERT_GT(node.CleanPass(), 0.0);
  }
  ASSERT_EQ(node.Stats().clean_relocated, 60u);
  // The victim: keys 0-39, then 0-19 overwritten; 20-39 are live.
  const pm::PmPtr victim =
      WriteSealedSegment(&node, kOwner, KeyRange(0, 40), 0);
  WriteSealedSegment(&node, kOwner, KeyRange(0, 20), 1);
  // A newer version of key 20, for the merge the test thread plays.
  const std::string key = Key(20);
  const uint64_t kh = kn::KeyHash(Slice(key));
  const dpm::ValuePtr old = IndexedPtr(&node, key);
  ASSERT_TRUE(Holds(victim, old));
  auto seg = node.AllocateSegment(0, kWriter);
  ASSERT_TRUE(seg.ok());
  dpm::LogBuilder batch;
  batch.AddPut(1, kh, Slice(key), Slice(Value(key, 2)));
  const pm::PmPtr data = *seg + pm::kCacheLineSize;
  ASSERT_TRUE(
      dpm::AppendBatchPm(node.pool(), data, batch.data(), batch.bytes()).ok());
  const dpm::ValuePtr newer =
      dpm::ValuePtr::Pack(data, static_cast<uint32_t>(batch.bytes()));
  // Take every free segment, so the pass cannot open another.
  std::vector<pm::PmPtr> hoard;
  for (auto a = node.allocator()->Alloc(opt.segment_size); a.ok();
       a = node.allocator()->Alloc(opt.segment_size)) {
    hoard.push_back(a.value());
  }

  const uint64_t gced = node.Stats().segments_gced;
  std::atomic<bool> passed{false};
  std::thread cleaner;
  {
    // The merge swaps the CLHT, then the pass runs before its skiplist
    // upsert: key 20 still looks live there and moves (skiplist only),
    // with 21-24; key 25 finds no room, and the pass stops.
    dpm::MergeService::ExecutingScope merging(node.merge());
    auto prev = node.index()->Upsert(kh, newer.raw());
    ASSERT_TRUE(prev.ok());
    ASSERT_EQ(prev.value(), old.raw());
    cleaner = std::thread([&] {
      node.CleanPass();
      passed.store(true);
    });
    for (int ms = 0; ms < 2000 && !passed.load(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(passed.load()) << "the pass was not cut short";
    EXPECT_TRUE(node.ordered()
                    ->UpsertHashed(index::PmSkipList::OrderedKey(
                                       key.data(), key.size()),
                                   kh, newer.raw())
                    .ok());
    node.NoteSuperseded(old.offset());
  }
  cleaner.join();
  EXPECT_EQ(node.Stats().clean_victims, 2u);  // the two filling passes
  EXPECT_EQ(node.Stats().clean_relocated, 65u);
  EXPECT_TRUE(Holds(victim, IndexedPtr(&node, Key(25))));
  for (pm::PmPtr p : hoard) node.allocator()->Free(p);

  // 14 of the victim's 15 entries left live are overwritten: one stays, so
  // GC must keep the victim.
  WriteSealedSegment(&node, kOwner, KeyRange(25, 14), 3);
  EXPECT_EQ(node.Stats().segments_gced, gced);
  ASSERT_TRUE(Holds(victim, IndexedPtr(&node, Key(39))));
  while (node.CleanPass() > 0.0) {
  }
  EXPECT_FALSE(Holds(victim, IndexedPtr(&node, Key(39))));
  for (int i = 0; i < 40; ++i) {
    const int version = i < 20 ? 1 : i == 20 ? 2 : i < 25 ? 0 : i < 39 ? 3 : 0;
    for (bool ordered : {false, true}) {
      EXPECT_EQ(IndexedValue(&node, Key(i), ordered), Value(Key(i), version))
          << Key(i) << (ordered ? " (skiplist)" : "");
    }
  }
}

// ----- Crash consistency ------------------------------------------------

// Crash-point sweep over one cleaning pass and a newer merge of a
// relocated key: at every persist boundary the recovered node resolves
// every key (through the CLHT and the skiplist) to a decodable entry
// holding its last committed value, and a cleaner segment is never
// replayed over the newer merge.
TEST(LogCleanerCrashTest, EveryPersistBoundaryOfARelocation) {
  dpm::DpmOptions opt = CleanerDpm(/*crash_sim=*/true);
  opt.pool_size = 8 * kMiB;  // each boundary clones the pool
  auto node = std::make_unique<dpm::DpmNode>(opt);
  dpm::DpmPool dpool(node.get());
  kn::KnOptions kopt;
  kopt.kn_id = 1;
  kopt.batch_max_ops = 8;
  kn::KnWorker worker(kopt, 0, &dpool);

  std::map<std::string, std::string> committed;
  auto put = [&](const std::string& k, const std::string& v) {
    PutRetry(&dpool, &worker, k, v);
    committed[k] = v;
  };
  for (int c = 0; c < kColdKeys; ++c) put(ColdKey(c), Value(ColdKey(c), 0));
  for (int r = 0; r < 3; ++r) {
    for (int h = 0; h < kHotKeys; ++h) put(Key(h), Value(Key(h), r));
  }
  ASSERT_TRUE(worker.DrainLog().ok());

  // Clean until the cold keys' segment has been relocated.
  node->pool()->EnablePersistTrace();
  const dpm::ValuePtr cold = IndexedPtr(node.get(), ColdKey(0));
  while (IndexedPtr(node.get(), ColdKey(0)).offset() == cold.offset()) {
    ASSERT_GT(node->CleanPass(), 0.0);
  }
  const uint64_t cleaned_at = node->pool()->persist_boundaries();
  // A newer version of a relocated key, committed and merged after the
  // move: replaying the cleaner's copy would resurrect the old value.
  const std::map<std::string, std::string> before_put = committed;
  put(ColdKey(0), Value(ColdKey(0), 1));
  ASSERT_TRUE(worker.FlushWrites().status.ok());
  const uint64_t flushed_at = node->pool()->persist_boundaries();
  ASSERT_TRUE(node->merge()->DrainAll().ok());

  const pm::PmPool& pool = *node->pool();
  const uint64_t total = pool.persist_boundaries();
  ASSERT_GT(cleaned_at, 0u);
  obs::MetricsRegistry scratch;
  for (uint64_t k = 0; k <= total; ++k) {
    auto recovered = dpm::DpmNode::Recover(opt, pool.CloneAtBoundary(k,
                                                                     &scratch));
    ASSERT_TRUE(recovered.ok())
        << "boundary " << k << ": " << recovered.status().ToString();
    dpm::DpmNode* r = recovered.value().get();
    ASSERT_TRUE(r->index()->CheckConsistency().ok()) << "boundary " << k;
    for (const auto& [key, value] : committed) {
      const std::string& old = before_put.at(key);
      for (bool ordered : {false, true}) {
        const std::string got = IndexedValue(r, key, ordered);
        if (k >= flushed_at || got != old) {
          // Once the newer write is committed it is the only answer; in
          // between, the old value or a merged-early new one.
          EXPECT_EQ(got, value) << "boundary " << k << " key " << key
                                << (ordered ? " (skiplist)" : "");
        }
      }
    }
    // The recovered node keeps cleaning: its open cleaner segment was
    // sealed, and a further pass still leaves every key readable.
    r->CleanPass();
    for (const auto& [key, value] : committed) {
      const std::string got = IndexedValue(r, key);
      EXPECT_TRUE(got == value || (k < flushed_at && got == before_put.at(key)))
          << "boundary " << k << " key " << key << " after a pass: " << got;
    }
  }
}

// Supersessions charged to a segment after its last merged batch (every
// one, for a cleaner segment) are counted in DRAM only; recovery recounts
// them against the recovered indexes. A cleaner segment mostly dead at the
// crash is cleaned after it.
TEST(LogCleanerCrashTest, DeadCleanerSegmentIsCleanedAfterRecovery) {
  dpm::DpmOptions opt = CleanerDpm(/*crash_sim=*/true);
  opt.pool_size = 8 * kMiB;
  auto node = std::make_unique<dpm::DpmNode>(opt);
  constexpr uint64_t kOwner = 0x105;
  WriteSealedSegment(node.get(), kOwner, KeyRange(0, 60), 0);
  WriteSealedSegment(node.get(), kOwner, KeyRange(0, 30), 1);  // 50% dead
  ASSERT_GT(node->CleanPass(), 0.0);  // keys 30-59 move to a cleaner segment
  const dpm::ValuePtr moved = IndexedPtr(node.get(), Key(59));
  // 26 of the 30 moved keys are overwritten: the cleaner segment is 87%
  // dead.
  WriteSealedSegment(node.get(), kOwner, KeyRange(30, 26), 2);

  auto pool = std::move(*node).DetachPool();
  node.reset();
  ASSERT_TRUE(pool->SimulateCrash().ok());
  obs::MetricsRegistry reg;  // counts the recovered node's passes only
  opt.metrics = &reg;
  auto recovered = dpm::DpmNode::Recover(opt, std::move(pool));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  dpm::DpmNode* r = recovered.value().get();
  ASSERT_EQ(IndexedPtr(r, Key(59)).raw(), moved.raw());
  while (r->CleanPass() > 0.0) {
  }
  EXPECT_EQ(r->Stats().clean_victims, 1u);
  EXPECT_EQ(r->Stats().clean_relocated, 4u);
  EXPECT_NE(IndexedPtr(r, Key(59)).raw(), moved.raw());
  for (int i = 0; i < 60; ++i) {
    const int version = i < 30 ? 1 : i < 56 ? 2 : 0;
    for (bool ordered : {false, true}) {
      EXPECT_EQ(IndexedValue(r, Key(i), ordered), Value(Key(i), version));
    }
  }
}

// ----- Replication: the primary dies mid-clean ---------------------------

TEST(LogCleanerReplicationTest, PromotedMirrorServesEveryAckedKey) {
  obs::MetricsRegistry reg;
  dpm::DpmPoolOptions popt;
  popt.nodes = 3;
  popt.replication_factor = 2;
  popt.dpm = CleanerDpm();
  popt.dpm.metrics = &reg;
  dpm::DpmPool pool(popt);
  kn::KnOptions kno;
  kno.kn_id = 1;
  kno.fabric_node = 1;
  kno.cache_bytes = 1 * kMiB;
  kno.batch_max_ops = 8;
  kno.metrics = &reg;
  kn::KnWorker worker(kno, 0, &pool);
  for (int n = 0; n < pool.num_nodes(); ++n) {
    pool.node(n)->merge()->SetMergeCallback(
        [&worker](const dpm::MergeAck& ack) {
          if (ack.owner == worker.log_owner()) {
            worker.OnOwnerBatchMerged(ack.node, ack.base);
          }
        });
  }
  std::map<std::string, std::string> acked;
  auto put = [&](const std::string& k, const std::string& v) {
    PutRetry(&pool, &worker, k, v);
    acked[k] = v;
  };
  for (int c = 0; c < 40; ++c) put(ColdKey(c), Value(ColdKey(c), 0));
  for (int r = 0; r < 6; ++r) {
    for (int h = 0; h < kHotKeys; ++h) put(Key(h), Value(Key(h), r));
  }
  ASSERT_TRUE(worker.FlushWrites().status.ok());
  for (int c = 0; c < 40; ++c) {  // cache pointers into the victims
    ASSERT_TRUE(worker.Get(ColdKey(c)).status.ok());
  }

  // The primary of most keys cleans on its DPM thread, and is killed as
  // soon as a pass is queued or running there. Every other node has
  // already cleaned, so its pointers differ from the primary's.
  const int primary = pool.PlacementOf(kn::KeyHash(Slice(ColdKey(0)))).primary;
  for (int n = 0; n < pool.num_nodes(); ++n) {
    if (n == primary) continue;
    ASSERT_TRUE(pool.node(n)->merge()->DrainAll().ok());
  }
  dpm::MergeService* merge = pool.node(primary)->merge();
  merge->StartThreads(1);
  ASSERT_TRUE(merge->DrainOwner(worker.log_owner()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (merge->PendingBatches(dpm::kCleanerOwner) == 0 &&
         pool.node(primary)->Stats().clean_victims == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(pool.KillNode(primary).ok());
  merge->StopThreads();

  for (int n = 0; n < pool.num_nodes(); ++n) {
    if (n == primary) continue;
    EXPECT_GT(pool.node(n)->Stats().clean_victims, 0u) << "node " << n;
  }
  for (const auto& [key, value] : acked) {
    auto got = worker.Get(key);
    ASSERT_TRUE(got.status.ok()) << key << ": " << got.status.ToString();
    EXPECT_EQ(got.value, value) << key;
  }
  std::vector<kn::ScanRow> rows;
  ASSERT_TRUE(worker.Scan(Slice(ColdKey(0)), 40, &rows).status.ok());
  ASSERT_EQ(rows.size(), 40u);
  for (int c = 0; c < 40; ++c) EXPECT_EQ(rows[c].value, Value(ColdKey(c), 0));

  // Re-replication copies each surviving primary's current entries, read
  // through the validate-and-re-resolve rule.
  auto repair = pool.ReReplicate();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  for (const auto& [key, value] : acked) {
    const auto pl = pool.PlacementOf(kn::KeyHash(Slice(key)));
    ASSERT_GE(pl.mirror, 0);
    EXPECT_EQ(IndexedValue(pool.node(pl.primary), key), value) << key;
    EXPECT_EQ(IndexedValue(pool.node(pl.mirror), key), value) << key;
  }
}

// ----- Soaks: ten pools of updates to a fixed key set --------------------

constexpr size_t kSoakPool = 4 * kMiB;
constexpr size_t kSoakSegment = 32 * 1024;
constexpr int kSoakKeys = 64;
constexpr size_t kSoakValue = 1024;

TEST(LogCleanerSoakTest, ClusterOverwritesTenPools) {
  obs::MetricsRegistry reg;
  ClusterOptions opt;
  opt.dpm.pool_size = kSoakPool;
  opt.dpm.index_log2_buckets = 6;
  opt.dpm.segment_size = kSoakSegment;
  opt.dpm.metrics = &reg;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 256 * 1024;
  opt.kn.metrics = &reg;
  opt.initial_kns = 1;
  opt.dpm_merge_threads = 1;
  opt.start_mnode = false;
  Cluster cluster(opt);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();

  const uint64_t updates = 10 * kSoakPool / kSoakValue;
  std::vector<uint64_t> version(kSoakKeys, 0);
  auto value_of = [](int k, uint64_t v) {
    std::string s = "k" + std::to_string(k) + "v" + std::to_string(v) + ":";
    s.resize(kSoakValue, '#');
    return s;
  };
  for (uint64_t u = 0; u < updates; ++u) {
    const int k = static_cast<int>((u * 7 + u / kSoakKeys) % kSoakKeys);
    version[k] = u + 1;
    Status st = client->Put(Key(k), value_of(k, version[k]));
    ASSERT_TRUE(st.ok()) << "update " << u << ": " << st.ToString();
    if (u % 97 == 0) {
      auto got = client->Get(Key(k));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value(), value_of(k, version[k]));
    }
  }
  for (int k = 0; k < kSoakKeys; ++k) {
    if (version[k] == 0) continue;
    auto got = client->Get(Key(k));
    ASSERT_TRUE(got.ok()) << Key(k) << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value_of(k, version[k]));
  }
  cluster.Stop();
  EXPECT_GT(reg.CounterValue("dpm.segments_gced"), 0u);
  EXPECT_GT(reg.CounterValue("dpm.clean.victims"), 0u);
}

TEST(LogCleanerSoakTest, SimOverwritesTenPools) {
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions opt;
  opt.num_kns = 1;
  opt.dpm.pool_size = kSoakPool;
  opt.dpm.index_log2_buckets = 6;
  opt.dpm.segment_size = kSoakSegment;
  opt.dpm.metrics = &reg;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 256 * 1024;
  opt.kn.metrics = &reg;
  opt.dpm_threads = 2;
  opt.client_threads = 4;
  opt.metrics = &reg;
  opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(kSoakKeys, 0.99);
  opt.spec.read_proportion = 0.1;
  opt.spec.update_proportion = 0.9;
  opt.spec.value_size = kSoakValue;
  sim::DinomoSim sim(opt);
  sim.Preload();
  // The sim completes a failed write like any other op, so OutOfMemory
  // shows as the log ceasing to grow (a worker with no segment cannot
  // submit a batch) or as the pool running out of room for one more
  // segment: check both after every window.
  const pm::PmAllocator* alloc = sim.dpm()->allocator();
  const uint64_t want = 10 * kSoakPool / kSoakValue;
  while (reg.CounterValue("dpm.log.puts") < want) {
    const uint64_t before = reg.CounterValue("dpm.log.puts");
    sim.Run(/*duration_us=*/50e3);
    ASSERT_GT(reg.CounterValue("dpm.log.puts"), before) << "no progress";
    ASSERT_LE(alloc->allocated_bytes() + 4 * kSoakSegment,
              alloc->region_size());
  }
  sim.DrainLogs();
  ASSERT_TRUE(sim.dpm()->merge()->DrainAll().ok());
  EXPECT_EQ(reg.CounterValue("fault.hung_requests"), 0u);
  EXPECT_GT(reg.CounterValue("dpm.segments_gced"), 0u);
  EXPECT_GT(reg.CounterValue("dpm.clean.victims"), 0u);
  // Every key still resolves, through both indexes, to a value the sim
  // wrote: the preload's, or the workload's updates.
  const std::string preloaded(kSoakValue, 'p');
  const std::string updated(kSoakValue, 'v');
  for (uint64_t r = 0; r < kSoakKeys; ++r) {
    const std::string key = workload::KeyForRecord(r);
    for (bool ordered : {false, true}) {
      const std::string got = IndexedValue(sim.dpm(), key, ordered);
      EXPECT_TRUE(got == preloaded || got == updated)
          << "record " << r << (ordered ? " (skiplist)" : "") << ": "
          << got.substr(0, 16);
    }
  }
}

}  // namespace
}  // namespace dinomo
