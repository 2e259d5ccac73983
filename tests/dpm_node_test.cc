#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/hash.h"
#include "dpm/dpm_node.h"
#include "dpm/log.h"

namespace dinomo {
namespace dpm {
namespace {

constexpr size_t kMiB = 1024 * 1024;

DpmOptions SmallOptions() {
  DpmOptions opt;
  opt.pool_size = 64 * kMiB;
  opt.index_log2_buckets = 6;
  opt.segment_size = 256 * 1024;
  return opt;
}

// Writes a batch the way a KN would: build locally, one one-sided write,
// then submit for merging.
struct TestWriter {
  DpmNode* dpm;
  int node;
  uint64_t owner;
  pm::PmPtr segment = pm::kNullPmPtr;
  size_t seg_used = 0;
  uint64_t seq = 0;

  pm::PmPtr WriteBatch(const LogBuilder& batch) {
    const size_t header = 64;
    const size_t cap = dpm->options().segment_size - header;
    if (segment == pm::kNullPmPtr || seg_used + batch.bytes() > cap) {
      if (segment != pm::kNullPmPtr) {
        EXPECT_TRUE(dpm->SealSegment(node, owner, segment).ok());
      }
      auto seg = dpm->AllocateSegment(node, owner);
      EXPECT_TRUE(seg.ok());
      segment = seg.value();
      seg_used = 0;
    }
    const pm::PmPtr dst = segment + header + seg_used;
    EXPECT_TRUE(
        dpm->fabric()->Write(node, batch.data(), dst, batch.bytes()).ok());
    auto sub = dpm->SubmitBatch(node, owner, segment, dst, batch.bytes(),
                                batch.puts());
    EXPECT_TRUE(sub.ok());
    seg_used += batch.bytes();
    return dst;
  }

  void Put(const std::string& key, const std::string& value) {
    LogBuilder b;
    b.AddPut(++seq, HashSlice(key), key, value);
    WriteBatch(b);
  }

  void Delete(const std::string& key) {
    LogBuilder b;
    b.AddDelete(++seq, HashSlice(key), key);
    WriteBatch(b);
  }
};

TEST(DpmNodeTest, WriteMergeLookupRoundTrip) {
  DpmNode dpm(SmallOptions());
  TestWriter w{&dpm, 0, 1};
  w.Put("alpha", "value-alpha");
  EXPECT_EQ(dpm.merge()->TotalPendingBatches(), 1u);
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());

  const uint64_t kh = HashSlice(Slice("alpha"));
  const pm::PmPtr raw = dpm.index()->Lookup(kh);
  ASSERT_NE(raw, pm::kNullPmPtr);
  ValuePtr vp(raw);
  // Read the entry back (as a KN would with one one-sided read) and check.
  std::string buf(vp.entry_size(), '\0');
  ASSERT_TRUE(
      dpm.fabric()->Read(0, vp.offset(), buf.data(), vp.entry_size()).ok());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.key.ToString(), "alpha");
  EXPECT_EQ(rec.value.ToString(), "value-alpha");
}

TEST(DpmNodeTest, MergePreservesPerOwnerOrder) {
  DpmNode dpm(SmallOptions());
  TestWriter w{&dpm, 0, 1};
  // Two updates to the same key in one owner's log: the later one must win.
  w.Put("k", "v1");
  w.Put("k", "v2");
  w.Put("k", "v3");
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());

  const pm::PmPtr raw = dpm.index()->Lookup(HashSlice(Slice("k")));
  ASSERT_NE(raw, pm::kNullPmPtr);
  ValuePtr vp(raw);
  std::string buf(vp.entry_size(), '\0');
  ASSERT_TRUE(
      dpm.fabric()->Read(0, vp.offset(), buf.data(), vp.entry_size()).ok());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.value.ToString(), "v3");
  EXPECT_EQ(rec.seq, 3u);
}

TEST(DpmNodeTest, DeleteRemovesFromIndex) {
  DpmNode dpm(SmallOptions());
  TestWriter w{&dpm, 0, 1};
  w.Put("doomed", "v");
  w.Delete("doomed");
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());
  EXPECT_EQ(dpm.index()->Lookup(HashSlice(Slice("doomed"))), pm::kNullPmPtr);
  EXPECT_EQ(dpm.index()->Count(), 0u);
}

TEST(DpmNodeTest, SubmitValidatesOwnership) {
  DpmNode dpm(SmallOptions());
  auto seg = dpm.AllocateSegment(0, /*owner=*/1);
  ASSERT_TRUE(seg.ok());
  auto r = dpm.SubmitBatch(0, /*owner=*/2, seg.value(), seg.value() + 64,
                           64, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsWrongOwner());
}

TEST(DpmNodeTest, SubmitValidatesBounds) {
  DpmNode dpm(SmallOptions());
  auto seg = dpm.AllocateSegment(0, 1);
  ASSERT_TRUE(seg.ok());
  auto r = dpm.SubmitBatch(0, 1, seg.value(), seg.value() + 64,
                           dpm.options().segment_size, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  auto r2 = dpm.SubmitBatch(0, 1, /*segment=*/12345, 12409, 64, 1);
  EXPECT_FALSE(r2.ok());
}

TEST(DpmNodeTest, SegmentAllocationChargesRpc) {
  DpmNode dpm(SmallOptions());
  auto before = dpm.fabric()->counters(3).rpcs;
  ASSERT_TRUE(dpm.AllocateSegment(3, 1).ok());
  EXPECT_EQ(dpm.fabric()->counters(3).rpcs, before + 1);
}

TEST(DpmNodeTest, UnmergedSegmentTrackingAndDrain) {
  DpmNode dpm(SmallOptions());
  TestWriter w{&dpm, 0, 7};
  w.Put("a", "1");
  EXPECT_EQ(dpm.UnmergedSegments(7), 1);
  ASSERT_TRUE(dpm.DrainOwner(7).ok());
  EXPECT_EQ(dpm.UnmergedSegments(7), 0);
  EXPECT_EQ(dpm.merge()->PendingBatches(7), 0u);
}

TEST(DpmNodeTest, GcReclaimsFullyInvalidSegments) {
  auto opt = SmallOptions();
  opt.segment_size = 8 * 1024;  // tiny segments to force turnover
  DpmNode dpm(opt);
  TestWriter w{&dpm, 0, 1};
  // Repeatedly overwrite a handful of keys with 1 KB values; old segments
  // become fully invalid and must be collected.
  const std::string value(1024, 'x');
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 4; ++k) {
      w.Put("key" + std::to_string(k), value);
    }
  }
  // Seal the final segment so everything is GC-eligible.
  ASSERT_TRUE(dpm.SealSegment(0, 1, w.segment).ok());
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());

  const DpmStats stats = dpm.Stats();
  EXPECT_GT(stats.segments_allocated, 10u);
  EXPECT_GT(stats.segments_gced, stats.segments_allocated / 2);
  // The last segment holds the live values and must NOT have been freed.
  EXPECT_GE(stats.live_segments, 1u);
  // All 4 keys still readable.
  for (int k = 0; k < 4; ++k) {
    EXPECT_NE(dpm.index()->Lookup(HashSlice("key" + std::to_string(k))),
              pm::kNullPmPtr);
  }
}

TEST(DpmNodeTest, ConcurrentOwnersMergeInParallelThreads) {
  auto opt = SmallOptions();
  DpmNode dpm(opt);
  dpm.merge()->StartThreads(2);

  constexpr int kOwners = 4;
  constexpr int kKeysPerOwner = 200;
  std::vector<std::thread> writers;
  for (int o = 1; o <= kOwners; ++o) {
    writers.emplace_back([&dpm, o] {
      TestWriter w{&dpm, o, static_cast<uint64_t>(o)};
      for (int i = 0; i < kKeysPerOwner; ++i) {
        w.Put("owner" + std::to_string(o) + "-key" + std::to_string(i),
              "value" + std::to_string(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());
  dpm.merge()->StopThreads();

  EXPECT_EQ(dpm.index()->Count(),
            static_cast<uint64_t>(kOwners) * kKeysPerOwner);
  for (int o = 1; o <= kOwners; ++o) {
    for (int i = 0; i < kKeysPerOwner; ++i) {
      const std::string key =
          "owner" + std::to_string(o) + "-key" + std::to_string(i);
      ASSERT_NE(dpm.index()->Lookup(HashSlice(key)), pm::kNullPmPtr) << key;
    }
  }
}

TEST(DpmNodeTest, MergeCallbackFires) {
  DpmNode dpm(SmallOptions());
  std::atomic<int> calls{0};
  std::atomic<uint64_t> last_owner{0};
  std::atomic<uint64_t> last_base{0};
  dpm.merge()->SetMergeCallback([&](const MergeAck& ack) {
    calls++;
    last_owner = ack.owner;
    last_base = ack.base;
  });
  TestWriter w{&dpm, 0, 9};
  w.Put("k", "v");
  ASSERT_TRUE(dpm.merge()->DrainAll().ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(last_owner, 9u);
  EXPECT_NE(last_base, 0u);  // the ack names the batch that merged
}

// ----- Indirect pointers (selective replication substrate) -----

class IndirectTest : public ::testing::Test {
 protected:
  IndirectTest() : dpm_(SmallOptions()) {
    TestWriter w{&dpm_, 0, 1};
    w.Put("hot", "version0");
    EXPECT_TRUE(dpm_.merge()->DrainAll().ok());
    key_hash_ = HashSlice(Slice("hot"));
  }

  DpmNode dpm_;
  uint64_t key_hash_;
};

TEST_F(IndirectTest, InstallPointsSlotAtCurrentValue) {
  const pm::PmPtr before = dpm_.index()->Lookup(key_hash_);
  auto slot = dpm_.InstallIndirect(0, key_hash_);
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(dpm_.IsShared(key_hash_));
  EXPECT_EQ(dpm_.SharedSlot(key_hash_), slot.value());

  // Slot holds the pre-share value pointer.
  EXPECT_EQ(*dpm_.fabric()->AtomicRead64(0, slot.value()), before);
  // The index now carries the indirect marker.
  ValuePtr marker(dpm_.index()->Lookup(key_hash_));
  EXPECT_TRUE(marker.indirect());
  EXPECT_EQ(marker.offset(), slot.value());
}

TEST_F(IndirectTest, InstallIsIdempotent) {
  auto a = dpm_.InstallIndirect(0, key_hash_);
  auto b = dpm_.InstallIndirect(1, key_hash_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(IndirectTest, InstallOnMissingKeyFails) {
  auto r = dpm_.InstallIndirect(0, HashSlice(Slice("no-such-key")));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(IndirectTest, SharedWritesViaCasThenRemoveWritesBack) {
  auto slot = dpm_.InstallIndirect(0, key_hash_);
  ASSERT_TRUE(slot.ok());

  // A KN publishes a new version through the slot: write the entry to its
  // log (simulated here by a direct entry write) and CAS the slot.
  TestWriter w{&dpm_, 2, 2};
  LogBuilder b;
  b.AddPut(1, key_hash_, "hot", "version1");
  const pm::PmPtr entry = w.WriteBatch(b);
  const ValuePtr packed =
      ValuePtr::Pack(entry, static_cast<uint32_t>(b.bytes()));
  const Result<uint64_t> old = dpm_.fabric()->AtomicRead64(2, slot.value());
  ASSERT_TRUE(old.ok());
  ASSERT_TRUE(
      *dpm_.fabric()->CompareAndSwap64(2, slot.value(), *old, packed.raw()));

  ASSERT_TRUE(dpm_.merge()->DrainAll().ok());
  // De-replicate: the final slot value lands back in the index.
  ASSERT_TRUE(dpm_.RemoveIndirect(0, key_hash_).ok());
  EXPECT_FALSE(dpm_.IsShared(key_hash_));
  EXPECT_EQ(dpm_.index()->Lookup(key_hash_), packed.raw());

  ValuePtr vp(dpm_.index()->Lookup(key_hash_));
  std::string buf(vp.entry_size(), '\0');
  ASSERT_TRUE(
      dpm_.fabric()->Read(0, vp.offset(), buf.data(), vp.entry_size()).ok());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.value.ToString(), "version1");
}

TEST_F(IndirectTest, RemoveUnknownKeyFails) {
  EXPECT_TRUE(dpm_.RemoveIndirect(0, 999999).IsNotFound());
}

}  // namespace
}  // namespace dpm
}  // namespace dinomo
