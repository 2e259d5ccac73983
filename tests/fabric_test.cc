#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "net/fault.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace net {
namespace {

constexpr size_t kMiB = 1024 * 1024;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : pool_(4 * kMiB), fabric_(&pool_) {}

  pm::PmPool pool_;
  Fabric fabric_;
};

TEST_F(FabricTest, OneSidedWriteThenRead) {
  const char msg[] = "hello dpm";
  ASSERT_TRUE(fabric_.Write(/*node=*/0, msg, /*dst=*/256, sizeof(msg)).ok());
  char buf[16] = {};
  ASSERT_TRUE(fabric_.Read(0, 256, buf, sizeof(msg)).ok());
  EXPECT_STREQ(buf, "hello dpm");
}

TEST_F(FabricTest, ChargesOneRoundTripPerOp) {
  char buf[64] = {};
  ASSERT_TRUE(fabric_.Read(1, 64, buf, 64).ok());
  ASSERT_TRUE(fabric_.Write(1, buf, 128, 64).ok());
  EXPECT_EQ(fabric_.counters(1).round_trips, 2u);
  EXPECT_EQ(fabric_.counters(1).wire_bytes, 128u);
  EXPECT_EQ(fabric_.counters(1).one_sided_reads, 1u);
  EXPECT_EQ(fabric_.counters(1).one_sided_writes, 1u);
}

TEST_F(FabricTest, PerNodeCountersAreIndependent) {
  char buf[8] = {};
  ASSERT_TRUE(fabric_.Read(2, 64, buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(3, 64, buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(3, 64, buf, 8).ok());
  EXPECT_EQ(fabric_.counters(2).round_trips, 1u);
  EXPECT_EQ(fabric_.counters(3).round_trips, 2u);
  EXPECT_EQ(fabric_.TotalRoundTrips(), 3u);
}

TEST_F(FabricTest, OpCostAccumulatesWithinScope) {
  OpCost cost;
  {
    ScopedOpCost scope(&cost);
    char buf[32] = {};
    ASSERT_TRUE(fabric_.Read(0, 64, buf, 32).ok());
    ASSERT_TRUE(fabric_.Read(0, 128, buf, 32).ok());
  }
  EXPECT_EQ(cost.round_trips, 2u);
  EXPECT_EQ(cost.wire_bytes, 64u);

  // Outside the scope, fabric calls no longer charge this accumulator.
  char buf[8] = {};
  ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  EXPECT_EQ(cost.round_trips, 2u);
}

TEST_F(FabricTest, ScopedOpCostNests) {
  OpCost outer, inner;
  ScopedOpCost outer_scope(&outer);
  char buf[8] = {};
  ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  {
    ScopedOpCost inner_scope(&inner);
    ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  }
  ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  // The inner scope keeps its own totals and folds them into the outer
  // accumulator exactly once on exit, so the outer scope's cost covers
  // everything charged while it was open.
  EXPECT_EQ(inner.round_trips, 1u);
  EXPECT_EQ(inner.wire_bytes, 8u);
  EXPECT_EQ(outer.round_trips, 3u);
  EXPECT_EQ(outer.wire_bytes, 24u);
}

TEST_F(FabricTest, ScopedOpCostSamePointerReentry) {
  OpCost cost;
  ScopedOpCost outer_scope(&cost);
  char buf[8] = {};
  ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  {
    // Re-installing the active accumulator must not wipe what it already
    // holds, nor fold it into itself on exit (double counting).
    ScopedOpCost inner_scope(&cost);
    ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  }
  ASSERT_TRUE(fabric_.Read(0, 64, buf, 8).ok());
  EXPECT_EQ(cost.round_trips, 3u);
  EXPECT_EQ(cost.wire_bytes, 24u);
}

TEST_F(FabricTest, CasSucceedsOnExpectedValue) {
  const pm::PmPtr addr = 512;
  ASSERT_TRUE(fabric_.AtomicWrite64(0, addr, 10).ok());
  EXPECT_TRUE(*fabric_.CompareAndSwap64(0, addr, 10, 20));
  EXPECT_EQ(*fabric_.AtomicRead64(0, addr), 20u);
  // A failed compare is a value (false), not an error.
  const Result<bool> lost = fabric_.CompareAndSwap64(0, addr, 10, 30);
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  EXPECT_EQ(*fabric_.AtomicRead64(0, addr), 20u);
}

TEST_F(FabricTest, ConcurrentCasIsLinearizable) {
  // N threads CAS-increment the same counter; every increment must land.
  const pm::PmPtr addr = 1024;
  ASSERT_TRUE(fabric_.AtomicWrite64(0, addr, 0).ok());
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const uint64_t cur = *fabric_.AtomicRead64(t, addr);
          if (*fabric_.CompareAndSwap64(t, addr, cur, cur + 1)) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(*fabric_.AtomicRead64(0, addr),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST_F(FabricTest, RpcChargesDpmCpuAndExtraLatency) {
  OpCost cost;
  {
    ScopedOpCost scope(&cost);
    fabric_.ChargeRpc(0, 100, 200, /*dpm_cpu_us=*/5.0);
  }
  EXPECT_EQ(cost.round_trips, 1u);
  EXPECT_EQ(cost.wire_bytes, 300u);
  EXPECT_DOUBLE_EQ(cost.dpm_cpu_us, 5.0);
  EXPECT_GT(cost.extra_latency_us, 0.0);
  EXPECT_EQ(fabric_.counters(0).rpcs, 1u);
}

TEST_F(FabricTest, LatencyModelComposesRtsAndBytes) {
  LinkProfile profile;
  profile.rt_latency_us = 2.0;
  profile.bandwidth_gbps = 7.0;
  OpCost cost;
  cost.round_trips = 3;
  cost.wire_bytes = 7000;  // 7 KB at 7 GB/s = 1 us
  EXPECT_NEAR(cost.LatencyUs(profile), 3 * 2.0 + 1.0, 1e-9);
}

TEST_F(FabricTest, TransferTimeScalesWithBytes) {
  LinkProfile profile;
  EXPECT_GT(profile.TransferUs(8 * 1024 * 1024), profile.TransferUs(64));
  // An 8 MB segment at 7 GB/s takes ~1.2 ms.
  EXPECT_NEAR(profile.TransferUs(8 * 1024 * 1024), 1198.0, 50.0);
}

// ----- Doorbell batching -----

TEST_F(FabricTest, OpBatchFusesReadsIntoOneRoundTrip) {
  const char a[] = "alpha";
  const char b[] = "bravo";
  const char c[] = "charlie";
  ASSERT_TRUE(fabric_.Write(0, a, 256, sizeof(a)).ok());
  ASSERT_TRUE(fabric_.Write(0, b, 512, sizeof(b)).ok());
  ASSERT_TRUE(fabric_.Write(0, c, 768, sizeof(c)).ok());
  const uint64_t base_rts = fabric_.counters(0).round_trips;
  const uint64_t base_bytes = fabric_.counters(0).wire_bytes;
  const uint64_t base_reads = fabric_.counters(0).one_sided_reads;

  char ra[8] = {}, rb[8] = {}, rc[8] = {};
  OpCost cost;
  {
    ScopedOpCost scope(&cost);
    Fabric::OpBatch batch(&fabric_, 0);
    batch.AddRead(256, ra, sizeof(a));
    batch.AddRead(512, rb, sizeof(b));
    batch.AddRead(768, rc, sizeof(c));
    EXPECT_EQ(batch.size(), 3u);
    ASSERT_TRUE(batch.Execute().ok());
    EXPECT_TRUE(batch.empty());  // cleared for reuse
  }
  // Real data movement per fused op...
  EXPECT_STREQ(ra, "alpha");
  EXPECT_STREQ(rb, "bravo");
  EXPECT_STREQ(rc, "charlie");
  // ...but one fused round trip for the whole doorbell, with every op's
  // wire bytes still paid and every read still counted.
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);
  EXPECT_EQ(fabric_.counters(0).wire_bytes,
            base_bytes + sizeof(a) + sizeof(b) + sizeof(c));
  EXPECT_EQ(fabric_.counters(0).one_sided_reads, base_reads + 3);
  EXPECT_EQ(cost.round_trips, 1u);
  EXPECT_EQ(cost.wire_bytes, sizeof(a) + sizeof(b) + sizeof(c));
}

TEST_F(FabricTest, OpBatchMixesReadsAndWrites) {
  const char payload[] = "persist-me";
  char readback[16] = {};
  ASSERT_TRUE(fabric_.Write(1, payload, 1024, sizeof(payload)).ok());
  const uint64_t base_rts = fabric_.counters(1).round_trips;

  Fabric::OpBatch batch(&fabric_, 1);
  batch.AddWrite(payload, 2048, sizeof(payload));
  batch.AddRead(1024, readback, sizeof(payload));
  ASSERT_TRUE(batch.Execute().ok());

  EXPECT_STREQ(readback, "persist-me");
  char verify[16] = {};
  ASSERT_TRUE(fabric_.Read(1, 2048, verify, sizeof(payload)).ok());
  EXPECT_STREQ(verify, "persist-me");
  // The fused pair cost 1 RT; the verification read added 1 more.
  EXPECT_EQ(fabric_.counters(1).round_trips, base_rts + 2);
}

TEST_F(FabricTest, OpBatchOfOneDegeneratesToPlainOp) {
  const char msg[] = "solo";
  ASSERT_TRUE(fabric_.Write(0, msg, 256, sizeof(msg)).ok());
  const uint64_t base_rts = fabric_.counters(0).round_trips;

  char buf[8] = {};
  Fabric::OpBatch batch(&fabric_, 0);
  batch.AddRead(256, buf, sizeof(msg));
  ASSERT_TRUE(batch.Execute().ok());
  EXPECT_STREQ(buf, "solo");
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);
}

TEST_F(FabricTest, OpBatchDroppedReadsZeroFillAndReportUnavailable) {
  const char msg[] = "will-be-dropped";
  ASSERT_TRUE(fabric_.Write(0, msg, 256, sizeof(msg)).ok());
  ASSERT_TRUE(fabric_.Write(0, msg, 512, sizeof(msg)).ok());

  FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/1.0);
  obs::MetricsRegistry reg;
  FaultInjector injector(schedule, &reg);
  fabric_.SetFaultInjector(&injector);

  char ra[16] = {'x'}, rb[16] = {'x'};
  Status fate_a, fate_b;
  const uint64_t base_rts = fabric_.counters(0).round_trips;
  Fabric::OpBatch batch(&fabric_, 0);
  batch.AddRead(256, ra, sizeof(msg), &fate_a);
  batch.AddRead(512, rb, sizeof(msg), &fate_b);
  const Status st = batch.Execute();
  fabric_.SetFaultInjector(nullptr);

  // Dropped fused reads zero-fill (no stale/partial data reaches the
  // caller), each reports its own Unavailable, and the doorbell itself is
  // still one charged round trip.
  EXPECT_EQ(ra[0], 0);
  EXPECT_EQ(rb[0], 0);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(fate_a.IsUnavailable());
  EXPECT_TRUE(fate_b.IsUnavailable());
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);
}

TEST_F(FabricTest, EveryOneSidedOpReturnsItsOwnDrop) {
  const pm::PmPtr addr = 512;
  const char payload[8] = {'p', 'a', 'y', 'l', 'o', 'a', 'd', 0};
  char buf[8] = {'x'};
  // Fault-free, every op completes Ok.
  ASSERT_TRUE(fabric_.Write(0, payload, addr, sizeof(payload)).ok());
  ASSERT_TRUE(fabric_.WritePublish(0, payload, addr, sizeof(payload)).ok());
  ASSERT_TRUE(fabric_.Read(0, addr, buf, sizeof(buf)).ok());
  ASSERT_TRUE(fabric_.AtomicWrite64(0, addr + 64, 7).ok());
  ASSERT_TRUE(fabric_.AtomicRead64(0, addr + 64).ok());
  ASSERT_TRUE(fabric_.CompareAndSwap64(0, addr + 64, 7, 8).ok());

  FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/1.0);
  obs::MetricsRegistry reg;
  FaultInjector injector(schedule, &reg);
  fabric_.SetFaultInjector(&injector);
  const char other[8] = {'o', 't', 'h', 'e', 'r', 0, 0, 0};
  const uint64_t base_rts = fabric_.counters(0).round_trips;
  OpCost cost;
  {
    ScopedOpCost scope(&cost);
    EXPECT_TRUE(fabric_.Write(0, other, addr, sizeof(other)).IsUnavailable());
    EXPECT_TRUE(
        fabric_.WritePublish(0, other, addr, sizeof(other)).IsUnavailable());
    EXPECT_TRUE(fabric_.Read(0, addr, buf, sizeof(buf)).IsUnavailable());
    EXPECT_TRUE(fabric_.AtomicWrite64(0, addr + 64, 9).IsUnavailable());
    EXPECT_TRUE(fabric_.AtomicRead64(0, addr + 64).status().IsUnavailable());
    EXPECT_TRUE(fabric_.CompareAndSwap64(0, addr + 64, 8, 9)
                    .status()
                    .IsUnavailable());
  }
  fabric_.SetFaultInjector(nullptr);

  // Each dropped op still paid its round trip, and none moved data: the
  // read zero-filled its buffer, the writes and the CAS landed nothing.
  EXPECT_EQ(cost.round_trips, 6u);
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 6);
  EXPECT_EQ(std::string(buf, sizeof(buf)), std::string(8, '\0'));
  char after[8] = {};
  ASSERT_TRUE(fabric_.Read(0, addr, after, sizeof(after)).ok());
  EXPECT_STREQ(after, "payload");
  EXPECT_EQ(*fabric_.AtomicRead64(0, addr + 64), 8u);
}

TEST_F(FabricTest, OpBatchReportsEachFusedOpsFate) {
  // A seeded schedule drops some fused ops and not others; every reported
  // fate must match what happened to that op's bytes.
  constexpr int kOps = 24;
  constexpr size_t kLen = 16;
  std::vector<std::string> src(kOps);
  for (int i = 0; i < kOps; ++i) {
    src[i] = std::string(kLen - 1, static_cast<char>('a' + i));
    ASSERT_TRUE(
        fabric_.Write(0, src[i].c_str(), 4096 + i * 64, kLen).ok());
  }
  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.Drop(/*node=*/-1, /*probability=*/0.4);
  obs::MetricsRegistry reg;
  FaultInjector injector(schedule, &reg);
  fabric_.SetFaultInjector(&injector);

  // Even ops read a written line; odd ops overwrite a zeroed line.
  std::vector<std::string> dst(kOps, std::string(kLen, 'x'));
  std::vector<Status> fates(kOps, Status::Aborted("not executed"));
  const uint64_t base_rts = fabric_.counters(0).round_trips;
  Fabric::OpBatch batch(&fabric_, 0);
  for (int i = 0; i < kOps; ++i) {
    if (i % 2 == 0) {
      batch.AddRead(4096 + i * 64, dst[i].data(), kLen, &fates[i]);
    } else {
      batch.AddWrite(src[i - 1].c_str(), 8192 + i * 64, kLen, &fates[i]);
    }
  }
  const Status st = batch.Execute();
  fabric_.SetFaultInjector(nullptr);
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);

  int dropped = 0;
  Status first_failure;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(fates[i].ok() || fates[i].IsUnavailable())
        << i << ": " << fates[i].ToString();
    if (!fates[i].ok()) {
      ++dropped;
      if (first_failure.ok()) first_failure = fates[i];
    }
    if (i % 2 == 0) {
      // A landed read holds the line; a dropped one is all zeroes.
      const std::string want = fates[i].ok()
                                   ? std::string(src[i].c_str(), kLen)
                                   : std::string(kLen, '\0');
      EXPECT_EQ(dst[i], want) << "read " << i;
    } else {
      // A landed write changed the remote line; a dropped one did not.
      char remote[kLen] = {};
      ASSERT_TRUE(fabric_.Read(0, 8192 + i * 64, remote, kLen).ok());
      const std::string want = fates[i].ok()
                                   ? std::string(src[i - 1].c_str(), kLen)
                                   : std::string(kLen, '\0');
      EXPECT_EQ(std::string(remote, kLen), want) << "write " << i;
    }
  }
  // The schedule exercised both outcomes, and Execute returned the first
  // failed op's status.
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, kOps);
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(st, first_failure);
}

TEST_F(FabricTest, ReadsOutsideThePoolReturnCorruption) {
  // Read addresses come from PM bytes (bucket links, skiplist links, value
  // pointers): one past the pool is an error, not an abort.
  const pm::PmPtr past = pool_.capacity() + 64;
  char buf[16] = {'x'};
  Status st = fabric_.Read(0, past, buf, sizeof(buf));
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(buf[0], 0);  // a failed read zero-fills
  st = fabric_.Read(0, pool_.capacity() - 8, buf, sizeof(buf));  // straddles
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_TRUE(fabric_.AtomicRead64(0, past).status().IsCorruption());
  EXPECT_TRUE(fabric_.AtomicRead64(0, 4).status().IsCorruption());  // unaligned

  const char msg[] = "in-pool";
  ASSERT_TRUE(fabric_.Write(0, msg, 256, sizeof(msg)).ok());
  char good[8] = {}, bad[8] = {'x'};
  Status fate_good, fate_bad;
  Fabric::OpBatch batch(&fabric_, 0);
  batch.AddRead(256, good, sizeof(msg), &fate_good);
  batch.AddRead(past, bad, sizeof(bad), &fate_bad);
  st = batch.Execute();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_TRUE(fate_good.ok());
  EXPECT_STREQ(good, "in-pool");
  EXPECT_TRUE(fate_bad.IsCorruption());
  EXPECT_EQ(bad[0], 0);
}

}  // namespace
}  // namespace net
}  // namespace dinomo
