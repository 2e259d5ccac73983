#include <gtest/gtest.h>

#include <cstring>
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
  fabric_.Write(/*node=*/0, msg, /*dst=*/256, sizeof(msg));
  char buf[16] = {};
  fabric_.Read(0, 256, buf, sizeof(msg));
  EXPECT_STREQ(buf, "hello dpm");
}

TEST_F(FabricTest, ChargesOneRoundTripPerOp) {
  char buf[64] = {};
  fabric_.Read(1, 64, buf, 64);
  fabric_.Write(1, buf, 128, 64);
  EXPECT_EQ(fabric_.counters(1).round_trips, 2u);
  EXPECT_EQ(fabric_.counters(1).wire_bytes, 128u);
  EXPECT_EQ(fabric_.counters(1).one_sided_reads, 1u);
  EXPECT_EQ(fabric_.counters(1).one_sided_writes, 1u);
}

TEST_F(FabricTest, PerNodeCountersAreIndependent) {
  char buf[8] = {};
  fabric_.Read(2, 64, buf, 8);
  fabric_.Read(3, 64, buf, 8);
  fabric_.Read(3, 64, buf, 8);
  EXPECT_EQ(fabric_.counters(2).round_trips, 1u);
  EXPECT_EQ(fabric_.counters(3).round_trips, 2u);
  EXPECT_EQ(fabric_.TotalRoundTrips(), 3u);
}

TEST_F(FabricTest, OpCostAccumulatesWithinScope) {
  OpCost cost;
  {
    ScopedOpCost scope(&cost);
    char buf[32] = {};
    fabric_.Read(0, 64, buf, 32);
    fabric_.Read(0, 128, buf, 32);
  }
  EXPECT_EQ(cost.round_trips, 2u);
  EXPECT_EQ(cost.wire_bytes, 64u);

  // Outside the scope, fabric calls no longer charge this accumulator.
  char buf[8] = {};
  fabric_.Read(0, 64, buf, 8);
  EXPECT_EQ(cost.round_trips, 2u);
}

TEST_F(FabricTest, ScopedOpCostNests) {
  OpCost outer, inner;
  ScopedOpCost outer_scope(&outer);
  char buf[8] = {};
  fabric_.Read(0, 64, buf, 8);
  {
    ScopedOpCost inner_scope(&inner);
    fabric_.Read(0, 64, buf, 8);
  }
  fabric_.Read(0, 64, buf, 8);
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
  fabric_.Read(0, 64, buf, 8);
  {
    // Re-installing the active accumulator must not wipe what it already
    // holds, nor fold it into itself on exit (double counting).
    ScopedOpCost inner_scope(&cost);
    fabric_.Read(0, 64, buf, 8);
  }
  fabric_.Read(0, 64, buf, 8);
  EXPECT_EQ(cost.round_trips, 3u);
  EXPECT_EQ(cost.wire_bytes, 24u);
}

TEST_F(FabricTest, CasSucceedsOnExpectedValue) {
  const pm::PmPtr addr = 512;
  fabric_.AtomicWrite64(0, addr, 10);
  EXPECT_TRUE(fabric_.CompareAndSwap64(0, addr, 10, 20));
  EXPECT_EQ(fabric_.AtomicRead64(0, addr), 20u);
  EXPECT_FALSE(fabric_.CompareAndSwap64(0, addr, 10, 30));
  EXPECT_EQ(fabric_.AtomicRead64(0, addr), 20u);
}

TEST_F(FabricTest, ConcurrentCasIsLinearizable) {
  // N threads CAS-increment the same counter; every increment must land.
  const pm::PmPtr addr = 1024;
  fabric_.AtomicWrite64(0, addr, 0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const uint64_t cur = fabric_.AtomicRead64(t, addr);
          if (fabric_.CompareAndSwap64(t, addr, cur, cur + 1)) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fabric_.AtomicRead64(0, addr),
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
  fabric_.Write(0, a, 256, sizeof(a));
  fabric_.Write(0, b, 512, sizeof(b));
  fabric_.Write(0, c, 768, sizeof(c));
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
    batch.Execute();
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
  fabric_.Write(1, payload, 1024, sizeof(payload));
  const uint64_t base_rts = fabric_.counters(1).round_trips;

  Fabric::OpBatch batch(&fabric_, 1);
  batch.AddWrite(payload, 2048, sizeof(payload));
  batch.AddRead(1024, readback, sizeof(payload));
  batch.Execute();

  EXPECT_STREQ(readback, "persist-me");
  char verify[16] = {};
  fabric_.Read(1, 2048, verify, sizeof(payload));
  EXPECT_STREQ(verify, "persist-me");
  // The fused pair cost 1 RT; the verification read added 1 more.
  EXPECT_EQ(fabric_.counters(1).round_trips, base_rts + 2);
}

TEST_F(FabricTest, OpBatchOfOneDegeneratesToPlainOp) {
  const char msg[] = "solo";
  fabric_.Write(0, msg, 256, sizeof(msg));
  const uint64_t base_rts = fabric_.counters(0).round_trips;

  char buf[8] = {};
  Fabric::OpBatch batch(&fabric_, 0);
  batch.AddRead(256, buf, sizeof(msg));
  batch.Execute();
  EXPECT_STREQ(buf, "solo");
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);
}

TEST_F(FabricTest, OpBatchDroppedReadZeroFillsAndParksFault) {
  const char msg[] = "will-be-dropped";
  fabric_.Write(0, msg, 256, sizeof(msg));
  fabric_.Write(0, msg, 512, sizeof(msg));
  (void)Fabric::TakePendingFault();  // start clean

  FaultSchedule schedule;
  schedule.Drop(/*node=*/-1, /*probability=*/1.0);
  obs::MetricsRegistry reg;
  FaultInjector injector(schedule, &reg);
  fabric_.SetFaultInjector(&injector);

  char ra[16] = {'x'}, rb[16] = {'x'};
  const uint64_t base_rts = fabric_.counters(0).round_trips;
  Fabric::OpBatch batch(&fabric_, 0);
  batch.AddRead(256, ra, sizeof(msg));
  batch.AddRead(512, rb, sizeof(msg));
  batch.Execute();
  fabric_.SetFaultInjector(nullptr);

  // Dropped fused reads zero-fill (no stale/partial data reaches the
  // caller) and the error is parked for the next safe boundary; the
  // doorbell itself is still one charged round trip.
  EXPECT_EQ(ra[0], 0);
  EXPECT_EQ(rb[0], 0);
  EXPECT_FALSE(Fabric::TakePendingFault().ok());
  EXPECT_TRUE(Fabric::TakePendingFault().ok());  // one-shot
  EXPECT_EQ(fabric_.counters(0).round_trips, base_rts + 1);
}

}  // namespace
}  // namespace net
}  // namespace dinomo
