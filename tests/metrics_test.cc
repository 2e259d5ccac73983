#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "cache/dac.h"
#include "net/fabric.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace obs {
namespace {

constexpr size_t kMiB = 1024 * 1024;

TEST(JsonTest, DumpAndParseRoundTrip) {
  Json root = Json::Object();
  root.Set("string", "va\"lue\n");
  root.Set("int", 42);
  root.Set("big", uint64_t{1} << 53);
  root.Set("float", 0.125);
  root.Set("flag", true);
  root.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Append(1).Append(2.5).Append("three");
  root.Set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    Json parsed;
    std::string err;
    ASSERT_TRUE(Json::Parse(root.Dump(indent), &parsed, &err)) << err;
    EXPECT_EQ(parsed.Find("string")->AsString(), "va\"lue\n");
    EXPECT_EQ(parsed.Find("int")->AsUint64(), 42u);
    EXPECT_EQ(parsed.Find("big")->AsUint64(), uint64_t{1} << 53);
    EXPECT_EQ(parsed.Find("float")->AsDouble(), 0.125);
    EXPECT_TRUE(parsed.Find("flag")->AsBool());
    EXPECT_TRUE(parsed.Find("nothing")->is_null());
    ASSERT_EQ(parsed.Find("arr")->size(), 3u);
    EXPECT_EQ(parsed.Find("arr")->at(2).AsString(), "three");
  }
}

TEST(JsonTest, EscapesHostileStrings) {
  // Control characters and non-ASCII bytes in keys or values (hostile key
  // names flowing into bench reports) must produce pure-ASCII output that
  // any strict JSON parser accepts.
  const std::string hostile = "a\x01" "b\x1f\x7f\b\f\xc3\xa9\xff";
  Json root = Json::Object();
  root.Set(hostile, hostile);
  const std::string dumped = root.Dump();
  for (char c : dumped) {
    const auto uc = static_cast<unsigned char>(c);
    EXPECT_GE(uc, 0x20u);
    EXPECT_LT(uc, 0x7fu);
  }
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
  EXPECT_NE(dumped.find("\\u007f"), std::string::npos);
  EXPECT_NE(dumped.find("\\b"), std::string::npos);
  EXPECT_NE(dumped.find("\\f"), std::string::npos);
  EXPECT_NE(dumped.find("\\u00c3"), std::string::npos);
  EXPECT_NE(dumped.find("\\u00ff"), std::string::npos);

  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::Parse(dumped, &parsed, &err)) << err;
  ASSERT_EQ(parsed.members().size(), 1u);
  // ASCII control bytes round-trip exactly; bytes >= 0x80 are escaped as
  // Latin-1 code points and come back UTF-8 encoded, so only check the
  // ASCII prefix byte-for-byte.
  const std::string ascii_prefix = "a\x01" "b\x1f\x7f\b\f";
  const std::string& key = parsed.members()[0].first;
  EXPECT_EQ(key.compare(0, ascii_prefix.size(), ascii_prefix), 0);
  EXPECT_EQ(parsed.members()[0].second.AsString().compare(
                0, ascii_prefix.size(), ascii_prefix),
            0);
}

TEST(JsonTest, RejectsMalformedInput) {
  Json out;
  EXPECT_FALSE(Json::Parse("{", &out));
  EXPECT_FALSE(Json::Parse("{\"a\":}", &out));
  EXPECT_FALSE(Json::Parse("[1,]", &out));
  EXPECT_FALSE(Json::Parse("tru", &out));
  EXPECT_FALSE(Json::Parse("{} trailing", &out));
}

TEST(MetricsTest, RegistrationAndLookup) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("kn.kn1.ops");
  c.Inc(3);
  EXPECT_TRUE(reg.Has("kn.kn1.ops"));
  EXPECT_FALSE(reg.Has("kn.kn2.ops"));
  EXPECT_EQ(reg.CounterValue("kn.kn1.ops"), 3u);
  // Get-or-create returns the same counter.
  reg.GetCounter("kn.kn1.ops").Inc();
  EXPECT_EQ(c.value(), 4u);

  reg.GetGauge("sim.util").Set(0.5);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("sim.util"), 0.5);
}

TEST(MetricsTest, DuplicateNamesAggregateInSnapshot) {
  MetricsRegistry reg;
  Counter a;
  Counter b;
  a.Inc(10);
  b.Inc(5);
  reg.RegisterCounter("cache.misses", &a);
  reg.RegisterCounter("cache.misses", &b);
  EXPECT_EQ(reg.CounterValue("cache.misses"), 15u);
  EXPECT_EQ(reg.Snapshot().counters.at("cache.misses"), 15u);
  reg.Unregister(&a);
  reg.Unregister(&b);
}

TEST(MetricsTest, ConcurrentCounterIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("stress.ops");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, SnapshotDelta) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("dpm.log.batches");
  c.Inc(100);
  MetricsSnapshot before = reg.Snapshot();
  c.Inc(40);
  MetricsSnapshot after = reg.Snapshot();
  EXPECT_EQ(after.DeltaSince(before).counters.at("dpm.log.batches"), 40u);
}

TEST(MetricsTest, UnregisterRetiresFinalValues) {
  MetricsRegistry reg;
  {
    MetricGroup group(Scope("cache.kn1", &reg));
    group.counter("misses").Inc(12);
    group.histogram("lat").Record(5.0);
    EXPECT_EQ(reg.CounterValue("cache.kn1.misses"), 12u);
  }
  // The component died, but process-lifetime totals survive.
  EXPECT_EQ(reg.CounterValue("cache.kn1.misses"), 12u);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("cache.kn1.misses"), 12u);
  EXPECT_EQ(snap.histograms.at("cache.kn1.lat").count, 1u);

  // A second instance under the same name accumulates on top.
  {
    MetricGroup group(Scope("cache.kn1", &reg));
    group.counter("misses").Inc(3);
  }
  EXPECT_EQ(reg.CounterValue("cache.kn1.misses"), 15u);
}

TEST(MetricsTest, HistogramSnapshotAndJsonRoundTrip) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.GetHistogram("kn.op_latency_us");
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  reg.GetCounter("fabric.node1.round_trips").Inc(77);
  reg.GetGauge("sim.link.utilization").Set(0.25);

  MetricsSnapshot snap = reg.Snapshot();
  const HistogramStats& hs = snap.histograms.at("kn.op_latency_us");
  EXPECT_EQ(hs.count, 1000u);
  EXPECT_DOUBLE_EQ(hs.min, 1.0);
  EXPECT_DOUBLE_EQ(hs.max, 1000.0);
  EXPECT_NEAR(hs.p50, 500.0, 25.0);
  EXPECT_NEAR(hs.p99, 990.0, 25.0);

  MetricsSnapshot parsed;
  ASSERT_TRUE(
      MetricsSnapshot::FromJsonString(snap.ToJsonString(), &parsed));
  EXPECT_EQ(parsed.counters.at("fabric.node1.round_trips"), 77u);
  EXPECT_DOUBLE_EQ(parsed.gauges.at("sim.link.utilization"), 0.25);
  const HistogramStats& ps = parsed.histograms.at("kn.op_latency_us");
  EXPECT_EQ(ps.count, hs.count);
  EXPECT_DOUBLE_EQ(ps.sum, hs.sum);
  EXPECT_DOUBLE_EQ(ps.p50, hs.p50);
  EXPECT_DOUBLE_EQ(ps.p99, hs.p99);
  EXPECT_DOUBLE_EQ(ps.p999, hs.p999);
}

TEST(MetricsTest, CsvExportListsEveryKind) {
  MetricsRegistry reg;
  reg.GetCounter("a.ops").Inc(2);
  reg.GetGauge("b.util").Set(0.75);
  reg.GetHistogram("c.lat").Record(1.0);
  const std::string csv = reg.Snapshot().ToCsv();
  EXPECT_NE(csv.find("counter,a.ops,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b.util,0.75"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.lat.count,1"), std::string::npos);
}

TEST(MetricsTest, MacrosCacheTheLookup) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t before = reg.CounterValue("test.macro.hits");
  for (int i = 0; i < 10; ++i) {
    DINOMO_COUNTER_INC("test.macro.hits", 1);
  }
  EXPECT_EQ(reg.CounterValue("test.macro.hits"), before + 10);
}

// The acceptance checks of the instrumentation: per-node fabric traffic
// and cache hit/miss statistics are readable straight from a registry.

TEST(MetricsTest, FabricPublishesPerNodeTraffic) {
  MetricsRegistry reg;
  pm::PmPool pool(4 * kMiB);
  {
    net::Fabric fabric(&pool, net::LinkProfile{}, &reg);
    char buf[64] = {};
    ASSERT_TRUE(fabric.Read(1, 64, buf, 64).ok());
    ASSERT_TRUE(fabric.Write(1, buf, 128, 64).ok());
    ASSERT_TRUE(fabric.Read(3, 64, buf, 32).ok());

    EXPECT_EQ(reg.CounterValue("fabric.node1.round_trips"), 2u);
    EXPECT_EQ(reg.CounterValue("fabric.node1.wire_bytes"), 128u);
    EXPECT_EQ(reg.CounterValue("fabric.node1.one_sided_reads"), 1u);
    EXPECT_EQ(reg.CounterValue("fabric.node1.one_sided_writes"), 1u);
    EXPECT_EQ(reg.CounterValue("fabric.node3.round_trips"), 1u);
    // Untouched nodes are not registered at all.
    EXPECT_FALSE(reg.Has("fabric.node2.round_trips"));
  }
  // Totals survive the fabric's destruction.
  EXPECT_EQ(reg.CounterValue("fabric.node1.round_trips"), 2u);
}

TEST(MetricsTest, CachePublishesHitsAndMisses) {
  MetricsRegistry reg;
  cache::DacCache cache(1 * kMiB, Scope("cache.kn7.w0", &reg));
  const std::string value(128, 'v');
  cache.AdmitOnMiss(1, value, dpm::ValuePtr::Pack(64, 128), 2);
  EXPECT_NE(cache.Lookup(1).kind, cache::HitKind::kMiss);
  EXPECT_EQ(cache.Lookup(999).kind, cache::HitKind::kMiss);

  EXPECT_EQ(reg.CounterValue("cache.kn7.w0.misses"), 1u);
  EXPECT_EQ(reg.CounterValue("cache.kn7.w0.value_hits") +
                reg.CounterValue("cache.kn7.w0.shortcut_hits"),
            1u);
  // The component's own stats() view agrees with the registry.
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace dinomo
