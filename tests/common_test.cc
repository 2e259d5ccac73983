#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/zipf.h"

namespace dinomo {
namespace {

// ----- Status / Result -----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("k").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IoError().IsIoError());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::OutOfMemory().IsOutOfMemory());
  EXPECT_TRUE(Status::WrongOwner().IsWrongOwner());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessageIncludedInToString) {
  Status s = Status::NotFound("key 42");
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
  EXPECT_EQ(s.message(), "key 42");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----- Slice -----

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_EQ(s[1], 'e');
}

TEST(SliceTest, EqualityAndCompare) {
  EXPECT_EQ(Slice("abc"), Slice(std::string("abc")));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
}

TEST(SliceTest, PrefixOperations) {
  Slice s("hello world");
  EXPECT_TRUE(s.starts_with(Slice("hello")));
  EXPECT_FALSE(s.starts_with(Slice("world")));
  s.remove_prefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(SliceTest, EmbeddedNulBytes) {
  const char raw[] = {'a', '\0', 'b'};
  Slice s(raw, 3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToString(), std::string("a\0b", 3));
}

// ----- Hashing -----

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("abc", 3), Fnv1a64("abc", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
}

TEST(HashTest, SeededHashesDiffer) {
  EXPECT_NE(HashSeeded("abc", 3, 1), HashSeeded("abc", 3, 2));
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, Crc32cKnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(detail::Crc32cPortable("123456789", 9), 0xE3069283u);
  if (detail::Crc32cHardwareAvailable()) {
    EXPECT_EQ(detail::Crc32cHardware("123456789", 9), 0xE3069283u);
  }
}

TEST(HashTest, Crc32cHardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!detail::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 on this CPU";
  }
  // Every start alignment (offsets 0-7) and every split of the hardware
  // path into whole 8-byte words and a 0-7 byte tail.
  constexpr size_t kMaxLen = 4096;
  alignas(8) unsigned char buf[kMaxLen + 8];
  Random rng(7);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf + offset;
      ASSERT_EQ(detail::Crc32cHardware(p, len), detail::Crc32cPortable(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(HashTest, Crc32cDetectsCorruption) {
  std::string data = "some log entry payload";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

// ----- Random -----

TEST(RandomTest, DeterministicWithSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, FullSpanRangeDoesNotDivideByZero) {
  // Regression: Range(0, UINT64_MAX) computed hi - lo + 1 == 0 and fed it
  // to Uniform's modulo — UB. The full span must return every value with
  // no truncation instead.
  Random r(11);
  bool high_bit_seen = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = r.Range(0, UINT64_MAX);
    if (v >> 63) high_bit_seen = true;
  }
  EXPECT_TRUE(high_bit_seen);  // a %-truncated span could never set bit 63
  // Degenerate single-point span still works.
  EXPECT_EQ(r.Range(42, 42), 42u);
  // And a maximal-but-not-full span exercises the lo + Uniform path.
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(r.Range(1, UINT64_MAX), 1u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----- Zipfian -----

TEST(ZipfTest, OutputsInRange) {
  ZipfianGenerator gen(1000, 0.99, 1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(), 1000u);
  }
}

TEST(ZipfTest, HighThetaConcentratesOnHotKeys) {
  ZipfianGenerator gen(100000, 2.0, 1);
  uint64_t rank_lt_10 = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next() < 10) rank_lt_10++;
  }
  // At theta=2, the top handful of keys dominate.
  EXPECT_GT(rank_lt_10, kSamples * 0.9);
}

TEST(ZipfTest, LowThetaIsNearUniform) {
  ZipfianGenerator gen(1000, 0.5, 1);
  uint64_t rank_lt_10 = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next() < 10) rank_lt_10++;
  }
  // Uniform would give 1%; allow broad headroom but not hot-spot levels.
  EXPECT_LT(rank_lt_10, kSamples * 0.25);
}

TEST(ZipfTest, ModerateThetaMatchesYcsbShape) {
  // At theta=0.99 over 10k items, rank 0 should receive noticeably more
  // traffic than rank 5000.
  ZipfianGenerator gen(10000, 0.99, 3);
  std::map<uint64_t, uint64_t> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.Next()]++;
  EXPECT_GT(counts[0], 100u);
  EXPECT_LT(counts[5000], counts[0]);
}

TEST(ZipfTest, ScrambledSpreadsHotKeys) {
  ScrambledZipfianGenerator gen(100000, 0.99, 1);
  // The hottest scrambled keys should not all be adjacent small values.
  std::map<uint64_t, uint64_t> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.Next()]++;
  uint64_t hottest = 0;
  uint64_t hottest_key = 0;
  for (const auto& [k, c] : counts) {
    if (c > hottest) {
      hottest = c;
      hottest_key = k;
    }
  }
  EXPECT_GT(hottest, 100u);   // still skewed
  EXPECT_GT(hottest_key, 10u);  // but not concentrated at rank 0
}

TEST(UniformGenTest, CoversSpace) {
  UniformGenerator gen(10, 1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.Next());
  EXPECT_EQ(seen.size(), 10u);
}

// ----- Histogram -----

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
  // Every percentile of an empty histogram is 0, including the edges.
  EXPECT_EQ(h.Percentile(0), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Average(), 100.0);
  EXPECT_NEAR(h.P50(), 100.0, 20.0);
  // With one sample, every percentile is that sample exactly: the
  // in-bucket interpolation is clamped to [min, max] = [v, v].
  EXPECT_DOUBLE_EQ(h.Percentile(0), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.9), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, PercentileEdges) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  // p=0 is the minimum and p=100 the maximum, exactly — not an
  // interpolated bucket boundary. Out-of-range p clamps to the edges.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(120), 1000.0);
  EXPECT_LE(h.Percentile(0), h.Percentile(0.1));
  EXPECT_LE(h.Percentile(99.9), h.Percentile(100));
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Random r(5);
  for (int i = 0; i < 10000; ++i) h.Add(static_cast<double>(r.Uniform(1000)));
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.max());
  EXPECT_NEAR(h.Percentile(50), 500.0, 100.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(10.0);
  for (int i = 0; i < 100; ++i) b.Add(1000.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.Average(), 505.0, 1.0);
  EXPECT_GT(a.Percentile(99), 500.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
}

TEST(HistogramTest, TailLatencyShape) {
  Histogram h;
  // 99% fast ops at ~10us, 1% slow at ~5000us.
  for (int i = 0; i < 9900; ++i) h.Add(10.0);
  for (int i = 0; i < 100; ++i) h.Add(5000.0);
  EXPECT_LT(h.P50(), 50.0);
  EXPECT_GT(h.Percentile(99.5), 1000.0);
}

// ----- Bloom filter -----

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf(1000);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) bf.Add(k);
  for (const auto& k : keys) EXPECT_TRUE(bf.MayContain(k));
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bf(1000, 10);
  for (int i = 0; i < 1000; ++i) bf.Add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bf.MayContain("other" + std::to_string(i))) fp++;
  }
  // ~1% expected at 10 bits/key; allow generous margin.
  EXPECT_LT(fp, 500);
}

TEST(BloomTest, ClearResets) {
  BloomFilter bf(100);
  bf.Add("a");
  EXPECT_TRUE(bf.MayContain("a"));
  bf.Clear();
  EXPECT_FALSE(bf.MayContain("a"));
  EXPECT_EQ(bf.added(), 0u);
}

TEST(BloomTest, EmptyFilterContainsNothing) {
  BloomFilter bf(100);
  EXPECT_FALSE(bf.MayContain("anything"));
}

// Property sweep: false-positive rate scales with bits per key.
class BloomBitsPerKeyTest : public ::testing::TestWithParam<int> {};

TEST_P(BloomBitsPerKeyTest, FalsePositiveRateBounded) {
  const int bits = GetParam();
  BloomFilter bf(2000, bits);
  for (int i = 0; i < 2000; ++i) bf.Add("k" + std::to_string(i));
  int fp = 0;
  const int kProbes = 5000;
  for (int i = 0; i < kProbes; ++i) {
    if (bf.MayContain("absent" + std::to_string(i))) fp++;
  }
  // Theoretical fp ~ 0.6185^bits; allow 4x headroom.
  const double bound = 4.0 * std::pow(0.6185, bits);
  EXPECT_LT(fp, std::max(50.0, kProbes * bound)) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BloomBitsPerKeyTest,
                         ::testing::Values(6, 8, 10, 12, 16));

}  // namespace
}  // namespace dinomo
