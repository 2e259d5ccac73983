#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "dpm/log.h"

namespace dinomo {
namespace dpm {
namespace {

TEST(ValuePtrTest, PackUnpackRoundTrip) {
  ValuePtr p = ValuePtr::Pack(0x123456780, 1024);
  EXPECT_EQ(p.offset(), 0x123456780u);
  EXPECT_EQ(p.entry_size(), 1024u);
  EXPECT_FALSE(p.indirect());
  EXPECT_FALSE(p.null());
}

TEST(ValuePtrTest, IndirectFlag) {
  ValuePtr p = ValuePtr::Pack(4096, 8, /*indirect=*/true);
  EXPECT_TRUE(p.indirect());
  EXPECT_EQ(p.offset(), 4096u);
  EXPECT_EQ(p.entry_size(), 8u);
  EXPECT_FALSE(ValuePtr(p.raw() & ~(1ULL << 63)).indirect());
}

TEST(ValuePtrTest, NullDetection) {
  EXPECT_TRUE(ValuePtr().null());
  EXPECT_TRUE(ValuePtr(0).null());
}

TEST(LogEntryTest, EncodeDecodeRoundTrip) {
  std::string buf(4096, '\0');
  const std::string key = "user1234";
  const std::string value(100, 'v');
  const uint64_t kh = HashSlice(key);
  const size_t n = EncodeEntry(buf.data(), LogOp::kPut, 7, kh, key, value);
  EXPECT_EQ(n, EncodedEntrySize(key.size(), value.size()));
  EXPECT_EQ(n % 8, 0u);

  LogRecord rec;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(consumed, n);
  EXPECT_EQ(rec.op, LogOp::kPut);
  EXPECT_EQ(rec.seq, 7u);
  EXPECT_EQ(rec.key_hash, kh);
  EXPECT_EQ(rec.key.ToString(), key);
  EXPECT_EQ(rec.value.ToString(), value);
}

TEST(LogEntryTest, CrcFieldMatchesGoldenEntry) {
  // Recorded from the byte-at-a-time table CRC. Entries already on PM
  // carry these bytes, so every Crc32c path must reproduce them.
  const std::string key = "user0000000042";
  std::string value;
  for (int i = 0; i < 100; ++i) value.push_back(static_cast<char>('a' + i % 26));
  constexpr uint64_t kKeyHash = 0xe1194e696a4f3f00ULL;
  EXPECT_EQ(HashSlice(key), kKeyHash);
  constexpr size_t kCrcOffset = 4;  // EntryHeader: entry_size, then crc

  std::string buf(512, '\0');
  EncodeEntry(buf.data(), LogOp::kPut, 7, kKeyHash, key, value);
  uint32_t crc = 0;
  std::memcpy(&crc, buf.data() + kCrcOffset, sizeof(crc));
  EXPECT_EQ(crc, 0xAD35737Au);

  EncodeEntry(buf.data(), LogOp::kDelete, 8, kKeyHash, key, Slice());
  std::memcpy(&crc, buf.data() + kCrcOffset, sizeof(crc));
  EXPECT_EQ(crc, 0xC5743726u);
}

TEST(LogEntryTest, DeleteTombstoneHasNoValue) {
  std::string buf(512, '\0');
  EncodeEntry(buf.data(), LogOp::kDelete, 1, 99, "gone", Slice());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.op, LogOp::kDelete);
  EXPECT_TRUE(rec.value.empty());
  EXPECT_EQ(rec.key.ToString(), "gone");
}

TEST(LogEntryTest, MissingCommitMarkerIsTorn) {
  std::string buf(512, '\0');
  const size_t n = EncodeEntry(buf.data(), LogOp::kPut, 1, 42, "k", "v");
  buf[n - 1] = 0;  // crash before the seal byte landed
  LogRecord rec;
  size_t consumed;
  EXPECT_TRUE(
      DecodeEntry(buf.data(), buf.size(), &rec, &consumed).IsCorruption());
}

TEST(LogEntryTest, CorruptPayloadDetectedByCrc) {
  std::string buf(512, '\0');
  EncodeEntry(buf.data(), LogOp::kPut, 1, 42, "key", "value");
  buf[44] ^= 0xff;  // flip a payload byte (key/value area starts at 40)
  LogRecord rec;
  size_t consumed;
  EXPECT_TRUE(
      DecodeEntry(buf.data(), buf.size(), &rec, &consumed).IsCorruption());
}

TEST(LogEntryTest, ZeroedRegionIsCleanEnd) {
  std::string buf(128, '\0');
  LogRecord rec;
  size_t consumed;
  EXPECT_TRUE(
      DecodeEntry(buf.data(), buf.size(), &rec, &consumed).IsNotFound());
}

TEST(LogBuilderTest, AccumulatesEntries) {
  LogBuilder builder;
  builder.AddPut(1, 11, "a", "valueA");
  builder.AddPut(2, 22, "b", "valueB");
  builder.AddDelete(3, 33, "c");
  EXPECT_EQ(builder.entries(), 3u);
  EXPECT_EQ(builder.puts(), 2u);
  EXPECT_GT(builder.bytes(), 0u);

  LogIterator it(builder.data(), builder.bytes());
  LogRecord rec;
  ASSERT_TRUE(it.Next(&rec));
  EXPECT_EQ(rec.key.ToString(), "a");
  EXPECT_EQ(rec.value.ToString(), "valueA");
  ASSERT_TRUE(it.Next(&rec));
  EXPECT_EQ(rec.key.ToString(), "b");
  ASSERT_TRUE(it.Next(&rec));
  EXPECT_EQ(rec.op, LogOp::kDelete);
  EXPECT_FALSE(it.Next(&rec));
  EXPECT_TRUE(it.status().ok());
}

TEST(LogBuilderTest, ClearResets) {
  LogBuilder builder;
  builder.AddPut(1, 1, "k", "v");
  builder.Clear();
  EXPECT_EQ(builder.bytes(), 0u);
  EXPECT_EQ(builder.entries(), 0u);
  EXPECT_EQ(builder.puts(), 0u);
}

TEST(LogIteratorTest, StopsAtTornEntryWithCorruption) {
  LogBuilder builder;
  builder.AddPut(1, 1, "k1", "v1");
  const size_t second = builder.AddPut(2, 2, "k2", "v2");
  std::string data(builder.data(), builder.bytes());
  data[data.size() - 1] = 0;  // tear the second entry's marker

  LogIterator it(data.data(), data.size());
  LogRecord rec;
  ASSERT_TRUE(it.Next(&rec));
  EXPECT_EQ(rec.key.ToString(), "k1");
  EXPECT_FALSE(it.Next(&rec));
  EXPECT_TRUE(it.status().IsCorruption());
  EXPECT_EQ(it.offset(), second);
}

TEST(LogIteratorTest, EmptyLog) {
  LogIterator it(nullptr, 0);
  LogRecord rec;
  EXPECT_FALSE(it.Next(&rec));
  EXPECT_TRUE(it.status().ok());
}

// Parameterized sweep over key/value sizes.
class LogEntrySizeSweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(LogEntrySizeSweep, RoundTripsAtEverySize) {
  const auto [klen, vlen] = GetParam();
  const std::string key(klen, 'k');
  const std::string value(vlen, 'v');
  std::vector<char> buf(EncodedEntrySize(klen, vlen));
  const size_t n =
      EncodeEntry(buf.data(), LogOp::kPut, 9, HashSlice(key), key, value);
  ASSERT_EQ(n, buf.size());
  LogRecord rec;
  size_t consumed;
  ASSERT_TRUE(DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok());
  EXPECT_EQ(rec.key.size(), klen);
  EXPECT_EQ(rec.value.size(), vlen);
  EXPECT_EQ(rec.key.ToString(), key);
  EXPECT_EQ(rec.value.ToString(), value);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LogEntrySizeSweep,
    ::testing::Values(std::pair<size_t, size_t>{1, 0},
                      std::pair<size_t, size_t>{8, 64},
                      std::pair<size_t, size_t>{8, 1024},
                      std::pair<size_t, size_t>{100, 7},
                      std::pair<size_t, size_t>{1000, 100000},
                      std::pair<size_t, size_t>{8, 1}));

}  // namespace
}  // namespace dpm
}  // namespace dinomo
