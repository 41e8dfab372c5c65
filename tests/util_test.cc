// Unit tests for the util module: bit twiddling, buffers, bitstreams, PRNG.
#include <gtest/gtest.h>

#include <vector>

#include "util/bits.h"
#include "util/bitstream.h"
#include "util/buffer.h"
#include "util/random.h"

namespace btr {
namespace {

TEST(BitsTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0u);
  EXPECT_EQ(BitWidth(1), 1u);
  EXPECT_EQ(BitWidth(2), 2u);
  EXPECT_EQ(BitWidth(3), 2u);
  EXPECT_EQ(BitWidth(255), 8u);
  EXPECT_EQ(BitWidth(256), 9u);
  EXPECT_EQ(BitWidth(0xFFFFFFFFu), 32u);
}

TEST(BitsTest, Zigzag) {
  for (i32 v : {0, 1, -1, 2, -2, 1000000, -1000000, INT32_MAX, INT32_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(BitsTest, LeadingTrailingZeros) {
  EXPECT_EQ(CountLeadingZeros64(0), 64u);
  EXPECT_EQ(CountTrailingZeros64(0), 64u);
  EXPECT_EQ(CountLeadingZeros64(1), 63u);
  EXPECT_EQ(CountTrailingZeros64(u64{1} << 63), 63u);
}

TEST(ByteBufferTest, AppendAndResize) {
  ByteBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  u32 value = 0xDEADBEEF;
  buffer.AppendValue(value);
  EXPECT_EQ(buffer.size(), 4u);
  buffer.Resize(100);
  EXPECT_EQ(buffer.size(), 100u);
  u32 read;
  std::memcpy(&read, buffer.data(), 4);
  EXPECT_EQ(read, value);  // contents preserved across growth
}

TEST(ByteBufferTest, PaddingAlwaysPresent) {
  ByteBuffer buffer;
  for (int i = 0; i < 1000; i++) {
    buffer.AppendValue<u8>(static_cast<u8>(i));
    ASSERT_GE(buffer.capacity(), buffer.size() + kSimdPadding);
  }
}

// The first allocation is exact (a fetched block or a decoded pool is
// filled once); appends to a non-empty buffer grow it by 1.5x.
TEST(ByteBufferTest, FirstAllocationExactLaterGrowthGeometric) {
  constexpr size_t kSize = 100000;
  ByteBuffer appended;
  std::vector<u8> bytes(kSize, 0xAB);
  appended.Append(bytes.data(), bytes.size());
  EXPECT_EQ(appended.capacity(), kSize + kSimdPadding);

  ByteBuffer resized;
  resized.Resize(kSize);
  EXPECT_EQ(resized.capacity(), kSize + kSimdPadding);
  ByteBuffer constructed(kSize);
  EXPECT_EQ(constructed.capacity(), kSize + kSimdPadding);

  // One more byte past the exact allocation grows geometrically.
  appended.AppendValue<u8>(1);
  EXPECT_EQ(appended.capacity(), (kSize + 1) + (kSize + 1) / 2 + kSimdPadding);
  EXPECT_EQ(appended.data()[kSize - 1], 0xAB);  // contents preserved

  // Byte-at-a-time appends reallocate O(log n) times, not once per byte.
  ByteBuffer grown;
  int reallocations = 0;
  size_t capacity = grown.capacity();
  for (size_t i = 0; i < kSize; i++) {
    grown.AppendValue<u8>(static_cast<u8>(i));
    if (grown.capacity() != capacity) {
      reallocations++;
      capacity = grown.capacity();
    }
  }
  EXPECT_LT(reallocations, 40);
}

TEST(BitStreamTest, RoundTripVariousWidths) {
  BitWriter writer;
  std::vector<std::pair<u64, u32>> values;
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    u32 bits = 1 + static_cast<u32>(rng.NextBounded(64));
    u64 value = rng.Next() & (bits == 64 ? ~u64{0} : ((u64{1} << bits) - 1));
    values.push_back({value, bits});
    writer.Write(value, bits);
  }
  std::vector<u64> words = writer.Finish();
  BitReader reader(words.data(), words.size());
  for (auto [value, bits] : values) {
    EXPECT_EQ(reader.Read(bits), value);
  }
}

TEST(BitStreamTest, SingleBits) {
  BitWriter writer;
  for (int i = 0; i < 130; i++) writer.WriteBit(i % 3 == 0);
  std::vector<u64> words = writer.Finish();
  BitReader reader(words.data(), words.size());
  for (int i = 0; i < 130; i++) EXPECT_EQ(reader.ReadBit(), i % 3 == 0);
}

TEST(BitStreamTest, Exact64BitValues) {
  BitWriter writer;
  writer.Write(0xFFFFFFFFFFFFFFFFULL, 64);
  writer.Write(0x0123456789ABCDEFULL, 64);
  std::vector<u64> words = writer.Finish();
  BitReader reader(words.data(), words.size());
  EXPECT_EQ(reader.Read(64), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(reader.Read(64), 0x0123456789ABCDEFULL);
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
  Random rng(5);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfIsSkewed) {
  Random rng(9);
  u64 zero_count = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; i++) {
    u64 r = rng.NextZipf(1000, 1.2);
    EXPECT_LT(r, 1000u);
    if (r == 0) zero_count++;
  }
  // Rank 0 must dominate a uniform draw (which would give ~10 hits).
  EXPECT_GT(zero_count, 1000u);
}

}  // namespace
}  // namespace btr
