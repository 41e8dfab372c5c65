// Tests for the Parquet-like and ORC-like baseline formats: encoding
// building blocks, round trips across codecs, dictionary fallback. Also
// the BtrBlocks lake framing (btr/file_format.h): metadata and column
// header parsers must reject hostile counts without allocating from them.
#include <gtest/gtest.h>

#include <vector>

#include "btr/file_format.h"
#include "datagen/public_bi.h"
#include "datagen/tpch.h"
#include "lakeformat/orc_like.h"
#include "lakeformat/parquet_like.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace btr::lakeformat {
namespace {

void ExpectRelationsEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.columns().size(), b.columns().size());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (size_t c = 0; c < a.columns().size(); c++) {
    const Column& ca = a.columns()[c];
    const Column& cb = b.columns()[c];
    ASSERT_EQ(ca.type(), cb.type());
    for (u32 r = 0; r < a.row_count(); r++) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << ca.name() << " row " << r;
      switch (ca.type()) {
        case ColumnType::kInteger:
          ASSERT_EQ(ca.ints()[r], cb.ints()[r]) << ca.name() << " row " << r;
          break;
        case ColumnType::kDouble: {
          u64 x, y;
          std::memcpy(&x, &ca.doubles()[r], 8);
          std::memcpy(&y, &cb.doubles()[r], 8);
          ASSERT_EQ(x, y) << ca.name() << " row " << r;
          break;
        }
        case ColumnType::kString:
          ASSERT_EQ(ca.GetString(r), cb.GetString(r)) << ca.name() << " row " << r;
          break;
      }
    }
  }
}

// --- building blocks ---------------------------------------------------------

class HybridTest : public ::testing::TestWithParam<u32> {};

TEST_P(HybridTest, RoundTripAcrossBitWidths) {
  u32 bit_width = GetParam();
  Random rng(bit_width + 1);
  u32 bound = bit_width >= 32 ? 0xFFFFFFFFu : ((1u << bit_width) - 1);
  std::vector<u32> values(3000);
  for (size_t i = 0; i < values.size(); i++) {
    // Mix runs and noise to hit both hybrid modes.
    if (rng.NextBounded(4) == 0 && i > 0) {
      values[i] = values[i - 1];
    } else {
      values[i] = bound == 0 ? 0 : static_cast<u32>(rng.Next()) & bound;
    }
  }
  // Inject a long run for the RLE branch.
  for (size_t i = 500; i < 700; i++) values[i] = values[500];
  ByteBuffer encoded;
  HybridEncode(values.data(), static_cast<u32>(values.size()), bit_width,
               &encoded);
  std::vector<u32> decoded(values.size());
  HybridDecode(encoded.data(), static_cast<u32>(values.size()), bit_width,
               decoded.data());
  EXPECT_EQ(decoded, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, HybridTest,
                         ::testing::Values(0u, 1u, 2u, 5u, 8u, 13u, 20u, 32u));

TEST(OrcIntTest, RoundTripMixedModes) {
  Random rng(9);
  std::vector<i64> values;
  // Repeats.
  for (int i = 0; i < 100; i++) values.push_back(42);
  // Deltas.
  for (int i = 0; i < 100; i++) values.push_back(1000 + i * 7);
  // Noise including negatives and 64-bit magnitudes.
  for (int i = 0; i < 1000; i++) {
    values.push_back(static_cast<i64>(rng.Next()));
  }
  // Short runs that stay in direct mode.
  for (int i = 0; i < 100; i++) {
    values.push_back(i % 3);
    values.push_back(i % 3);
  }
  ByteBuffer encoded;
  OrcIntEncode(values.data(), static_cast<u32>(values.size()), &encoded);
  std::vector<i64> decoded(values.size());
  OrcIntDecode(encoded.data(), static_cast<u32>(values.size()), decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(HybridTest, RleRunAfterPartialGroupStaysAligned) {
  // The writer may only start an RLE run at an 8-value boundary of the
  // pending bit-packed buffer; a long run arriving mid-group must decode
  // correctly either way.
  std::vector<u32> values;
  for (u32 i = 0; i < 5; i++) values.push_back(i % 3);  // partial group
  for (u32 i = 0; i < 100; i++) values.push_back(2);    // long run mid-group
  for (u32 i = 0; i < 11; i++) values.push_back(i % 3);
  ByteBuffer encoded;
  HybridEncode(values.data(), static_cast<u32>(values.size()), 2, &encoded);
  std::vector<u32> decoded(values.size());
  HybridDecode(encoded.data(), static_cast<u32>(values.size()), 2,
               decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(OrcIntTest, LongDirectWindowAndWideValues) {
  // > 512 values without runs forces multiple direct windows; 64-bit
  // magnitudes exercise the cross-byte spill in the packer.
  Random rng(77);
  std::vector<i64> values;
  for (int i = 0; i < 1300; i++) {
    values.push_back(static_cast<i64>(rng.Next()) >> (i % 48));
  }
  ByteBuffer encoded;
  OrcIntEncode(values.data(), static_cast<u32>(values.size()), &encoded);
  std::vector<i64> decoded(values.size());
  OrcIntDecode(encoded.data(), static_cast<u32>(values.size()), decoded.data());
  EXPECT_EQ(decoded, values);
}

TEST(OrcIntTest, RepeatAndDeltaCompress) {
  std::vector<i64> repeats(10000, 7);
  ByteBuffer encoded;
  OrcIntEncode(repeats.data(), 10000, &encoded);
  EXPECT_LT(encoded.size(), 100u);

  std::vector<i64> sequence(10000);
  for (int i = 0; i < 10000; i++) sequence[i] = i;
  ByteBuffer encoded2;
  OrcIntEncode(sequence.data(), 10000, &encoded2);
  EXPECT_LT(encoded2.size(), 100u);
}

// --- file round trips -----------------------------------------------------------

class FormatRoundTripTest : public ::testing::TestWithParam<gpc::CodecKind> {};

TEST_P(FormatRoundTripTest, ParquetLike) {
  Relation table = datagen::MakePublicBiTable("t", 50000, 77);
  ParquetOptions options;
  options.codec = GetParam();
  options.rowgroup_rows = 20000;  // force multiple rowgroups
  ByteBuffer file = WriteParquetLike(table, options);
  EXPECT_LT(file.size(), table.UncompressedBytes());

  Relation back("t");
  Status status = ReadParquetLike(file.data(), file.size(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRelationsEqual(table, back);

  u64 bytes = 0;
  ASSERT_TRUE(DecodeParquetLikeBytes(file.data(), file.size(), &bytes).ok());
  EXPECT_GT(bytes, 0u);

  // Corruption surfaces as a Status, not an abort.
  u64 ignored = 0;
  EXPECT_FALSE(DecodeParquetLikeBytes(file.data(), 4, &ignored).ok());
}

TEST_P(FormatRoundTripTest, OrcLike) {
  Relation table = datagen::MakePublicBiTable("t", 50000, 78);
  OrcOptions options;
  options.codec = GetParam();
  options.stripe_rows = 20000;
  ByteBuffer file = WriteOrcLike(table, options);
  EXPECT_LT(file.size(), table.UncompressedBytes());

  Relation back("t");
  Status status = ReadOrcLike(file.data(), file.size(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRelationsEqual(table, back);

  u64 bytes = 0;
  ASSERT_TRUE(DecodeOrcLikeBytes(file.data(), file.size(), &bytes).ok());
  EXPECT_GT(bytes, 0u);

  // Corruption surfaces as a Status, not an abort.
  u64 ignored = 0;
  EXPECT_FALSE(DecodeOrcLikeBytes(file.data(), 4, &ignored).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, FormatRoundTripTest,
                         ::testing::Values(gpc::CodecKind::kNone,
                                           gpc::CodecKind::kLz77,
                                           gpc::CodecKind::kEntropyLz));

TEST(ParquetLikeTest, DictionaryFallbackOnHighCardinality) {
  // Every value distinct and large dictionary: Parquet's heuristic must
  // fall back to PLAIN (paper Section 2.1) and the file stays ~input size.
  Relation table("t");
  Column& c = table.AddColumn("s", ColumnType::kString);
  for (int i = 0; i < 50000; i++) {
    c.AppendString("unique_value_with_padding_" + std::to_string(i) +
                   std::string(32, 'x'));
  }
  ParquetOptions options;
  options.dict_byte_limit = 1 << 16;  // small limit to trigger fallback
  ByteBuffer file = WriteParquetLike(table, options);
  EXPECT_GT(file.size(), table.UncompressedBytes() * 9 / 10);
  Relation back("t");
  ASSERT_TRUE(ReadParquetLike(file.data(), file.size(), &back).ok());
  ExpectRelationsEqual(table, back);
}

TEST(LakeFormatTest, CompressionRatioOrderingOnPbi) {
  // Paper Table 2 shape: parquet < parquet+lz4/snappy-class <
  // parquet+zstd-class in compression ratio.
  Relation table = datagen::MakePublicBiTable("t", 100000, 79);
  u64 uncompressed = table.UncompressedBytes();
  ParquetOptions plain_opts;
  ParquetOptions lz_opts;
  lz_opts.codec = gpc::CodecKind::kLz77;
  ParquetOptions zstd_opts;
  zstd_opts.codec = gpc::CodecKind::kEntropyLz;
  u64 plain = WriteParquetLike(table, plain_opts).size();
  u64 lz = WriteParquetLike(table, lz_opts).size();
  u64 entropy = WriteParquetLike(table, zstd_opts).size();
  EXPECT_LT(plain, uncompressed);
  EXPECT_LT(lz, plain);
  EXPECT_LE(entropy, lz);
}

TEST(LakeFormatTest, TpchRoundTrip) {
  datagen::TpchOptions options;
  options.lineitem_rows = 30000;
  Relation lineitem = datagen::MakeLineitem(options);
  ParquetOptions popts;
  popts.codec = gpc::CodecKind::kLz77;
  ByteBuffer pfile = WriteParquetLike(lineitem, popts);
  Relation pback("lineitem");
  ASSERT_TRUE(ReadParquetLike(pfile.data(), pfile.size(), &pback).ok());
  ExpectRelationsEqual(lineitem, pback);

  OrcOptions oopts;
  oopts.codec = gpc::CodecKind::kEntropyLz;
  ByteBuffer ofile = WriteOrcLike(lineitem, oopts);
  Relation oback("lineitem");
  ASSERT_TRUE(ReadOrcLike(ofile.data(), ofile.size(), &oback).ok());
  ExpectRelationsEqual(lineitem, oback);
}

}  // namespace
}  // namespace btr::lakeformat

namespace btr {
namespace {

// Appends a CRC32C over everything in `buffer`, as the meta and zone-map
// trailers do, so a parser gets past its CRC check to the hostile count.
void SealWithCrc(ByteBuffer* buffer) {
  buffer->AppendValue<u32>(Crc32c(buffer->data(), buffer->size()));
}

TEST(LakeFramingTest, MetaRoundTripCarriesBlockFraming) {
  TableMeta meta;
  meta.row_count = 70000;
  TableMeta::ColumnMeta& column = meta.columns.emplace_back();
  column.name = "id";
  column.type = ColumnType::kInteger;
  column.uncompressed_bytes = 280000;
  column.block_value_counts = {65536, 4464};
  column.block_sizes = {1000, 77};
  column.block_crcs = {0xDEADBEEF, 0x12345678};
  ByteBuffer buffer;
  SerializeTableMeta(meta, &buffer);

  TableMeta parsed;
  Status status = ParseTableMeta(buffer.data(), buffer.size(), &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(parsed.has_block_framing);
  EXPECT_EQ(parsed.row_count, meta.row_count);
  ASSERT_EQ(parsed.columns.size(), 1u);
  EXPECT_EQ(parsed.columns[0].name, "id");
  EXPECT_EQ(parsed.columns[0].block_value_counts, column.block_value_counts);
  EXPECT_EQ(parsed.columns[0].block_sizes, column.block_sizes);
  EXPECT_EQ(parsed.columns[0].block_crcs, column.block_crcs);
}

TEST(LakeFramingTest, HostileMetaColumnCountIsCorruptionNotAllocation) {
  for (const char* magic : {"BTM2", "BTRM"}) {
    ByteBuffer buffer;
    buffer.Append(magic, 4);
    buffer.AppendValue<u32>(0xFFFFFFFFu);  // column_count
    buffer.AppendValue<u32>(10);           // row_count
    SealWithCrc(&buffer);
    TableMeta meta;
    Status status = ParseTableMeta(buffer.data(), buffer.size(), &meta);
    EXPECT_TRUE(status.IsCorruption()) << magic << ": " << status.ToString();
  }
}

TEST(LakeFramingTest, HostileMetaBlockCountIsCorruptionNotAllocation) {
  for (const char* magic : {"BTM2", "BTRM"}) {
    ByteBuffer buffer;
    buffer.Append(magic, 4);
    buffer.AppendValue<u32>(1);   // column_count
    buffer.AppendValue<u32>(10);  // row_count
    buffer.AppendValue<u16>(1);
    buffer.Append("x", 1);
    buffer.AppendValue<u8>(0);    // integer
    buffer.AppendValue<u64>(40);  // uncompressed_bytes
    buffer.AppendValue<u32>(0xFFFFFFFFu);  // block_count
    buffer.AppendValue<u32>(10);  // one value count, then nothing
    SealWithCrc(&buffer);
    TableMeta meta;
    Status status = ParseTableMeta(buffer.data(), buffer.size(), &meta);
    EXPECT_TRUE(status.IsCorruption()) << magic << ": " << status.ToString();
  }
}

// The v2 framing arrays are counted separately: value counts that fit
// must not let the sizes and CRCs past the end of the bytes.
TEST(LakeFramingTest, TruncatedMetaFramingIsCorruption) {
  TableMeta meta;
  TableMeta::ColumnMeta& column = meta.columns.emplace_back();
  column.name = "x";
  column.type = ColumnType::kDouble;
  column.uncompressed_bytes = 8;
  column.block_value_counts = {1, 1, 1};
  column.block_sizes = {9, 9, 9};
  column.block_crcs = {1, 2, 3};
  ByteBuffer full;
  SerializeTableMeta(meta, &full);
  // Drop the CRC array and the trailer, then reseal: CRC-consistent but
  // three u32s short.
  ByteBuffer cut;
  cut.Append(full.data(), full.size() - 4 - 3 * sizeof(u32));
  SealWithCrc(&cut);
  TableMeta parsed;
  Status status = ParseTableMeta(cut.data(), cut.size(), &parsed);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(LakeFramingTest, HostileColumnHeaderBlockCountIsCorruption) {
  ByteBuffer buffer;
  buffer.Append("BTRC", 4);
  buffer.AppendValue<u32>(0xFFFFFFFFu);  // block_count
  SealWithCrc(&buffer);
  std::vector<u32> sizes, crcs;
  Status status =
      ParseColumnFileHeader(buffer.data(), buffer.size(), &sizes, &crcs);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE(sizes.empty());
}

}  // namespace
}  // namespace btr
