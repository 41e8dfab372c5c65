// btr::Scanner: the pipelined scan must be bit-identical to sequential
// decompress-then-filter across all three column types, honor zone-map
// pruning and compressed-form predicate pushdown, handle the short final
// block, and surface poisoned blocks as a Status instead of crashing.
#include "btr/scanner.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "btr/btrblocks.h"
#include "btr/predicate.h"
#include "service/scan_service.h"
#include "util/crc32c.h"
#include "write/manifest.h"

namespace btr {
namespace {

// 2 full blocks + a short final block. The int column is clustered per
// block (block b holds values in [b*1000, b*1000+999]) so zone maps can
// prune point queries; strings repeat a small dictionary; every column
// gets some NULLs.
constexpr u32 kRows = 2 * kBlockCapacity + 22000;

Relation MakeTable() {
  Relation table("scan_table");
  Column& ints = table.AddColumn("id", ColumnType::kInteger);
  Column& doubles = table.AddColumn("price", ColumnType::kDouble);
  Column& strings = table.AddColumn("city", ColumnType::kString);
  const char* cities[4] = {"berlin", "munich", "bonn", "hamburg"};
  for (u32 i = 0; i < kRows; i++) {
    u32 block = i / kBlockCapacity;
    if (i % 97 == 13) {
      ints.AppendNull();
    } else {
      ints.AppendInt(static_cast<i32>(block * 1000 + i % 1000));
    }
    if (i % 101 == 7) {
      doubles.AppendNull();
    } else {
      doubles.AppendDouble(static_cast<double>(i % 4096) * 0.25);
    }
    if (i % 89 == 3) {
      strings.AppendNull();
    } else {
      strings.AppendString(cities[i % 4]);
    }
  }
  return table;
}

struct Fixture {
  CompressionConfig config;
  Relation table = MakeTable();
  CompressedRelation compressed;
  TableZoneMap zones;
  s3sim::ObjectStore store;

  Fixture() {
    compressed = CompressRelation(table, config);
    for (const Column& column : table.columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    Status status =
        UploadCompressedRelation(compressed, &zones, "lake/", &store);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

ScanSpec PipelinedSpec() {
  ScanSpec spec;
  spec.config.scan_threads = 4;
  spec.config.fetch_threads = 3;
  spec.config.prefetch_depth = 4;
  return spec;
}

void ExpectBlocksBitIdentical(const DecodedBlock& expected,
                              const DecodedBlock& actual) {
  ASSERT_EQ(expected.type, actual.type);
  ASSERT_EQ(expected.count, actual.count);
  EXPECT_EQ(expected.null_flags, actual.null_flags);
  switch (expected.type) {
    case ColumnType::kInteger:
      EXPECT_EQ(expected.ints, actual.ints);
      break;
    case ColumnType::kDouble:
      ASSERT_EQ(expected.doubles.size(), actual.doubles.size());
      // memcmp: bit-identical, including any NaN payloads.
      EXPECT_EQ(0, std::memcmp(expected.doubles.data(), actual.doubles.data(),
                               expected.doubles.size() * sizeof(double)));
      break;
    case ColumnType::kString:
      ASSERT_EQ(expected.strings.slots.size(), actual.strings.slots.size());
      for (u32 i = 0; i < expected.count; i++) {
        EXPECT_EQ(expected.strings.Get(i), actual.strings.Get(i)) << "row " << i;
      }
      break;
  }
}

TEST(ScannerTest, FullScanBitIdenticalToSequential) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_EQ(output.columns.size(), 3u);
  u32 block_count = static_cast<u32>(f.compressed.columns[0].blocks.size());
  ASSERT_EQ(block_count, 3u);  // 2 full + 1 short
  EXPECT_EQ(output.stats.row_blocks, block_count);
  EXPECT_EQ(output.stats.blocks_decoded, block_count);
  EXPECT_EQ(output.stats.blocks_pruned, 0u);
  EXPECT_EQ(output.stats.rows_matched, kRows);

  // Sequential reference: decompress every block of every column directly.
  for (size_t c = 0; c < f.compressed.columns.size(); c++) {
    const CompressedColumn& column = f.compressed.columns[c];
    ASSERT_EQ(output.columns[c].blocks.size(), column.blocks.size());
    DecodedBlock reference;
    for (size_t b = 0; b < column.blocks.size(); b++) {
      DecompressBlock(column.blocks[b].data(), &reference, f.config);
      ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
    }
  }
  // Short final block.
  EXPECT_EQ(output.columns[0].blocks.back().count, kRows % kBlockCapacity);
}

TEST(ScannerTest, PredicateScanPrunesAndMatchesSequentialFilter) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ASSERT_TRUE(scanner.has_zone_map());

  // Only block 1 holds ids in [1000, 1999]; blocks 0 and 2 must be pruned
  // by zone maps, never fetched.
  const i32 probe = 1500;
  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id", "price"};
  spec.filter = PredicateExpr::EqualsInt("id", probe);

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(output.stats.blocks_pruned, 2u);
  EXPECT_EQ(output.stats.blocks_decoded, 1u);
  EXPECT_EQ(output.block_outcomes[0], BlockOutcome::kPruned);
  EXPECT_EQ(output.block_outcomes[1], BlockOutcome::kDecoded);
  EXPECT_EQ(output.block_outcomes[2], BlockOutcome::kPruned);

  // Selection must equal the compressed-scan kernel run sequentially.
  RoaringBitmap expected =
      SelectMatches(f.compressed.columns[0].blocks[1].data(),
                    PredicateExpr::EqualsInt("c", probe), f.config);
  EXPECT_EQ(expected.ToVector(), output.block_selections[1].ToVector());
  EXPECT_EQ(output.stats.rows_matched, expected.Cardinality());
  ASSERT_GT(output.stats.rows_matched, 0u);

  // Decoded values of the surviving block are bit-identical to sequential.
  DecodedBlock reference;
  for (size_t c = 0; c < 2; c++) {
    DecompressBlock(f.compressed.columns[c].blocks[1].data(), &reference,
                    f.config);
    ExpectBlocksBitIdentical(reference, output.columns[c].blocks[1]);
  }
  // Pruned blocks stay empty.
  EXPECT_EQ(output.columns[0].blocks[0].count, 0u);
  EXPECT_EQ(output.columns[1].blocks[2].count, 0u);
}

TEST(ScannerTest, PredicateOnNonProjectedColumnFiltersProjection) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = PipelinedSpec();
  spec.columns = {"price"};  // predicate column not projected
  spec.filter = PredicateExpr::EqualsString("city", "bonn");

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(output.columns.size(), 1u);
  EXPECT_EQ(output.columns[0].name, "price");

  u64 expected_matches = 0;
  for (size_t b = 0; b < f.compressed.columns[2].blocks.size(); b++) {
    RoaringBitmap sel =
        SelectMatches(f.compressed.columns[2].blocks[b].data(),
                      PredicateExpr::EqualsString("c", "bonn"), f.config);
    if (output.block_outcomes[b] == BlockOutcome::kDecoded) {
      EXPECT_EQ(sel.ToVector(), output.block_selections[b].ToVector());
    } else {
      EXPECT_TRUE(sel.Empty());
    }
    expected_matches += sel.Cardinality();
  }
  EXPECT_EQ(output.stats.rows_matched, expected_matches);
  ASSERT_GT(expected_matches, 0u);
}

TEST(ScannerTest, EmptySelectionSkipsDecompression) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  // 431 is inside every block's int zone range [b*1000, b*1000+999] only
  // for block 0; for blocks 1/2 zones prune. Instead probe a value inside
  // block 0's range that never occurs: ids hit every value in [0, 999]
  // except... they don't skip any, so use the double column: 0.125 lies
  // within [0, 1023.75] but i%4096*0.25 only produces multiples of 0.25.
  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id"};
  spec.filter = PredicateExpr::EqualsDouble("price", 0.125);

  ScanOutput output;
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.rows_matched, 0u);
  EXPECT_EQ(output.stats.blocks_decoded, 0u);
  // Every non-pruned block must be skipped by the compressed-form
  // predicate evaluation, not decompressed.
  EXPECT_EQ(output.stats.blocks_skipped + output.stats.blocks_pruned,
            output.stats.row_blocks);
}

TEST(ScannerTest, PoisonedBlockSurfacesStatusNotCrash) {
  Fixture f;
  // Corrupt the type byte of block 1 of the "id" column object. The
  // upload committed through the versioned write path, so resolve the
  // physical ".v<N>" name the way Scanner::Open does.
  std::string resolved;
  ASSERT_TRUE(write::ResolveCommittedName(&f.store, "lake/", "scan_table",
                                          &resolved)
                  .ok());
  std::string key = ColumnFileKey("lake/", resolved, 0);
  std::vector<u8> object;
  ASSERT_TRUE(f.store.GetObject(key, &object).ok());
  const CompressedColumn& column = f.compressed.columns[0];
  u64 offset = ColumnFileHeaderBytes(column.blocks.size());
  offset += column.blocks[0].size();  // start of block 1
  object[offset] = 0x7F;              // invalid column type byte
  ASSERT_TRUE(f.store.Put(key, object.data(), object.size()).ok());

  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanOutput output;
  Status status = scanner.Scan(PipelinedSpec(), &output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
}

TEST(ScannerTest, SpecErrorsAreStatuses) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec unknown = PipelinedSpec();
  unknown.columns = {"nope"};
  ScanOutput output;
  EXPECT_EQ(scanner.Scan(unknown, &output).code(), Status::Code::kNotFound);

  // Integer literals against double columns are coerced, not rejected.
  ScanSpec coerced = PipelinedSpec();
  coerced.filter = PredicateExpr::EqualsInt("price", 3);
  EXPECT_TRUE(scanner.Scan(coerced, &output).ok());

  ScanSpec mismatch = PipelinedSpec();
  mismatch.filter = PredicateExpr::EqualsString("id", "nope");
  EXPECT_EQ(scanner.Scan(mismatch, &output).code(),
            Status::Code::kInvalidArgument);

  Scanner unopened(&f.store, "scan_table", "lake/");
  EXPECT_EQ(unopened.Scan(PipelinedSpec(), &output).code(),
            Status::Code::kInvalidArgument);

  Scanner missing(&f.store, "no_such_table", "lake/");
  EXPECT_EQ(missing.Open().code(), Status::Code::kNotFound);
}

TEST(ScannerTest, StreamingChunksArriveInOrder) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  ScanSpec spec = PipelinedSpec();
  spec.columns = {"id", "city"};
  std::vector<std::pair<u32, u32>> order;  // (block, column)
  ScanStats stats;
  Status status = scanner.Scan(
      spec,
      [&](ColumnChunk&& chunk) { order.emplace_back(chunk.block, chunk.column); },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(order.size(), 3u * 2u);
  for (size_t i = 1; i < order.size(); i++) {
    EXPECT_LT(order[i - 1], order[i]);
  }
  EXPECT_GT(stats.bytes_fetched, 0u);
  EXPECT_GT(stats.requests, 0u);
}

// Regression: ColumnChunk::row_begin used to be computed as
// u32 * kBlockCapacity, which wraps past 2^32 rows (block ≈ 67k). The
// field is u64 now and BlockRowBegin widens before multiplying.
TEST(ScannerTest, RowBeginIs64BitAndDoesNotWrap) {
  static_assert(std::is_same_v<decltype(ColumnChunk::row_begin), u64>,
                "row_begin must hold u64 row positions");

  EXPECT_EQ(BlockRowBegin(0), 0u);
  EXPECT_EQ(BlockRowBegin(1), static_cast<u64>(kBlockCapacity));
  // Block counts past 2^32 / kBlockCapacity ≈ 67109: the product no longer
  // fits in 32 bits. The u32 arithmetic would have produced the wrapped
  // value on the right.
  EXPECT_EQ(BlockRowBegin(70000), 70000ull * kBlockCapacity);
  EXPECT_GT(BlockRowBegin(70000), u64{1} << 32);
  EXPECT_NE(BlockRowBegin(70000),
            static_cast<u64>(static_cast<u32>(70000u * kBlockCapacity)));
  // The largest representable block index must not overflow u64.
  EXPECT_EQ(BlockRowBegin(0xFFFFFFFFu) / kBlockCapacity, 0xFFFFFFFFull);
}

// The emitted chunks carry BlockRowBegin-consistent row positions for
// every outcome (decoded here; pruned/skipped share the same code path).
TEST(ScannerTest, EmittedRowBeginMatchesBlockTimesCapacity) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());

  u32 chunks = 0;
  Status status = scanner.Scan(
      PipelinedSpec(),
      [&](ColumnChunk&& chunk) {
        EXPECT_EQ(chunk.row_begin, BlockRowBegin(chunk.block));
        EXPECT_EQ(chunk.row_begin,
                  static_cast<u64>(chunk.block) * kBlockCapacity);
        chunks++;
      },
      nullptr);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(chunks, 3u * 3u);  // 3 blocks x 3 columns
}

// The caller's own exception type, so the tests can tell it was rethrown
// unchanged rather than replaced.
struct EmitError : std::runtime_error {
  EmitError() : std::runtime_error("emit refused the chunk") {}
};

// A callback that throws on the first chunk fails the scan. Scan() must
// wait until none of its fetch/decode items is queued or running (they
// all reference Scan()'s stack frame) and then rethrow the exception
// unchanged; the scanner stays usable afterwards.
void ExpectThrowingEmitUnwindsCleanly(Scanner* scanner) {
  ASSERT_TRUE(scanner->Open().ok());
  ScanSpec spec = PipelinedSpec();
  for (int round = 0; round < 3; round++) {
    ScanStats stats;
    EXPECT_THROW(scanner->Scan(
                     spec, [](ColumnChunk&&) { throw EmitError(); }, &stats),
                 EmitError);
  }
  ScanOutput output;
  Status status = scanner->Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.blocks_decoded, 3u);
}

TEST(ScannerTest, ThrowingEmitRethrowsAfterQuiesceStandalone) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ExpectThrowingEmitUnwindsCleanly(&scanner);
}

TEST(ScannerTest, ThrowingEmitRethrowsAfterQuiesceServiced) {
  Fixture f;
  service::ScanServiceConfig config;
  config.fetch_threads = 2;
  config.decode_threads = 2;
  service::ScanService service(config);
  {
    Scanner scanner(service, "tenant", &f.store, "scan_table", "lake/");
    ExpectThrowingEmitUnwindsCleanly(&scanner);
  }
  // Every throwing scan gave its admission slot back.
  EXPECT_EQ(service.running_scans(), 0u);
  EXPECT_EQ(service.GetTenantStats("tenant").scans_completed, 4u);
}

// ScanStats::requests / bytes_fetched count this scan's own GETs, so two
// scans of one store at the same time each report what a solo scan
// does. The callbacks meet at a barrier on their first chunk, which makes
// the two scans overlap in time: store-wide deltas would count the other
// scan's GETs too.
TEST(ScannerTest, ConcurrentScansReportOnlyTheirOwnGets) {
  Fixture f;
  ScanStats solo;
  {
    Scanner scanner(&f.store, "scan_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    u64 before = f.store.total_requests();
    u64 bytes_before = f.store.total_bytes_fetched();
    ASSERT_TRUE(scanner.Scan(PipelinedSpec(), [](ColumnChunk&&) {}, &solo)
                    .ok());
    EXPECT_EQ(solo.requests, f.store.total_requests() - before);
    EXPECT_EQ(solo.bytes_fetched, f.store.total_bytes_fetched() - bytes_before);
    // One GET per range: id's 73443 + 73849 + 24713 bytes fit one 192 KiB
    // range, price's 513293, 513293 and 53007 are three, city's 36070 +
    // 22258 + 7718 are one: 1 + 3 + 1.
    ASSERT_EQ(solo.requests, 5u) << "1 + 3 + 1 ranges";
  }

  std::atomic<int> arrived{0};
  auto meet = [&arrived] {
    arrived.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  ScanStats stats[2];
  Status statuses[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; i++) {
    threads.emplace_back([&, i] {
      Scanner scanner(&f.store, "scan_table", "lake/");
      statuses[i] = scanner.Open();
      if (!statuses[i].ok()) {
        arrived.fetch_add(1);
        return;
      }
      bool first = true;
      statuses[i] = scanner.Scan(
          PipelinedSpec(),
          [&](ColumnChunk&&) {
            if (first) meet();
            first = false;
          },
          &stats[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(arrived.load(), 2);
  for (int i = 0; i < 2; i++) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(stats[i].requests, solo.requests) << "scan " << i;
    EXPECT_EQ(stats[i].bytes_fetched, solo.bytes_fetched) << "scan " << i;
  }
}

// A standalone Scanner keeps no block cache between scans: a repeat scan
// through the same Scanner GETs every part again. A cache means a
// ScanService (scan_service_test.cc covers the warm path).
TEST(ScannerTest, StandaloneRepeatScanIssuesTheSameGets) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  ScanStats first;
  ScanStats second;
  ASSERT_TRUE(scanner.Scan(PipelinedSpec(), [](ColumnChunk&&) {}, &first).ok());
  ASSERT_TRUE(
      scanner.Scan(PipelinedSpec(), [](ColumnChunk&&) {}, &second).ok());
  // 1 + 3 + 1 ranges, as in ConcurrentScansReportOnlyTheirOwnGets.
  EXPECT_EQ(first.requests, 5u) << "1 + 3 + 1 ranges";
  EXPECT_EQ(second.requests, first.requests);
  EXPECT_EQ(second.bytes_fetched, first.bytes_fetched);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(second.cache_hits, 0u);
}

// `columns` integer columns over one full and one short row block.
Relation MakeWideTable(u32 columns) {
  Relation table("wide");
  constexpr u32 kWideRows = kBlockCapacity + 1000;
  for (u32 c = 0; c < columns; c++) {
    Column& column = table.AddColumn("c" + std::to_string(c),
                                     ColumnType::kInteger);
    for (u32 i = 0; i < kWideRows; i++) {
      column.AppendInt(static_cast<i32>((i * (c + 1)) % 1000));
    }
  }
  return table;
}

// Open reads the manifest, then the meta and the zone map concurrently:
// the meta carries every block's size and CRC, so no column header is
// fetched, and the GET count is the same for 3 columns as for 14.
TEST(ScannerTest, OpenGetsDoNotGrowWithColumns) {
  service::ScanServiceConfig service_config;
  service_config.fetch_threads = 2;
  service_config.decode_threads = 2;
  service::ScanService service(service_config);
  for (u32 columns : {3u, 14u}) {
    Relation table = MakeWideTable(columns);
    CompressedRelation compressed = CompressRelation(table, CompressionConfig());
    TableZoneMap zones;
    for (const Column& column : table.columns()) {
      zones.columns.push_back(ComputeColumnZoneMap(column));
    }
    for (bool with_zones : {true, false}) {
      s3sim::ObjectStore store;
      ASSERT_TRUE(UploadCompressedRelation(compressed,
                                           with_zones ? &zones : nullptr,
                                           "lake/", &store)
                      .ok());
      const u64 expected_gets = with_zones ? 3 : 2;  // manifest, meta, zones
      Scanner standalone(&store, "wide", "lake/");
      Scanner serviced(service, "tenant", &store, "wide", "lake/");
      for (Scanner* scanner : {&standalone, &serviced}) {
        const char* mode = scanner == &standalone ? "standalone" : "serviced";
        u64 before = store.total_requests();
        ASSERT_TRUE(scanner->Open().ok());
        EXPECT_EQ(store.total_requests() - before, expected_gets)
            << columns << " columns, zones " << with_zones << ", " << mode;
        EXPECT_EQ(scanner->has_zone_map(), with_zones);
        ScanOutput output;
        Status status = scanner->Scan(PipelinedSpec(), &output);
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(output.stats.blocks_decoded, 2u) << mode;
        EXPECT_EQ(output.stats.rows_matched, table.row_count()) << mode;
      }
    }
  }
}

// The version-1 "BTRM" meta: the version-2 layout without the per-block
// sizes and CRCs, framed here by hand so the test does not depend on a
// writer that no longer exists.
void SerializeMetaV1(const TableMeta& meta, ByteBuffer* out) {
  out->Append("BTRM", 4);
  out->AppendValue<u32>(static_cast<u32>(meta.columns.size()));
  out->AppendValue<u32>(meta.row_count);
  for (const TableMeta::ColumnMeta& column : meta.columns) {
    out->AppendValue<u16>(static_cast<u16>(column.name.size()));
    out->Append(column.name.data(), column.name.size());
    out->AppendValue<u8>(static_cast<u8>(column.type));
    out->AppendValue<u64>(column.uncompressed_bytes);
    out->AppendValue<u32>(static_cast<u32>(column.block_value_counts.size()));
    out->Append(column.block_value_counts.data(),
                column.block_value_counts.size() * sizeof(u32));
  }
  out->AppendValue<u32>(Crc32c(out->data(), out->size()));
}

// A table whose meta predates the block framing still opens — through
// one header GET per column — and scans bit-identically to the same
// table with a version-2 meta.
TEST(ScannerTest, OpensLegacyV1Meta) {
  Fixture f;
  ScanSpec spec = PipelinedSpec();
  spec.filter = PredicateExpr::EqualsString("city", "bonn");
  ScanOutput expected;
  TableMeta meta;
  {
    Scanner scanner(&f.store, "scan_table", "lake/");
    ASSERT_TRUE(scanner.Open().ok());
    EXPECT_TRUE(scanner.meta().has_block_framing);
    meta = scanner.meta();
    Status status = scanner.Scan(spec, &expected);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  std::string resolved;
  ASSERT_TRUE(
      write::ResolveCommittedName(&f.store, "lake/", "scan_table", &resolved)
          .ok());
  ByteBuffer v1;
  SerializeMetaV1(meta, &v1);
  ASSERT_TRUE(
      f.store.Put(TableMetaKey("lake/", resolved), v1.data(), v1.size()).ok());

  Scanner legacy(&f.store, "scan_table", "lake/");
  u64 before = f.store.total_requests();
  ASSERT_TRUE(legacy.Open().ok());
  EXPECT_EQ(f.store.total_requests() - before, 3u + 3u)
      << "manifest, meta, zones, then one header per column";
  EXPECT_FALSE(legacy.meta().has_block_framing);
  ASSERT_EQ(legacy.meta().columns.size(), meta.columns.size());
  for (size_t c = 0; c < meta.columns.size(); c++) {
    EXPECT_EQ(legacy.meta().columns[c].block_sizes, meta.columns[c].block_sizes);
    EXPECT_EQ(legacy.meta().columns[c].block_crcs, meta.columns[c].block_crcs);
  }

  ScanOutput output;
  Status status = legacy.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.block_outcomes, expected.block_outcomes);
  EXPECT_EQ(output.stats.rows_matched, expected.stats.rows_matched);
  ASSERT_EQ(output.block_selections.size(), expected.block_selections.size());
  for (size_t b = 0; b < expected.block_selections.size(); b++) {
    EXPECT_EQ(output.block_selections[b].ToVector(),
              expected.block_selections[b].ToVector());
  }
  ASSERT_EQ(output.columns.size(), expected.columns.size());
  for (size_t c = 0; c < expected.columns.size(); c++) {
    ASSERT_EQ(output.columns[c].blocks.size(),
              expected.columns[c].blocks.size());
    for (size_t b = 0; b < expected.columns[c].blocks.size(); b++) {
      ExpectBlocksBitIdentical(expected.columns[c].blocks[b],
                               output.columns[c].blocks[b]);
    }
  }
}


// The fetch plan, recomputed from the meta: each column's unpruned blocks
// split into runs of adjacent blocks within kFetchRangeBytes; a pruned
// block ends a run. Returns the number of ranges and adds the bytes they
// cover to `*bytes`.
u64 PlannedRanges(const TableMeta& meta, const std::vector<u32>& columns,
                  const std::vector<bool>& pruned, u64* bytes) {
  u64 ranges = 0;
  for (u32 c : columns) {
    const std::vector<u32>& sizes = meta.columns[c].block_sizes;
    u64 run = 0;
    bool open = false;
    for (size_t b = 0; b < sizes.size(); b++) {
      if (pruned[b]) {
        open = false;
        continue;
      }
      *bytes += sizes[b];
      if (open && run + sizes[b] <= kFetchRangeBytes) {
        run += sizes[b];
        continue;
      }
      ranges++;
      run = sizes[b];
      open = true;
    }
  }
  return ranges;
}

// A standalone scan sends one GET per planned range, and those GETs move
// exactly the needed blocks' bytes: with block 1 pruned, the gap between
// blocks 0 and 2 is never read.
TEST(ScannerTest, OneGetPerCoalescedRangeAndNoGapBytes) {
  Fixture f;
  Scanner scanner(&f.store, "scan_table", "lake/");
  ASSERT_TRUE(scanner.Open().ok());
  const std::vector<u32> all = {0, 1, 2};

  // Block sizes id 73443/73849/24713, price 513293/513293/53007, city
  // 36070/22258/7718: id and city are one range each, price is three.
  ScanStats full;
  u64 before = f.store.total_bytes_fetched();
  ASSERT_TRUE(scanner.Scan(PipelinedSpec(), [](ColumnChunk&&) {}, &full).ok());
  u64 full_bytes = 0;
  EXPECT_EQ(full.requests,
            PlannedRanges(scanner.meta(), all, {false, false, false},
                          &full_bytes));
  EXPECT_EQ(full.requests, 5u) << "1 + 3 + 1 ranges";
  EXPECT_EQ(full.bytes_fetched, full_bytes);
  EXPECT_EQ(f.store.total_bytes_fetched() - before, full_bytes);

  // ids of block b lie in [b*1000, b*1000+999]: the OR prunes block 1
  // only, which splits id's and city's ranges in two: 2 + 2 + 2.
  ScanSpec spec = PipelinedSpec();
  spec.filter = PredicateExpr::Or(PredicateExpr::BetweenInt("id", 0, 999),
                                  PredicateExpr::BetweenInt("id", 2000, 2999));
  ScanOutput output;
  before = f.store.total_bytes_fetched();
  u64 before_requests = f.store.total_requests();
  Status status = scanner.Scan(spec, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(output.stats.blocks_pruned, 1u);
  EXPECT_EQ(output.block_outcomes[1], BlockOutcome::kPruned);
  u64 pruned_bytes = 0;
  EXPECT_EQ(output.stats.requests,
            PlannedRanges(scanner.meta(), all, {false, true, false},
                          &pruned_bytes));
  EXPECT_EQ(output.stats.requests, 6u) << "2 + 2 + 2 ranges";
  EXPECT_EQ(f.store.total_requests() - before_requests, 6u);
  EXPECT_EQ(output.stats.bytes_fetched, pruned_bytes);
  EXPECT_EQ(f.store.total_bytes_fetched() - before, pruned_bytes);
  u64 block1 = 0;
  for (u32 c : all) block1 += scanner.meta().columns[c].block_sizes[1];
  EXPECT_EQ(pruned_bytes + block1, full_bytes);
  for (u32 b : {0u, 2u}) {
    DecodedBlock reference;
    for (size_t c = 0; c < 3; c++) {
      DecompressBlock(f.compressed.columns[c].blocks[b].data(), &reference,
                      f.config);
      ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
    }
  }
}

// 14 columns of mixed part sizes (random ints over 192 KiB a block, small
// clustered ints and strings, doubles) scanned with one fetch thread and a
// one-range lookahead: the window counted in ranges must still let every
// row block assemble, and the rows must be bit-identical.
TEST(ScannerTest, FourteenMixedColumnsWithMinimalWindowComplete) {
  Relation table("mixed");
  constexpr u32 kMixedRows = 3 * kBlockCapacity + 5000;
  const char* cities[3] = {"oslo", "rome", "lima"};
  u64 state = 0x9E3779B97F4A7C15ull;
  for (u32 c = 0; c < 14; c++) {
    ColumnType type = c % 3 == 0   ? ColumnType::kInteger
                      : c % 3 == 1 ? ColumnType::kString
                                   : ColumnType::kDouble;
    Column& column = table.AddColumn("m" + std::to_string(c), type);
    for (u32 i = 0; i < kMixedRows; i++) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const u32 noise = static_cast<u32>(state >> 33);
      switch (type) {
        case ColumnType::kInteger:
          // Even columns: incompressible; odd ones: a few runs per block.
          column.AppendInt(c % 2 == 0 ? static_cast<i32>(noise)
                                      : static_cast<i32>(i / 4096));
          break;
        case ColumnType::kString:
          column.AppendString(cities[(c % 2 == 0 ? noise : i / 8192) % 3]);
          break;
        case ColumnType::kDouble:
          column.AppendDouble(c % 2 == 0 ? static_cast<double>(noise) / 7.0
                                         : static_cast<double>(i % 64));
          break;
      }
    }
  }
  CompressionConfig config;
  CompressedRelation compressed = CompressRelation(table, config);
  bool big = false, small = false;
  for (const CompressedColumn& column : compressed.columns) {
    for (const ByteBuffer& block : column.blocks) {
      big |= block.size() > kFetchRangeBytes;
      small |= block.size() < kFetchRangeBytes / 8;
    }
  }
  ASSERT_TRUE(big && small) << "the table must mix part sizes";
  s3sim::ObjectStore store;
  ASSERT_TRUE(
      UploadCompressedRelation(compressed, nullptr, "lake/", &store).ok());

  ScanSpec spec;
  spec.config.prefetch_depth = 1;
  spec.config.fetch_threads = 1;
  spec.config.scan_threads = 2;
  service::ScanServiceConfig service_config;
  service_config.fetch_threads = 1;
  service_config.decode_threads = 1;
  service::ScanService service(service_config);
  Scanner standalone(&store, "mixed", "lake/");
  Scanner serviced(service, "tenant", &store, "mixed", "lake/");
  for (Scanner* scanner : {&standalone, &serviced}) {
    ASSERT_TRUE(scanner->Open().ok());
    ScanOutput output;
    Status status = scanner->Scan(spec, &output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(output.columns.size(), 14u);
    EXPECT_EQ(output.stats.blocks_decoded, 4u);
    u64 bytes = 0;
    std::vector<u32> all(14);
    for (u32 c = 0; c < 14; c++) all[c] = c;
    EXPECT_EQ(output.stats.requests,
              PlannedRanges(scanner->meta(), all, std::vector<bool>(4, false),
                            &bytes));
    EXPECT_EQ(output.stats.bytes_fetched, bytes);
    for (size_t c = 0; c < 14; c++) {
      DecodedBlock reference;
      for (size_t b = 0; b < 4; b++) {
        DecompressBlock(compressed.columns[c].blocks[b].data(), &reference,
                        config);
        ExpectBlocksBitIdentical(reference, output.columns[c].blocks[b]);
      }
    }
  }
}

// A serviced scan over a partly warm cache looks every block up first and
// GETs only the runs of misses: after a scan that caches block 0 of every
// column, a full scan fetches blocks 1-2 of id and of city with one GET
// each and price's two blocks with one GET each (513293 + 53007 bytes do
// not fit one range): 4 GETs, 3 hits, 6 misses. Its rows equal a
// standalone scan's.
TEST(ScannerTest, PartlyWarmCacheGetsOnlyMissingBlocks) {
  Fixture f;
  service::ScanServiceConfig config;
  config.fetch_threads = 2;
  config.decode_threads = 2;
  service::ScanService service(config);
  Scanner serviced(service, "tenant", &f.store, "scan_table", "lake/");
  ASSERT_TRUE(serviced.Open().ok());

  ScanSpec warm_block0 = PipelinedSpec();
  warm_block0.filter = PredicateExpr::BetweenInt("id", 0, 999);
  ScanOutput warming;
  ASSERT_TRUE(serviced.Scan(warm_block0, &warming).ok());
  ASSERT_EQ(warming.stats.blocks_pruned, 2u);
  ASSERT_EQ(warming.stats.cache_misses, 3u);

  ScanOutput expected;
  {
    Scanner standalone(&f.store, "scan_table", "lake/");
    ASSERT_TRUE(standalone.Open().ok());
    ASSERT_TRUE(standalone.Scan(PipelinedSpec(), &expected).ok());
  }

  u64 before = f.store.total_requests();
  u64 bytes_before = f.store.total_bytes_fetched();
  ScanOutput output;
  Status status = serviced.Scan(PipelinedSpec(), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(output.stats.cache_hits, 3u);
  EXPECT_EQ(output.stats.cache_misses, 6u);
  EXPECT_EQ(output.stats.requests, 4u);
  EXPECT_EQ(f.store.total_requests() - before, 4u);
  u64 missing = 0;
  for (u32 c = 0; c < 3; c++) {
    for (u32 b : {1u, 2u}) missing += serviced.meta().columns[c].block_sizes[b];
  }
  EXPECT_EQ(output.stats.bytes_fetched, missing);
  EXPECT_EQ(f.store.total_bytes_fetched() - bytes_before, missing);

  EXPECT_EQ(output.block_outcomes, expected.block_outcomes);
  EXPECT_EQ(output.stats.rows_matched, expected.stats.rows_matched);
  for (size_t c = 0; c < expected.columns.size(); c++) {
    for (size_t b = 0; b < expected.columns[c].blocks.size(); b++) {
      ExpectBlocksBitIdentical(expected.columns[c].blocks[b],
                               output.columns[c].blocks[b]);
    }
  }
}

}  // namespace
}  // namespace btr
