// Self-tests of the lake benchmark's own helpers.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "btr/scanner.h"
#include "data.h"
#include "gate.h"
#include "stats.h"
#include "trace.h"

namespace lakebench {
namespace {

std::vector<double> Samples(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; i++) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(PercentileTest, RefusesWithoutTenSamplesBeyond) {
  double p = -1;
  EXPECT_FALSE(TailedPercentile(Samples(99), 0.9, &p));
  EXPECT_EQ(p, -1);
  ASSERT_TRUE(TailedPercentile(Samples(100), 0.9, &p));
  EXPECT_EQ(p, 90);
  EXPECT_FALSE(TailedPercentile(Samples(19), 0.5, &p));
  ASSERT_TRUE(TailedPercentile(Samples(20), 0.5, &p));
  EXPECT_EQ(p, 10);
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
}

TEST(SpanTest, UnaccountedIsTimeOutsideLeaves) {
  std::vector<Span> spans(3);
  spans[0] = {"op", 0, 100, -1, 1};
  spans[1] = {"scan", 10, 90, 0, 1};
  spans[2] = {"emit", 20, 50, 1, 1};
  EXPECT_DOUBLE_EQ(WallUnaccountedRatio(spans), 0.7);
  EXPECT_EQ(SelfNs(spans, "scan"), 50u);
  EXPECT_EQ(TotalNs(spans, "emit"), 30u);
}

class GateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeLakeTable("t", btr::kBlockCapacity + 5000, 7);
    btr::CompressedRelation compressed =
        btr::CompressRelation(table_, btr::CompressionConfig());
    ASSERT_TRUE(btr::UploadCompressedRelation(compressed, nullptr, "", &store_).ok());
    query_.columns = {"s_city", "d_price", "i_id"};
    query_.filter = btr::PredicateExpr::CompareInt("i_id", btr::CompareOp::kLt, 30000);
  }

  // Scans the query and folds the result; returns the scan status.
  btr::Status Scan(ResultCollector* collector, btr::ScanStats* stats) {
    btr::Scanner scanner(&store_, "t");
    btr::Status status = scanner.Open();
    if (!status.ok()) return status;
    btr::ScanSpec spec;
    spec.columns = query_.columns;
    spec.filter = query_.filter;
    status = scanner.Scan(
        spec, [&](btr::ColumnChunk&& chunk) { collector->Add(std::move(chunk)); }, stats);
    collector->Finish();
    return status;
  }

  btr::Relation table_{""};
  btr::s3sim::ObjectStore store_;
  Query query_;
};

TEST_F(GateTest, AcceptsTheOracleAndFlagsAWrongReference) {
  Reference ref = ComputeReference(table_, query_);
  ASSERT_GT(ref.rows, 0u);
  ResultCollector collector(query_.columns.size(), true, true);
  btr::ScanStats stats;
  ASSERT_TRUE(Scan(&collector, &stats).ok());
  std::string why;
  EXPECT_TRUE(CheckScan(ref, collector, stats, true, &why)) << why;

  Reference wrong_rows = ref;
  wrong_rows.rows++;
  EXPECT_FALSE(CheckScan(wrong_rows, collector, stats, false, &why));
  Reference wrong_values = ref;
  wrong_values.checksum ^= 1;
  EXPECT_FALSE(CheckScan(wrong_values, collector, stats, true, &why));
  // Counting alone does not look at values.
  EXPECT_TRUE(CheckScan(wrong_values, collector, stats, false, &why));

  Gate gate;
  gate.Expect(CheckScan(wrong_rows, collector, stats, false, &why), why);
  EXPECT_EQ(gate.failures(), 1u);
}

TEST_F(GateTest, ColdCycleUsesEveryColumnThreeTimes) {
  std::map<std::string, int> uses;
  for (const Query& query : MakeColdCycle(table_, 3)) {
    EXPECT_EQ(query.columns.size(), 3u);
    for (const std::string& column : query.columns) uses[column]++;
  }
  EXPECT_EQ(uses.size(), table_.columns().size());
  for (const auto& [column, count] : uses) EXPECT_EQ(count, 3) << column;
}

TEST_F(GateTest, DashPoolIsTheSameDesignForEverySeed) {
  for (u64 seed : {1, 2}) {
    std::vector<Query> pool = MakeDashPool(table_, seed);
    ASSERT_EQ(pool.size(), kDashWideScans + kDashFilteredQueries);
    EXPECT_EQ(pool.size(), 5 * kDashWideScans);  // one op in five is wide
    for (u32 q = 0; q < kDashWideScans; q++) {
      EXPECT_TRUE(pool[q].filter.Empty());
      EXPECT_EQ(pool[q].columns.size(), table_.columns().size());
    }
    // Each group of four filtered queries shares a leaf kind and projects
    // every column exactly once.
    for (u32 kind = 0; kind < kDashFilteredQueries / 4; kind++) {
      std::set<std::string> projected;
      for (u32 slot = 0; slot < 4; slot++) {
        const Query& query = pool[kDashWideScans + 4 * kind + slot];
        EXPECT_FALSE(query.filter.Empty());
        for (const std::string& column : query.columns) {
          EXPECT_TRUE(projected.insert(column).second) << column;
        }
      }
      EXPECT_EQ(projected.size(), table_.columns().size());
    }
  }
}

}  // namespace
}  // namespace lakebench
