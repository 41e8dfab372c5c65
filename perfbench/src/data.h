// Seeded inputs of the lake benchmark: tables, ingest batches and queries.
// Every function here is a pure function of its seed.
#ifndef LAKEBENCH_DATA_H_
#define LAKEBENCH_DATA_H_

#include <string>
#include <vector>

#include "btr/predicate.h"
#include "btr/relation.h"

namespace lakebench {

using btr::u32;
using btr::u64;

// Row blocks of the scanned table (1.024 M rows).
inline constexpr u32 kTableBlocks = 16;
inline constexpr u32 kTableRows = kTableBlocks * btr::kBlockCapacity;

// A Public-BI-like table of 14 columns (8 string, 3 double, 3 int). The
// archetype of each column is fixed, so every seed has the same column
// families and compresses alike; the seed draws the values.
btr::Relation MakeLakeTable(const std::string& name, u32 rows, u64 seed);

// TPC-H lineitem-like batch (14 columns).
btr::Relation MakeLineitemBatch(u32 rows, u64 seed);

// Rows [begin, begin + count) of `table` as a new relation.
btr::Relation SliceRows(const btr::Relation& table, u32 begin, u32 count);

struct Query {
  std::vector<std::string> columns;  // projection, in output order
  btr::PredicateExpr filter;         // empty: no filter
  std::string Describe() const;
};

// lake-cold: one cycle of 3-of-14-column projections without a filter.
// The cycle has one query per column and every column appears in exactly
// three of them, so a cycle fetches the same bytes for every seed; the
// seed decides which columns travel together and in what order.
std::vector<Query> MakeColdCycle(const btr::Relation& table, u64 seed);

// dash-warm: the pool of distinct dashboard queries. kDashWideScans are
// unfiltered scans of every column; kDashFilteredQueries project 3 or 4
// columns under one of eight kinds of range, IN or equality leaves on int,
// double and string columns, with selectivities from under 1% to about one
// half. The design is the same for every seed: each leaf kind projects
// every column once, in fixed groups, and selectivity targets are fixed.
// The seed draws the literals and the wide scans' column orders. One op in five is a wide scan, so p90
// falls among the wide scans and p50 among the filtered queries.
inline constexpr btr::u32 kDashWideScans = 8;
inline constexpr btr::u32 kDashFilteredQueries = 32;
std::vector<Query> MakeDashPool(const btr::Relation& table, u64 seed);

// A seeded permutation of [0, n).
std::vector<u32> Permutation(u32 n, u64 seed);

}  // namespace lakebench

#endif  // LAKEBENCH_DATA_H_
