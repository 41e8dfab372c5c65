#include "data.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "datagen/archetypes.h"
#include "datagen/tpch.h"
#include "util/random.h"

namespace lakebench {

using btr::Column;
using btr::ColumnType;
using btr::PredicateExpr;
using btr::Random;
using btr::Relation;
namespace dg = btr::datagen;

Relation MakeLakeTable(const std::string& name, u32 rows, u64 seed) {
  Relation table(name);
  const std::pair<const char*, dg::StringArchetype> strings[] = {
      {"s_city", dg::StringArchetype::kCityNames},
      {"s_street", dg::StringArchetype::kStreetAddresses},
      {"s_url", dg::StringArchetype::kUrls},
      {"s_category", dg::StringArchetype::kLowCardinality},
      {"s_status", dg::StringArchetype::kCategoryRuns},
      {"s_flag", dg::StringArchetype::kNullHeavy},
      {"s_segment", dg::StringArchetype::kSegmented},
      {"s_source", dg::StringArchetype::kOneValue}};
  const std::pair<const char*, dg::DoubleArchetype> doubles[] = {
      {"d_price", dg::DoubleArchetype::kPrice2Decimals},
      {"d_lon", dg::DoubleArchetype::kCoordinates},
      {"d_rate", dg::DoubleArchetype::kFrequencyTail}};
  const std::pair<const char*, dg::IntArchetype> ints[] = {
      {"i_id", dg::IntArchetype::kSequential},
      {"i_fk", dg::IntArchetype::kForeignKeyRuns},
      {"i_category", dg::IntArchetype::kSkewedCategory}};
  u64 c = 0;
  for (const auto& [column, archetype] : strings) {
    dg::FillString(&table.AddColumn(column, ColumnType::kString), archetype,
                   rows, seed * 131 + c++);
  }
  for (const auto& [column, archetype] : doubles) {
    dg::FillDouble(&table.AddColumn(column, ColumnType::kDouble), archetype,
                   rows, seed * 137 + c++);
  }
  for (const auto& [column, archetype] : ints) {
    dg::FillInt(&table.AddColumn(column, ColumnType::kInteger), archetype,
                rows, seed * 139 + c++);
  }
  return table;
}

Relation MakeLineitemBatch(u32 rows, u64 seed) {
  dg::TpchOptions options;
  options.lineitem_rows = rows;
  options.seed = seed;
  return dg::MakeLineitem(options);
}

Relation SliceRows(const Relation& table, u32 begin, u32 count) {
  Relation slice(table.name());
  for (const Column& src : table.columns()) {
    Column& dst = slice.AddColumn(src.name(), src.type());
    for (u32 r = begin; r < begin + count; r++) {
      if (src.IsNull(r)) {
        dst.AppendNull();
        continue;
      }
      switch (src.type()) {
        case ColumnType::kInteger: dst.AppendInt(src.ints()[r]); break;
        case ColumnType::kDouble: dst.AppendDouble(src.doubles()[r]); break;
        case ColumnType::kString: dst.AppendString(src.GetString(r)); break;
      }
    }
  }
  return slice;
}

std::vector<u32> Permutation(u32 n, u64 seed) {
  std::vector<u32> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Random rng(seed);
  for (u32 i = n; i > 1; i--) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

std::string Query::Describe() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < columns.size(); i++) {
    out += (i ? ", " : "") + columns[i];
  }
  if (!filter.Empty()) out += " WHERE " + filter.ToString();
  return out;
}

std::vector<Query> MakeColdCycle(const Relation& table, u64 seed) {
  const u32 n = static_cast<u32>(table.columns().size());
  std::vector<u32> order = Permutation(n, seed ^ 0xC01Dull);
  std::vector<Query> cycle;
  for (u32 i = 0; i < n; i++) {
    Query query;
    for (u32 offset : {0u, 1u, 3u}) {
      query.columns.push_back(table.columns()[order[(i + offset) % n]].name());
    }
    cycle.push_back(std::move(query));
  }
  return cycle;
}

namespace {

const Column& ColumnNamed(const Relation& table, const std::string& name) {
  for (const Column& column : table.columns()) {
    if (column.name() == name) return column;
  }
  BTR_CHECK_MSG(false, "lakebench: unknown column");
  return table.columns()[0];
}

// A non-null row of `column`, drawn uniformly.
u32 NonNullRow(const Column& column, Random* rng) {
  for (u32 attempt = 0; attempt < (1u << 20); attempt++) {
    u32 row = static_cast<u32>(rng->NextBounded(column.size()));
    if (!column.IsNull(row)) return row;
  }
  BTR_CHECK_MSG(false, "lakebench: literal column is all NULL");
  return 0;
}

// Sorted non-null values from a uniform row sample: the quantile grid
// range literals are drawn from.
template <typename T, typename Get>
std::vector<T> SortedSample(const Column& column, Random* rng, Get get) {
  std::vector<T> sample;
  for (u32 i = 0; i < 4096; i++) sample.push_back(get(NonNullRow(column, rng)));
  std::sort(sample.begin(), sample.end());
  return sample;
}

// Range [lo, hi] covering about `share` of the sampled values.
template <typename T>
std::pair<T, T> QuantileRange(const std::vector<T>& sorted, double share,
                              Random* rng) {
  size_t width = std::max<size_t>(1, static_cast<size_t>(share * sorted.size()));
  size_t lo = rng->NextBounded(sorted.size() - width + 1);
  return {sorted[lo], sorted[lo + width - 1]};
}

// Distinct values of a row sample, most frequent first. Equality and IN
// literals are taken by frequency rank, so a query's selectivity depends
// on the column's distribution, which every seed shares, not on the luck
// of one drawn row.
template <typename T, typename Get>
std::vector<T> ByFrequency(const Column& column, Random* rng, Get get) {
  std::map<T, u32> counts;
  for (u32 i = 0; i < 4096; i++) counts[get(NonNullRow(column, rng))]++;
  std::vector<std::pair<u32, T>> ranked;
  for (const auto& [value, count] : counts) ranked.push_back({count, value});
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<T> values;
  for (const auto& entry : ranked) values.push_back(entry.second);
  return values;
}

template <typename T>
const T& Rank(const std::vector<T>& by_frequency, size_t rank) {
  return by_frequency[std::min(rank, by_frequency.size() - 1)];
}

}  // namespace

std::vector<Query> MakeDashPool(const Relation& table, u64 seed) {
  Random rng(seed ^ 0xDA5Bull);
  const u32 n = static_cast<u32>(table.columns().size());
  BTR_CHECK_MSG(n == 14, "lakebench: the dashboard design assumes 14 columns");
  auto name = [&](u32 c) { return table.columns()[c].name(); };
  // Selectivity targets for range leaves, cycled: under 1% to about half.
  const double kShares[] = {0.005, 0.02, 0.1, 0.3, 0.5};

  const Column& id = ColumnNamed(table, "i_id");
  const Column& fk = ColumnNamed(table, "i_fk");
  const Column& category = ColumnNamed(table, "i_category");
  const Column& price = ColumnNamed(table, "d_price");
  const Column& lon = ColumnNamed(table, "d_lon");
  const Column& s_category = ColumnNamed(table, "s_category");
  const Column& status = ColumnNamed(table, "s_status");
  const Column& city = ColumnNamed(table, "s_city");
  auto int_at = [](const Column& c) { return [&c](u32 r) { return c.ints()[r]; }; };
  auto dbl_at = [](const Column& c) { return [&c](u32 r) { return c.doubles()[r]; }; };
  auto str_at = [](const Column& c) {
    return [&c](u32 r) { return std::string(c.GetString(r)); };
  };
  const auto id_grid = SortedSample<btr::i32>(id, &rng, int_at(id));
  const auto price_grid = SortedSample<double>(price, &rng, dbl_at(price));
  const auto lon_grid = SortedSample<double>(lon, &rng, dbl_at(lon));
  const auto city_grid = SortedSample<std::string>(city, &rng, str_at(city));
  const auto category_ranked = ByFrequency<btr::i32>(category, &rng, int_at(category));
  const auto fk_ranked = ByFrequency<btr::i32>(fk, &rng, int_at(fk));
  const auto s_category_ranked =
      ByFrequency<std::string>(s_category, &rng, str_at(s_category));
  const auto status_ranked = ByFrequency<std::string>(status, &rng, str_at(status));

  std::vector<Query> pool;
  // Wide scans read every column, in a seeded order: all alike, so the
  // tail they set does not depend on which columns a seed grouped.
  for (u32 w = 0; w < kDashWideScans; w++) {
    Query query;
    for (u32 c : Permutation(n, rng.Next())) query.columns.push_back(name(c));
    pool.push_back(std::move(query));
  }
  // Filtered queries: eight leaf kinds, four queries each. The four
  // projections of a kind (3, 4, 3 and 4 columns) partition the columns, so
  // every kind projects every column exactly once. The partitions are
  // fixed, not seeded: which columns share a query sets how op costs
  // spread, and with it p50, so it stays the same for every seed.
  const u32 kSlotBegin[] = {0, 3, 7, 10, 14};
  for (u32 q = 0; q < kDashFilteredQueries; q++) {
    const u32 kind = q / 4, slot = q % 4;
    Query query;
    for (u32 i = kSlotBegin[slot]; i < kSlotBegin[slot + 1]; i++) {
      query.columns.push_back(name((5 * i + 3 * kind) % n));
    }
    const double share = kShares[q % std::size(kShares)];
    const size_t rank = slot;
    switch (kind) {
      case 0: {  // int range on a clustered key: zone maps prune
        auto [lo, hi] = QuantileRange(id_grid, share, &rng);
        query.filter = PredicateExpr::BetweenInt("i_id", lo, hi);
        break;
      }
      case 1:
        query.filter = PredicateExpr::EqualsInt("i_category", Rank(category_ranked, rank));
        break;
      case 2:
        query.filter = PredicateExpr::InInt(
            "i_fk", {Rank(fk_ranked, rank), Rank(fk_ranked, rank + 4),
                     Rank(fk_ranked, rank + 8)});
        break;
      case 3: {
        auto [lo, hi] = QuantileRange(price_grid, share, &rng);
        query.filter = PredicateExpr::BetweenDouble("d_price", lo, hi);
        break;
      }
      case 4:
        query.filter = PredicateExpr::CompareDouble(
            "d_lon", btr::CompareOp::kLt,
            lon_grid[static_cast<size_t>(share * (lon_grid.size() - 1))]);
        break;
      case 5:
        query.filter =
            PredicateExpr::EqualsString("s_category", Rank(s_category_ranked, rank));
        break;
      case 6:
        query.filter = PredicateExpr::InString(
            "s_status", {Rank(status_ranked, rank), Rank(status_ranked, rank + 1)});
        break;
      default: {  // a string range AND an int range: two leaves, two types
        auto [lo, hi] = QuantileRange(city_grid, 0.5, &rng);
        auto [id_lo, id_hi] = QuantileRange(id_grid, std::min(1.0, 2 * share), &rng);
        query.filter = PredicateExpr::And(PredicateExpr::BetweenString("s_city", lo, hi),
                                          PredicateExpr::BetweenInt("i_id", id_lo, id_hi));
        break;
      }
    }
    pool.push_back(std::move(query));
  }
  return pool;
}

}  // namespace lakebench
