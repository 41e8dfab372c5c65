#include "gate.h"

#include <cstring>
#include <map>

namespace lakebench {

using btr::ColumnType;
using btr::DecodedBlock;
using btr::kBlockCapacity;

namespace {

u64 Mix(u64 h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

u64 HashBytes(const char* data, size_t n) {
  u64 h = 0xCBF29CE484222325ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 word = 0;
    std::memcpy(&word, data + i, 8);
    h = Mix(h, word);
  }
  u64 tail = 0;
  if (i < n) std::memcpy(&tail, data + i, n - i);
  return Mix(h, tail);
}

// Hash of row `i` of a decoded block; NULLs hash alike whatever value
// their slot holds.
u64 HashValue(const DecodedBlock& block, u32 i) {
  if (block.IsNull(i)) return 0x4E554C4Cull;
  switch (block.type) {
    case ColumnType::kInteger:
      return static_cast<u64>(static_cast<btr::u32>(block.ints[i])) + 1;
    case ColumnType::kDouble: {
      u64 bits = 0;
      std::memcpy(&bits, &block.doubles[i], sizeof(bits));
      return bits + 2;
    }
    case ColumnType::kString: {
      std::string_view s = block.strings.Get(i);
      return HashBytes(s.data(), s.size()) + 3;
    }
  }
  return 0;
}

u64 ValueBytes(const DecodedBlock& block, u32 i) {
  switch (block.type) {
    case ColumnType::kInteger: return sizeof(btr::i32);
    case ColumnType::kDouble: return sizeof(double);
    case ColumnType::kString: return block.strings.slots[i].length + sizeof(btr::u32);
  }
  return 0;
}

// Block `b` of an in-memory column in decoded form — the oracle's input.
DecodedBlock BlockFromColumn(const btr::Column& column, u32 b) {
  DecodedBlock out;
  out.type = column.type();
  u32 begin = b * kBlockCapacity;
  u32 count = std::min(kBlockCapacity, column.size() - begin);
  out.count = count;
  bool any_null = false;
  for (u32 r = 0; r < count; r++) any_null |= column.IsNull(begin + r);
  if (any_null) {
    out.null_flags.assign(column.null_flags().begin() + begin,
                          column.null_flags().begin() + begin + count);
  }
  switch (column.type()) {
    case ColumnType::kInteger:
      out.ints.assign(column.ints().begin() + begin,
                      column.ints().begin() + begin + count);
      break;
    case ColumnType::kDouble:
      out.doubles.assign(column.doubles().begin() + begin,
                         column.doubles().begin() + begin + count);
      break;
    case ColumnType::kString:
      for (u32 r = 0; r < count; r++) {
        std::string_view s = column.GetString(begin + r);
        out.strings.slots.push_back(
            {static_cast<btr::u32>(out.strings.pool.size()),
             static_cast<btr::u32>(s.size())});
        out.strings.pool.Append(reinterpret_cast<const btr::u8*>(s.data()),
                                s.size());
      }
      break;
  }
  return out;
}

// Folds the selected rows of one block, row-major over the projection.
void FoldRows(const std::vector<const DecodedBlock*>& columns,
              const std::vector<btr::u32>& rows, u64* checksum, u64* bytes) {
  for (btr::u32 r : rows) {
    for (const DecodedBlock* column : columns) {
      *checksum = Mix(*checksum, HashValue(*column, r));
      *bytes += ValueBytes(*column, r);
    }
  }
}

std::vector<btr::u32> AllRows(btr::u32 count) {
  std::vector<btr::u32> rows(count);
  for (btr::u32 i = 0; i < count; i++) rows[i] = i;
  return rows;
}

}  // namespace

Reference ComputeReference(const btr::Relation& table, const Query& query) {
  std::map<std::string, const btr::Column*> by_name;
  for (const btr::Column& column : table.columns()) by_name[column.name()] = &column;
  std::vector<std::string> needed = query.columns;
  for (const std::string& name : query.filter.Columns()) needed.push_back(name);

  Reference ref;
  const u32 blocks = (table.row_count() + kBlockCapacity - 1) / kBlockCapacity;
  for (u32 b = 0; b < blocks; b++) {
    std::map<std::string, DecodedBlock> decoded;
    for (const std::string& name : needed) {
      if (decoded.count(name) == 0) decoded[name] = BlockFromColumn(*by_name.at(name), b);
    }
    const u32 count = decoded.at(query.columns[0]).count;
    std::vector<btr::u32> rows;
    if (query.filter.Empty()) {
      rows = AllRows(count);
    } else {
      btr::EvalResult eval = btr::EvaluateExprDecoded(
          query.filter, count, [&](const std::string& name) -> const DecodedBlock* {
            auto it = decoded.find(name);
            return it == decoded.end() ? nullptr : &it->second;
          });
      rows = eval.pass.ToVector();
    }
    std::vector<const DecodedBlock*> projected;
    for (const std::string& name : query.columns) projected.push_back(&decoded.at(name));
    ref.rows += rows.size();
    FoldRows(projected, rows, &ref.checksum, &ref.result_bytes);
  }
  return ref;
}

ResultCollector::ResultCollector(size_t projected_columns, bool filtered,
                                 bool checksum)
    : columns_(projected_columns), filtered_(filtered), want_checksum_(checksum) {}

void ResultCollector::Add(btr::ColumnChunk&& chunk) {
  long long block = chunk.block, column = chunk.column;
  bool next_column = block == last_block_ && column == last_column_ + 1;
  bool next_block = block == last_block_ + 1 && column == 0 &&
                    (last_block_ < 0 || last_column_ + 1 == static_cast<long long>(columns_));
  if (!next_column && !next_block) ordered_ = false;
  if (next_block && want_checksum_) FlushBlock();
  last_block_ = block;
  last_column_ = column;
  if (column == 0) outcomes_.push_back(chunk.outcome);
  if (column == 0 && chunk.outcome == btr::BlockOutcome::kDecoded) {
    rows_ += filtered_ ? chunk.selection.Cardinality() : chunk.row_count;
  }
  if (want_checksum_) pending_.push_back(std::move(chunk));
}

void ResultCollector::Finish() {
  if (last_column_ + 1 != static_cast<long long>(columns_)) ordered_ = false;
  if (want_checksum_) FlushBlock();
}

void ResultCollector::FlushBlock() {
  if (pending_.empty()) return;
  const btr::ColumnChunk& first = pending_[0];
  if (first.outcome == btr::BlockOutcome::kDecoded && pending_.size() == columns_) {
    std::vector<const DecodedBlock*> projected;
    for (const btr::ColumnChunk& chunk : pending_) projected.push_back(&chunk.values);
    std::vector<btr::u32> rows =
        filtered_ ? first.selection.ToVector() : AllRows(first.row_count);
    u64 bytes = 0;
    FoldRows(projected, rows, &checksum_, &bytes);
  }
  pending_.clear();
}

bool Gate::Expect(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  failures_++;
  if (messages_.size() < 8) messages_.push_back(what);
  return false;
}

u64 Gate::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

std::vector<std::string> Gate::messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

bool CheckScan(const Reference& reference, const ResultCollector& observed,
               const btr::ScanStats& stats, bool with_checksum,
               std::string* why) {
  char buf[256];
  if (!observed.ordered()) {
    *why = "chunks out of (block, column) order or missing";
  } else if (observed.rows() != reference.rows) {
    std::snprintf(buf, sizeof(buf), "emitted %llu rows, reference %llu",
                  static_cast<unsigned long long>(observed.rows()),
                  static_cast<unsigned long long>(reference.rows));
    *why = buf;
  } else if (stats.rows_matched != reference.rows) {
    std::snprintf(buf, sizeof(buf), "matched %llu rows, reference %llu",
                  static_cast<unsigned long long>(stats.rows_matched),
                  static_cast<unsigned long long>(reference.rows));
    *why = buf;
  } else if (with_checksum && observed.checksum() != reference.checksum) {
    *why = "value checksum differs from the oracle";
  } else {
    return true;
  }
  return false;
}

}  // namespace lakebench
