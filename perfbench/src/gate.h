// Correctness gate of the lake benchmark.
//
// References come from the in-memory relation through the decode-then-
// filter oracle (btr::EvaluateExprDecoded), never from the compressed
// form, so a scan that agrees with its reference agrees with the input.
#ifndef LAKEBENCH_GATE_H_
#define LAKEBENCH_GATE_H_

#include <mutex>
#include <string>
#include <vector>

#include "btr/scanner.h"
#include "data.h"

namespace lakebench {

// What a query must return.
struct Reference {
  u64 rows = 0;          // result rows
  u64 result_bytes = 0;  // uncompressed bytes of the result's values
  u64 checksum = 0;      // order-sensitive hash of every result value
};

Reference ComputeReference(const btr::Relation& table, const Query& query);

// Folds the chunks one scan emits into what is compared with a Reference.
// Counting is cheap enough for timed ops; the value checksum buffers one
// row block and is meant for the untimed verification pass.
class ResultCollector {
 public:
  ResultCollector(size_t projected_columns, bool filtered, bool checksum);
  void Add(btr::ColumnChunk&& chunk);
  // Call after the scan returned; flushes the last buffered block.
  void Finish();

  u64 rows() const { return rows_; }
  u64 checksum() const { return checksum_; }
  // Every (block, column) pair arrived once, in ascending order.
  bool ordered() const { return ordered_; }
  // Outcome of every row block, in block order.
  const std::vector<btr::BlockOutcome>& outcomes() const { return outcomes_; }

 private:
  void FlushBlock();

  size_t columns_;
  bool filtered_;
  bool want_checksum_;
  u64 rows_ = 0;
  u64 checksum_ = 0;
  bool ordered_ = true;
  std::vector<btr::BlockOutcome> outcomes_;
  long long last_block_ = -1;
  long long last_column_ = -1;
  std::vector<btr::ColumnChunk> pending_;  // current block, checksum only
};

// Collects failed checks. Thread-safe.
class Gate {
 public:
  // Records a failure when `ok` is false; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  u64 failures() const;
  std::vector<std::string> messages() const;  // the first few failures

 private:
  mutable std::mutex mutex_;
  u64 failures_ = 0;
  std::vector<std::string> messages_;
};

// Compares one scan with its reference: result rows, matched rows as the
// scanner counted them, emission order and, when `with_checksum`, values.
bool CheckScan(const Reference& reference, const ResultCollector& observed,
               const btr::ScanStats& stats, bool with_checksum,
               std::string* why);

}  // namespace lakebench

#endif  // LAKEBENCH_GATE_H_
