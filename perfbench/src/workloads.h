// The three workloads of the lake benchmark and the metrics they report.
#ifndef LAKEBENCH_WORKLOADS_H_
#define LAKEBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "util/types.h"

namespace lakebench {

using btr::u64;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;  // lake-cold | dash-warm | ingest
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_path;  // spans of a traced run go here when set
};

struct RunResult {
  bool correct = true;  // every check of the correctness gate passed
  u64 attempted = 0;    // timed ops started
  u64 failed = 0;       // timed ops that failed, were throttled or wrong
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   // sample counts, sizes: the report
  std::vector<std::string> errors;  // gate failures
};

const std::vector<std::string>& WorkloadNames();
// Metric names and units in output order: the end-to-end set of an
// untraced run and the per-layer set of a traced run.
std::vector<std::pair<std::string, std::string>> EndToEndMetrics();
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

RunResult RunWorkload(const RunOptions& options);

}  // namespace lakebench

#endif  // LAKEBENCH_WORKLOADS_H_
