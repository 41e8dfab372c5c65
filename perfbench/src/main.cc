// lakebench: the repository's end-to-end benchmark.
//
//   lakebench --workload <lake-cold|dash-warm|ingest> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.json>]
//   lakebench --list-metrics <0|1>
//
// Prints a report, one provenance line, and as its last line the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// An untraced run (--trace 0) reports the end-to-end metrics, a traced run
// (--trace 1) the per-layer ones. Exits 1 when the correctness gate failed,
// 2 on bad arguments. perfbench/run.py builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Quote(const std::string& s) { return "\"" + btr::obs::JsonEscape(s) + "\""; }

int Usage() {
  std::fprintf(stderr,
               "usage: lakebench --workload <lake-cold|dash-warm|ingest> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "       lakebench --list-metrics <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lakebench::RunOptions options;
  int list_metrics = -1;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--list-metrics") {
      list_metrics = value == "1" ? 1 : 0;
    } else {
      return Usage();
    }
  }
  if (list_metrics >= 0) {
    for (const auto& [name, unit] : list_metrics ? lakebench::PerLayerMetrics()
                                                 : lakebench::EndToEndMetrics()) {
      std::printf("%s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  bool known = false;
  for (const std::string& name : lakebench::WorkloadNames()) known |= name == options.workload;
  if (!have_workload || !known || !have_seed || !have_seconds) return Usage();

  lakebench::RunResult result = lakebench::RunWorkload(options);

  std::printf("lakebench %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  for (const lakebench::Metric& m : result.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "lakebench: check failed: %s\n", error.c_str());
  }
  std::printf(
      "PROVENANCE {\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%u,\"cpu_model\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"avx2\":%s,\"btr_enable_tracing\":%s}\n",
      Quote(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      Quote(CpuModel()).c_str(), Quote(LAKEBENCH_COMPILER).c_str(),
      Quote(LAKEBENCH_BUILD_TYPE).c_str(), BTR_HAS_AVX2 ? "true" : "false",
      BTR_ENABLE_TRACING ? "true" : "false");

  std::string json = "{\"correct\":";
  json += result.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.attempted);
  json += ",\"failed\":" + std::to_string(result.failed);
  json += ",\"metrics\":{";
  char buf[128];
  for (size_t i = 0; i < result.metrics.size(); i++) {
    const lakebench::Metric& m = result.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i ? "," : "") + Quote(m.name) + ":{\"value\":" + buf +
            ",\"unit\":" + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
