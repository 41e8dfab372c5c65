// Sample statistics and process accounting for the lake benchmark.
#ifndef LAKEBENCH_STATS_H_
#define LAKEBENCH_STATS_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.h"

namespace lakebench {

using btr::u64;

// A percentile is reported only when at least this many samples lie
// beyond it, so a single slow op cannot be the whole tail.
inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
// samples, 0 < q < 1. Returns false, leaving *out untouched, when fewer
// than kMinTailSamples samples lie beyond that rank.
bool TailedPercentile(std::vector<double> samples, double q, double* out);

// Smallest sample count for which TailedPercentile(q) succeeds.
size_t MinSamplesFor(double q);

// Median of a non-empty set (mean of the two middle values when even).
double Median(std::vector<double> samples);

u64 NowNs();          // steady clock
u64 ThreadCpuNs();    // CPU time of the calling thread
double ProcessCpuSeconds();  // user + system time of the whole process
double PeakRssMb();   // high-water resident set size (VmHWM), 10^6 bytes

// Bytes the allocator has handed out and not yet had back (mallinfo2
// in-use plus mmapped chunks), 10^6 bytes. Unlike the resident set it does
// not count freed memory the allocator keeps for reuse, whose amount
// depends on how threads happened to interleave.
double HeapInUseMb();

struct HeapSample {
  u64 ns = 0;  // NowNs() when taken
  double mb = 0;
};

// Samples HeapInUseMb() less `excluded_mb()` every 5 ms on a background
// thread until Stop(). The period is short next to the shortest op
// (about 75 ms), so an op's highest sample lands near its peak.
class HeapSampler {
 public:
  explicit HeapSampler(std::function<double()> excluded_mb);
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  // Stops sampling (idempotent) and returns the samples in time order.
  std::vector<HeapSample> Stop();

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;                // guarded by mutex_
  std::vector<HeapSample> samples_;  // guarded by mutex_
  std::thread thread_;  // declared last: it uses the members above
};

}  // namespace lakebench

#endif  // LAKEBENCH_STATS_H_
