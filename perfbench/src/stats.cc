#include "stats.h"

#include <sys/resource.h>
#include <time.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lakebench {

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - static_cast<size_t>(std::ceil(q * static_cast<double>(n))) <
         kMinTailSamples) {
    n++;
  }
  return n;
}

bool TailedPercentile(std::vector<double> samples, double q, double* out) {
  if (!(q > 0 && q < 1) || samples.empty()) return false;
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (n - rank < kMinTailSamples) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[rank - 1];
  return true;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

u64 ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) * 1024.0 / 1e6;
      }
    }
    std::fclose(f);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double HeapInUseMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
}

HeapSampler::HeapSampler(std::function<double()> excluded_mb)
    : thread_([this, excluded_mb = std::move(excluded_mb)] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
          double excluded = excluded_mb();
          samples_.push_back({NowNs(), HeapInUseMb() - excluded});
          wake_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return stop_; });
        }
      }) {}

HeapSampler::~HeapSampler() { Stop(); }

std::vector<HeapSample> HeapSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(samples_);
}

}  // namespace lakebench
