#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace lakebench {

i64 SpanRecorder::Begin(const char* name, i64 parent, u64 op) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<i64>(spans_.size()) - 1;
}

void SpanRecorder::End(i64 id) { End(id, NowNs()); }

void SpanRecorder::End(i64 id, u64 end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

using Interval = std::pair<u64, u64>;

// Length of the union of `intervals` clipped to [lo, hi].
u64 CoveredNs(std::vector<Interval> intervals, u64 lo, u64 hi) {
  std::sort(intervals.begin(), intervals.end());
  u64 covered = 0, cursor = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, hi);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

std::vector<std::vector<size_t>> Children(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  return children;
}

}  // namespace

double WallUnaccountedRatio(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children = Children(spans);
  // Leaf intervals grouped under their root.
  std::vector<std::vector<Interval>> leaves(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    if (!children[i].empty() || spans[i].parent < 0) continue;
    size_t root = i;
    while (spans[root].parent >= 0) root = static_cast<size_t>(spans[root].parent);
    leaves[root].push_back({spans[i].start_ns, spans[i].end_ns});
  }
  u64 total = 0, uncovered = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent >= 0) continue;
    u64 wall = spans[i].end_ns - spans[i].start_ns;
    total += wall;
    uncovered += wall - CoveredNs(leaves[i], spans[i].start_ns, spans[i].end_ns);
  }
  return total == 0 ? 0.0 : static_cast<double>(uncovered) / total;
}

u64 SelfNs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<std::vector<size_t>> children = Children(spans);
  u64 self = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].name != name) continue;
    std::vector<Interval> kids;
    for (size_t c : children[i]) kids.push_back({spans[c].start_ns, spans[c].end_ns});
    u64 wall = spans[i].end_ns - spans[i].start_ns;
    self += wall - CoveredNs(std::move(kids), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

u64 TotalNs(const std::vector<Span>& spans, const std::string& name) {
  u64 total = 0;
  for (const Span& span : spans) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return total;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  u64 origin = ~0ull;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.op),
                  (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace lakebench
