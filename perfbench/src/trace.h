// In-memory span recorder for the traced benchmark run.
//
// Spans sit at the layer boundaries the benchmark can see from outside the
// library: around Scanner::Open, Scanner::Scan, each emit callback, and
// StreamingWriter::Begin/Append/Commit, under one root span per op. They
// are kept in memory and written out once, when the run ends.
#ifndef LAKEBENCH_TRACE_H_
#define LAKEBENCH_TRACE_H_

#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace lakebench {

using btr::i64;
using btr::u64;

struct Span {
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  i64 parent = -1;  // index of the parent span, -1 for an op's root
  u64 op = 0;       // op id shared by every span of one op
};

class SpanRecorder {
 public:
  // Opens a span and returns its id. Thread-safe.
  i64 Begin(const char* name, i64 parent, u64 op);
  void End(i64 id);
  void End(i64 id, u64 end_ns);  // closes the span at a recorded instant
  std::vector<Span> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span; does nothing when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, i64 parent, u64 op)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  i64 id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  i64 id_;
};

// Share of root-span (op) wall time that no leaf span covers: the time an
// op spent inside a layer call whose inside the trace cannot see.
double WallUnaccountedRatio(const std::vector<Span>& spans);

// Sum, over spans named `name`, of duration minus the part of it that
// their direct children cover (self time), in nanoseconds.
u64 SelfNs(const std::vector<Span>& spans, const std::string& name);

// Sum of durations of spans named `name`, in nanoseconds.
u64 TotalNs(const std::vector<Span>& spans, const std::string& name);

// Chrome trace-event JSON ("X" events; pid 1, tid = op id).
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace lakebench

#endif  // LAKEBENCH_TRACE_H_
