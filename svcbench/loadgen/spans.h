#ifndef SVCBENCH_SPANS_H_
#define SVCBENCH_SPANS_H_

// Benchmark-side trace spans. Every span has a name, start, end, parent
// span and request id; spans stay in per-thread memory while the run
// measures and are exported once, at the end, as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing).
//
// Recording is off unless Spans::Enable() was called, so the untraced
// run pays one relaxed load per would-be span.

#include <atomic>
#include <cstdint>
#include <string>

namespace svcbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

class Spans {
 public:
  /// Turns recording on for the rest of the process.
  static void Enable();
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh request id (1, 2, ...), shared by all spans of one request.
  static uint64_t NewRequestId();

  static uint64_t recorded();
  static uint64_t dropped();

  /// Writes every recorded span as {"traceEvents":[...]} to `path`.
  static bool ExportChromeJson(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span: reserves its id at construction so children can name it
/// as their parent, and records itself on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, uint64_t request_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t parent_;
  uint64_t request_id_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPANS_H_
