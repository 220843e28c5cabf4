#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace svcbench {

namespace {

// Spans kept in memory at most; later ones are counted as dropped so a
// long traced run cannot grow without bound.
constexpr uint64_t kMaxSpans = 400000;

struct Event {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request_id;
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_request_id{1};
std::atomic<uint64_t> g_recorded{0};
std::atomic<uint64_t> g_dropped{0};

// Buffers are owned by g_buffers, so they outlive the threads that fill
// them; each is written only by its own thread and read after joins.
ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<int>(g_buffers.size());
  }
  return buffer;
}

bool Store(const Event& e) {
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_recorded.fetch_sub(1, std::memory_order_relaxed);
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  LocalBuffer()->events.push_back(e);
  return true;
}

}  // namespace

std::atomic<bool> Spans::enabled_{false};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Spans::Enable() { enabled_.store(true); }

uint64_t Spans::NewRequestId() {
  return g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Spans::recorded() { return g_recorded.load(); }
uint64_t Spans::dropped() { return g_dropped.load(); }

bool Spans::ExportChromeJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  int64_t origin = INT64_MAX;
  for (const auto& b : g_buffers) {
    for (const Event& e : b->events) origin = std::min(origin, e.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& b : g_buffers) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"svcbench-%d\"}}",
                 first ? "" : ",", b->tid, b->tid);
    first = false;
    for (const Event& e : b->events) {
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%llu,"
                   "\"parent_id\":%llu,\"request_id\":%llu}}",
                   e.name, b->tid,
                   static_cast<double>(e.start_ns - origin) / 1e3,
                   static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent),
                   static_cast<unsigned long long>(e.request_id));
    }
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(g_dropped.load()));
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request_id)
    : name_(name), parent_(parent), request_id_(request_id) {
  if (!Spans::enabled()) return;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Store({name_, start_ns_, NowNs(), id_, parent_, request_id_});
}

}  // namespace svcbench
