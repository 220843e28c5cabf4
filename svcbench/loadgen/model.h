#ifndef SVCBENCH_MODEL_H_
#define SVCBENCH_MODEL_H_

// The benchmark's inputs and its model of what bosd must hold.
//
// Every series is generated from the seed alone: values from one of the
// twelve src/data dataset profiles, timestamps either perfectly regular
// (they flush as fixed-interval pages) or from GenerateTimestamps (jitter
// and gaps, flushed as explicit time columns). Points are sent in
// fixed 512-point batches, in order, by exactly one connection per
// series; the model records each batch's outcome, so the expected answer
// to any query is a function of the model alone.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codecs/timeseries.h"

namespace svcbench {

using bos::codecs::DataPoint;

inline constexpr size_t kBatchPoints = 512;

enum class BatchState : uint8_t { kUnsent, kAcked, kRefused, kError };

/// Order-independent checksum of a set of points: count plus a wrapping
/// sum of a 64-bit mix of each point.
struct Checksum {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(const DataPoint& p);
  friend bool operator==(const Checksum&, const Checksum&) = default;
};

Checksum ChecksumOf(const std::vector<DataPoint>& points);

/// One series: its generator parameters and the model of its batches.
class Series {
 public:
  Series(std::string name, int profile, bool regular, uint64_t seed);

  const std::string& name() const { return name_; }

  /// Extends the generated points to at least `n` (whole 64Ki chunks).
  /// Not thread-safe: call from the series' owner thread or before the
  /// measured phase.
  void Generate(size_t n);
  const std::vector<DataPoint>& points() const { return points_; }

  /// The points of batch `b` (generating them if needed).
  std::span<const DataPoint> Batch(size_t b);

  // Batch bookkeeping. The owner thread calls MarkSent before sending
  // batch `b` and Finish after its response; readers on other threads
  // see `finished()` batches' outcomes.
  /// Forgets every batch outcome (the store it described is gone).
  void Reset();
  void MarkSent(size_t b);
  void Finish(size_t b, BatchState state);
  size_t sent() const { return sent_.load(std::memory_order_acquire); }
  size_t finished() const { return finished_.load(std::memory_order_acquire); }
  BatchState state(size_t b) const {
    return b < states_.size() ? states_[b] : BatchState::kUnsent;
  }
  size_t acked_points() const;

  /// Points of acked batches < `batch_limit` with timestamp in
  /// [t_min, t_max] (and value in [v_min, v_max] when `pred`).
  Checksum Expected(int64_t t_min, int64_t t_max, bool pred, int64_t v_min,
                    int64_t v_max, size_t batch_limit) const;

  /// True when `got` equals Expected(...) for some number of applied
  /// batches between `lo` and `hi`: batches in flight while a query ran
  /// may or may not be visible to it, but only as a prefix.
  bool Matches(const Checksum& got, int64_t t_min, int64_t t_max, bool pred,
               int64_t v_min, int64_t v_max, size_t lo, size_t hi) const;

 private:
  std::string name_;
  int profile_;
  bool regular_;
  uint64_t seed_;
  std::vector<DataPoint> points_;
  std::vector<BatchState> states_;
  std::atomic<size_t> sent_{0};
  std::atomic<size_t> finished_{0};
};

/// The workload's series: `n` series cycling through the twelve dataset
/// profiles, half regular and half jittered per profile.
std::vector<std::unique_ptr<Series>> MakeSeries(size_t n, uint64_t seed);

/// SplitMix64 — the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over [0, n) via an inverse-CDF table.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

uint64_t Mix64(uint64_t x);

}  // namespace svcbench

#endif  // SVCBENCH_MODEL_H_
