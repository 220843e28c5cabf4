#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/dataset.h"

namespace svcbench {

namespace {

constexpr size_t kChunkPoints = 65536;  // generation granularity
constexpr int64_t kStartMs = 1700000000000;
constexpr int64_t kIntervalMs = 1000;

bool InWindow(const DataPoint& p, int64_t t_min, int64_t t_max, bool pred,
              int64_t v_min, int64_t v_max) {
  return p.timestamp >= t_min && p.timestamp <= t_max &&
         (!pred || (p.value >= v_min && p.value <= v_max));
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  return Mix64(state_ - 0x9E3779B97F4A7C15ull);
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  cdf_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

void Checksum::Add(const DataPoint& p) {
  ++count;
  sum += Mix64(static_cast<uint64_t>(p.timestamp) * 0x2545F4914F6CDD1Dull ^
               static_cast<uint64_t>(p.value));
}

Checksum ChecksumOf(const std::vector<DataPoint>& points) {
  Checksum c;
  for (const DataPoint& p : points) c.Add(p);
  return c;
}

Series::Series(std::string name, int profile, bool regular, uint64_t seed)
    : name_(std::move(name)), profile_(profile), regular_(regular), seed_(seed) {}

void Series::Generate(size_t n) {
  const auto& info = bos::data::AllDatasets()[static_cast<size_t>(profile_)];
  while (points_.size() < n) {
    const uint64_t chunk = points_.size() / kChunkPoints;
    const uint64_t chunk_seed = Mix64(seed_ ^ Mix64(chunk + 1));
    const std::vector<int64_t> values =
        bos::data::GenerateInteger(info, kChunkPoints, chunk_seed);
    const int64_t start =
        points_.empty() ? kStartMs : points_.back().timestamp + kIntervalMs;
    std::vector<int64_t> ts;
    if (regular_) {
      ts.resize(kChunkPoints);
      for (size_t i = 0; i < kChunkPoints; ++i) {
        ts[i] = start + static_cast<int64_t>(i) * kIntervalMs;
      }
    } else {
      ts = bos::data::GenerateTimestamps(kChunkPoints, start, kIntervalMs,
                                         chunk_seed);
    }
    for (size_t i = 0; i < kChunkPoints; ++i) {
      points_.push_back({ts[i], values[i]});
    }
  }
  states_.resize(points_.size() / kBatchPoints, BatchState::kUnsent);
}

std::span<const DataPoint> Series::Batch(size_t b) {
  Generate((b + 1) * kBatchPoints);
  return std::span<const DataPoint>(points_).subspan(b * kBatchPoints,
                                                     kBatchPoints);
}

void Series::Reset() {
  std::fill(states_.begin(), states_.end(), BatchState::kUnsent);
  sent_.store(0);
  finished_.store(0);
}

void Series::MarkSent(size_t b) { sent_.store(b + 1, std::memory_order_release); }

void Series::Finish(size_t b, BatchState state) {
  states_[b] = state;
  finished_.store(b + 1, std::memory_order_release);
}

size_t Series::acked_points() const {
  return kBatchPoints * static_cast<size_t>(std::count(
                            states_.begin(), states_.end(), BatchState::kAcked));
}

Checksum Series::Expected(int64_t t_min, int64_t t_max, bool pred,
                          int64_t v_min, int64_t v_max,
                          size_t batch_limit) const {
  Checksum c;
  auto it = std::partition_point(
      points_.begin(), points_.end(),
      [t_min](const DataPoint& p) { return p.timestamp < t_min; });
  const size_t end = std::min(points_.size(), batch_limit * kBatchPoints);
  for (size_t i = static_cast<size_t>(it - points_.begin()); i < end; ++i) {
    const DataPoint& p = points_[i];
    if (p.timestamp > t_max) break;
    if (states_[i / kBatchPoints] != BatchState::kAcked) continue;
    if (InWindow(p, t_min, t_max, pred, v_min, v_max)) c.Add(p);
  }
  return c;
}

bool Series::Matches(const Checksum& got, int64_t t_min, int64_t t_max,
                     bool pred, int64_t v_min, int64_t v_max, size_t lo,
                     size_t hi) const {
  Checksum want = Expected(t_min, t_max, pred, v_min, v_max, lo);
  if (want == got) return true;
  for (size_t b = lo; b < hi && b < states_.size(); ++b) {
    if (states_[b] != BatchState::kAcked) continue;
    for (size_t i = b * kBatchPoints; i < (b + 1) * kBatchPoints; ++i) {
      if (InWindow(points_[i], t_min, t_max, pred, v_min, v_max)) {
        want.Add(points_[i]);
      }
    }
    if (want == got) return true;
  }
  return false;
}

std::vector<std::unique_ptr<Series>> MakeSeries(size_t n, uint64_t seed) {
  const auto& profiles = bos::data::AllDatasets();
  std::vector<std::unique_ptr<Series>> out;
  for (size_t i = 0; i < n; ++i) {
    const size_t profile = i % profiles.size();
    // Alternate the timestamp kind per profile round, so every profile
    // appears with both regular and jittered timestamps.
    const bool regular = ((i / profiles.size()) + i) % 2 == 0;
    char name[64];
    std::snprintf(name, sizeof(name), "dev%02zu.%s.%s", i,
                  profiles[profile].abbr.c_str(), regular ? "fixed" : "jitter");
    out.push_back(std::make_unique<Series>(name, static_cast<int>(profile),
                                           regular, Mix64(seed * 1000003 + i)));
  }
  return out;
}

}  // namespace svcbench
