// svcbench_loadgen: the load generator and layer replayer behind
// svcbench/run.py. One invocation runs one workload end to end:
//
//   set-up   (repeated 3-9 times, each on a fresh store; the median
//             is setup_s): spawn bosd on loopback, connect, load
//             the workload's preload through bosd, flush.
//   measure  for --seconds: ingest | query | mixed (see svcbench/README.md).
//   check    every query answer against the model; ingest restarts bosd
//             (SIGTERM, same directory) and reads every acked point back;
//             mixed reads everything back before stopping.
//   replay   (--trace 1 only) the workload's batches and queries through
//             each layer's public entry points, in process.
//
// It writes one raw JSON object (--out) that run.py turns into metrics.
// Exit codes: 0 ok, 1 a result mismatched the model, 2 set-up or
// infrastructure failure, 3 operations were refused or failed.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bosd_process.h"
#include "model.h"
#include "net/client.h"
#include "replay.h"
#include "spans.h"

namespace svcbench {
namespace {

namespace fs = std::filesystem;
using bos::Status;
using bos::net::BosClient;

constexpr size_t kSeries = 64;
constexpr size_t kShards = 4;
constexpr size_t kCacheMb = 1;  // per shard: 4 MiB of page cache in all
// query: points loaded per series during set-up (compressed store is
// several times the 4 MiB total page cache).
constexpr size_t kQueryBatchesPerSeries = 220;
constexpr double kQueryPredicateShare = 0.25;
constexpr size_t kMinWindowPages = 1, kMaxWindowPages = 32;
// mixed: history loaded at set-up, the open-loop append rate (batches
// per second over both writers) and the tail window of the readers.
constexpr size_t kMixedPreloadBatches = 16;
constexpr double kMixedBatchesPerSecond = 500;
constexpr size_t kMixedTailPoints = 2048;
// Read-back window, in points, and the share of --seconds that ingest's
// read-back keeps repeating for (the first pass is the exactly-once check).
constexpr size_t kReadbackWindow = 4096;
constexpr double kIngestReadbackShare = 0.5;
// Replay sample: the first batches of each series, and the first queries.
constexpr size_t kReplayBatchesPerSeries = 4;
constexpr size_t kReplayQueries = 512;

const double kInf = std::numeric_limits<double>::infinity();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bosd;
  std::string work;
  std::string out;
  std::string fault = "none";  // none | checksum | refusal
};

struct OpCounts {
  std::atomic<uint64_t> attempted{0}, refused{0}, errors{0};
  void Count(const Status& st) {
    attempted.fetch_add(1);
    if (st.IsResourceExhausted()) {
      refused.fetch_add(1);
    } else if (!st.ok()) {
      errors.fetch_add(1);
    }
  }
};

struct QueryDesc {
  uint32_t series = 0;
  int64_t t_min = 0, t_max = 0;
  bool pred = false;
  int64_t v_min = 0, v_max = 0;
};

struct QueryRecord {
  QueryDesc q;
  size_t lo = 0, hi = 0;  // batches finished when sent / sent when answered
  Checksum got;
  bool ok = false;
};

/// One timed operation: when it completed, its latency (+inf when it
/// failed, so it misses every latency limit) and the points it moved
/// (acked by an append, returned by a query).
struct Sample {
  int64_t done_ns = 0;
  double ms = 0;
  uint64_t points = 0;
};

Sample MakeSample(int64_t start_ns, int64_t done_ns, const Status& st,
                  uint64_t points) {
  return {done_ns, st.ok() ? static_cast<double>(done_ns - start_ns) / 1e6 : kInf,
          st.ok() ? points : 0};
}

/// The samples of one phase and the time intervals it was measured over
/// (one per measured stretch, e.g. one per set-up load).
struct Phase {
  std::string name;
  std::vector<Sample> samples;
  std::vector<std::pair<int64_t, int64_t>> segments;
  std::mutex mu;
  void Merge(const std::vector<Sample>& local) {
    std::lock_guard<std::mutex> lock(mu);
    samples.insert(samples.end(), local.begin(), local.end());
  }
  void AddSegment(int64_t t0, int64_t t1) { segments.push_back({t0, t1}); }
};

double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- tiny JSON writer ------------------------------------------------------

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// A phase's summary. Every segment is cut into equal windows of at
/// least kWindowNs and, on average, kWindowSamples samples (so a window's
/// p99 has ten samples beyond it); the reported rates and percentiles are
/// the median over windows of each window's value, so a host stall
/// confined to a few windows (an fsync on a shared disk) moves them
/// little. The whole-run percentiles are reported beside them as run_*.
std::string PhaseJson(const Phase& p, double cap_ms) {
  constexpr int64_t kWindowNs = 1'000'000'000;
  constexpr int64_t kWindowSamples = 1000;
  auto capped = [&](const std::vector<double>& ms, double q) {
    const double v = NearestRank(ms, q);
    return std::isfinite(v) ? v : cap_ms;
  };
  std::vector<double> all, ok_rate, point_rate, p50, p99;
  uint64_t ok = 0, points = 0;
  double seconds = 0;
  for (const Sample& x : p.samples) {
    all.push_back(x.ms);
    if (std::isfinite(x.ms)) ++ok;
    points += x.points;
  }
  for (const auto& [s0, s1] : p.segments) {
    seconds += Seconds(s1 - s0);
    const auto in_segment = std::count_if(
        p.samples.begin(), p.samples.end(),
        [&](const Sample& x) { return x.done_ns >= s0 && x.done_ns <= s1; });
    const int64_t nwin = std::max<int64_t>(
        1, std::min<int64_t>((s1 - s0) / kWindowNs, in_segment / kWindowSamples));
    const int64_t len = std::max<int64_t>(1, (s1 - s0) / nwin);
    std::vector<std::vector<double>> ms(static_cast<size_t>(nwin));
    std::vector<uint64_t> wok(ms.size()), wpoints(ms.size());
    for (const Sample& x : p.samples) {
      if (x.done_ns < s0 || x.done_ns > s1) continue;
      const size_t w = static_cast<size_t>(std::min(nwin - 1, (x.done_ns - s0) / len));
      ms[w].push_back(x.ms);
      if (std::isfinite(x.ms)) ++wok[w];
      wpoints[w] += x.points;
    }
    for (size_t w = 0; w < ms.size(); ++w) {
      ok_rate.push_back(static_cast<double>(wok[w]) / Seconds(len));
      point_rate.push_back(static_cast<double>(wpoints[w]) / Seconds(len));
      if (ms[w].empty()) continue;
      p50.push_back(capped(ms[w], 0.50));
      p99.push_back(capped(ms[w], 0.99));
    }
  }
  return JsonObject()
      .Str("name", p.name)
      .Int("n", all.size())
      .Int("ok", ok)
      .Int("points", points)
      .Num("seconds", seconds)
      .Int("windows", ok_rate.size())
      .Num("ok_per_s", Median(ok_rate))
      .Num("points_per_s", Median(point_rate))
      .Num("p50_ms", Median(p50))
      .Num("p99_ms", Median(p99))
      .Raw("window_ok_per_s", JsonArray(ok_rate))
      .Raw("window_p99_ms", JsonArray(p99))
      .Num("run_p50_ms", capped(all, 0.50))
      .Num("run_p99_ms", capped(all, 0.99))
      .Num("run_p999_ms", capped(all, 0.999))
      .Num("run_max_ms", capped(all, 1.0))
      .str();
}

std::string FsTypeName(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

void RunThreads(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t k = 0; k < n; ++k) threads.emplace_back(fn, k);
  for (auto& t : threads) t.join();
}

// --- one benchmark run -------------------------------------------------------

class Run {
 public:
  explicit Run(Options o) : o_(std::move(o)) {}
  int Main();

 private:
  std::string StartBosd(bool fresh);
  std::string StopBosd();
  std::string Connect();
  std::string Snapshot(const char* key);

  // Operations: each counts its outcome in append_ops_ / query_ops_ and,
  // when tracing, records a root span with the client call as its child.
  Sample Append(BosClient& c, Series& s, size_t b, int64_t due_ns = 0);
  Status Query(BosClient& c, const QueryDesc& q, std::vector<bos::codecs::DataPoint>* out);

  std::string Setup();
  void Load(size_t batches_per_series, Phase* phase);
  void MeasureIngest();
  void MeasureQuery();
  void MeasureMixed();
  void ReadBack(Phase* phase, double min_seconds);
  void Verify(const std::vector<QueryRecord>& records);
  void Mismatch(const std::string& what);
  QueryDesc RandomQuery(Rng* rng) const;
  std::string Replay();
  void Report(const std::string& error);

  Options o_;
  size_t conns_ = 4;
  std::string store_dir_;
  std::vector<std::unique_ptr<Series>> series_;
  std::unique_ptr<BosdProcess> bosd_;
  std::vector<BosClient> clients_;
  size_t bosd_starts_ = 0;

  OpCounts append_ops_, query_ops_, other_ops_;
  std::vector<double> setup_s_;
  Phase append_phase_, query_phase_;
  std::vector<QueryRecord> records_;
  std::mutex records_mu_;
  double measured_s_ = 0;
  uint64_t measured_requests_ = 0;
  uint64_t pred_queries_ = 0, pred_window_points_ = 0, pred_returned_ = 0;
  std::vector<double> lag_ms_;
  uint64_t first_half_ = 0, second_half_ = 0;
  uint64_t peak_rss_kb_ = 0;
  uint64_t stored_bytes_ = 0;
  JsonObject stats_;
  Metrics replay_;
  std::string trace_file_;
  // query: per-series value band for predicate queries.
  std::vector<std::pair<int64_t, int64_t>> bands_;
  Zipf zipf_{kSeries, 1.1};

  std::mutex mismatch_mu_;
  bool correct_ = true;
  std::string first_mismatch_;
  bool fault_pending_ = false;
};

void Run::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(mismatch_mu_);
  if (correct_) first_mismatch_ = what;
  correct_ = false;
}

std::string Run::StartBosd(bool fresh) {
  std::error_code ec;
  if (fresh) fs::remove_all(store_dir_, ec);
  fs::create_directories(store_dir_, ec);
  std::vector<std::string> args = {
      "--dir=" + store_dir_, "--port=0", "--shards=" + std::to_string(kShards),
      "--cache-mb=" + std::to_string(kCacheMb)};
  // A forced refusal: a queue smaller than one batch refuses every append.
  if (o_.fault == "refusal") args.push_back("--max-pending-points=256");
  bosd_ = std::make_unique<BosdProcess>(o_.bosd, args, o_.work + "/bosd.log");
  ++bosd_starts_;
  const std::string err = bosd_->Start();
  if (!err.empty()) return err;
  return Connect();
}

std::string Run::StopBosd() {
  clients_.clear();
  if (!bosd_) return "";
  peak_rss_kb_ = std::max(peak_rss_kb_, bosd_->PeakRssKb());
  const std::string err = bosd_->Stop();
  bosd_.reset();
  return err;
}

std::string Run::Connect() {
  clients_.clear();
  for (size_t k = 0; k < conns_; ++k) {
    auto c = BosClient::Connect("127.0.0.1", bosd_->port());
    if (!c.ok()) return "connect: " + c.status().ToString();
    clients_.push_back(std::move(c).value());
  }
  return "";
}

std::string Run::Snapshot(const char* key) {
  if (!o_.trace) return "";
  auto json = clients_[0].StatsJson();
  other_ops_.Count(json.status());
  if (!json.ok()) return "stats: " + json.status().ToString();
  stats_.Raw(key, *json);
  return "";
}

Sample Run::Append(BosClient& c, Series& s, size_t b, int64_t due_ns) {
  const uint64_t req = Spans::enabled() ? Spans::NewRequestId() : 0;
  ScopedSpan root("append", 0, req);
  const auto points = s.Batch(b);
  s.MarkSent(b);
  const int64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan call("BosClient::Append", root.id(), req);
    st = c.Append(s.name(), points);
  }
  const int64_t t1 = NowNs();
  append_ops_.Count(st);
  s.Finish(b, st.ok() ? BatchState::kAcked
                      : st.IsResourceExhausted() ? BatchState::kRefused
                                                 : BatchState::kError);
  return MakeSample(due_ns != 0 ? due_ns : t0, t1, st, points.size());
}

Status Run::Query(BosClient& c, const QueryDesc& q,
                  std::vector<bos::codecs::DataPoint>* out) {
  const uint64_t req = Spans::enabled() ? Spans::NewRequestId() : 0;
  ScopedSpan root("query", 0, req);
  const std::string& name = series_[q.series]->name();
  Status st;
  if (q.pred) {
    ScopedSpan call("BosClient::QueryValueRange", root.id(), req);
    st = c.QueryValueRange(name, q.t_min, q.t_max, q.v_min, q.v_max, out);
  } else {
    ScopedSpan call("BosClient::QueryRange", root.id(), req);
    st = c.QueryRange(name, q.t_min, q.t_max, out);
  }
  query_ops_.Count(st);
  return st;
}

// Closed-loop load: connection k appends batches [0, n) of series k, k+C, ...
void Run::Load(size_t batches_per_series, Phase* phase) {
  const int64_t t0 = NowNs();
  RunThreads(conns_, [&](size_t k) {
    std::vector<Sample> samples;
    for (size_t b = 0; b < batches_per_series; ++b) {
      for (size_t s = k; s < series_.size(); s += conns_) {
        samples.push_back(Append(clients_[k], *series_[s], b));
      }
    }
    phase->Merge(samples);
  });
  phase->AddSegment(t0, NowNs());
}

std::string Run::Setup() {
  series_ = MakeSeries(kSeries, o_.seed);
  size_t preload = 0;
  if (o_.workload == "query") preload = kQueryBatchesPerSeries;
  if (o_.workload == "mixed") preload = kMixedPreloadBatches;
  const size_t mixed_batches =
      o_.workload == "mixed"
          ? static_cast<size_t>(o_.seconds * kMixedBatchesPerSecond / kSeries) + 2
          : 0;
  // Inputs are generated before any timing starts.
  for (auto& s : series_) s->Generate((preload + mixed_batches + 1) * kBatchPoints);
  if (o_.workload == "query") {
    for (auto& s : series_) {
      std::vector<int64_t> v;
      for (size_t i = 0; i < preload * kBatchPoints; ++i) v.push_back(s->points()[i].value);
      std::sort(v.begin(), v.end());
      bands_.push_back({v[v.size() / 4], v[v.size() * 3 / 4]});
    }
  }

  // Set-up repeats on a fresh store each time; the cheaper it is, the
  // more repetitions its median gets.
  const int reps = o_.workload == "query" ? 3 : o_.workload == "mixed" ? 5 : 9;
  Phase* load_phase = o_.workload == "query" ? &append_phase_ : nullptr;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& s : series_) s->Reset();
    Phase scratch;
    const int64_t t0 = NowNs();
    std::string err = StartBosd(/*fresh=*/true);
    if (!err.empty()) return err;
    if (rep == reps - 1) {
      err = Snapshot("start");
      if (!err.empty()) return err;
    }
    if (preload > 0) {
      Load(preload, load_phase != nullptr ? load_phase : &scratch);
      const Status st = clients_[0].Flush();
      other_ops_.Count(st);
      if (!st.ok()) return "set-up flush: " + st.ToString();
    }
    setup_s_.push_back(Seconds(NowNs() - t0));
    if (rep < reps - 1) {
      err = StopBosd();
      if (!err.empty()) return "stopping bosd after set-up: " + err;
    }
  }
  if (load_phase != nullptr) load_phase->name = "setup_load";
  return "";
}

void Run::MeasureIngest() {
  append_phase_.name = "measured";
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(o_.seconds * 1e9);
  RunThreads(conns_, [&](size_t k) {
    std::vector<Sample> samples;
    for (size_t b = 0; NowNs() < deadline; ++b) {
      for (size_t s = k; s < series_.size() && NowNs() < deadline; s += conns_) {
        samples.push_back(Append(clients_[k], *series_[s], b));
      }
    }
    append_phase_.Merge(samples);
  });
  const int64_t t1 = NowNs();
  append_phase_.AddSegment(t0, t1);
  measured_s_ = Seconds(t1 - t0);
  measured_requests_ = append_phase_.samples.size();
}

QueryDesc Run::RandomQuery(Rng* rng) const {
  QueryDesc q;
  // Zipf rank r is series r for every seed: which profiles are hot (and
  // so what a query costs) must not change from seed to seed.
  q.series = static_cast<uint32_t>(zipf_.Sample(rng));
  const auto& pts = series_[q.series]->points();
  const size_t n = kQueryBatchesPerSeries * kBatchPoints;
  // Window length: one page to many pages, log-uniform.
  const double pages = static_cast<double>(kMinWindowPages) *
                       std::pow(static_cast<double>(kMaxWindowPages / kMinWindowPages),
                                rng->Unit());
  const int64_t span = static_cast<int64_t>(pages * 1024) * 1000;  // ms
  const int64_t first = pts[0].timestamp, last = pts[n - 1].timestamp;
  const int64_t room = std::max<int64_t>(1, last - first - span);
  q.t_min = first + static_cast<int64_t>(rng->Below(static_cast<uint64_t>(room)));
  q.t_max = q.t_min + span - 1;
  if (rng->Unit() < kQueryPredicateShare) {
    q.pred = true;
    q.v_min = bands_[q.series].first;
    q.v_max = bands_[q.series].second;
  }
  return q;
}

void Run::MeasureQuery() {
  query_phase_.name = "measured";
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(o_.seconds * 1e9);
  RunThreads(conns_, [&](size_t k) {
    Rng rng(Mix64(o_.seed * 31 + k));
    std::vector<Sample> samples;
    std::vector<QueryRecord> recs;
    std::vector<bos::codecs::DataPoint> out;
    while (NowNs() < deadline) {
      QueryRecord r;
      r.q = RandomQuery(&rng);
      r.lo = r.hi = kQueryBatchesPerSeries;
      out.clear();
      const int64_t q0 = NowNs();
      const Status st = Query(clients_[k], r.q, &out);
      samples.push_back(MakeSample(q0, NowNs(), st, out.size()));
      r.ok = st.ok();
      r.got = ChecksumOf(out);
      recs.push_back(r);
    }
    query_phase_.Merge(samples);
    std::lock_guard<std::mutex> lock(records_mu_);
    records_.insert(records_.end(), recs.begin(), recs.end());
  });
  const int64_t t1 = NowNs();
  query_phase_.AddSegment(t0, t1);
  measured_s_ = Seconds(t1 - t0);
  measured_requests_ = query_phase_.samples.size();
}

void Run::MeasureMixed() {
  append_phase_.name = query_phase_.name = "measured";
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(o_.seconds * 1e9);
  const int64_t half = t0 + (deadline - t0) / 2;
  const size_t writers = conns_ / 2;
  const int64_t period =
      static_cast<int64_t>(1e9 * static_cast<double>(writers) / kMixedBatchesPerSecond);
  std::mutex lag_mu;
  std::atomic<uint64_t> first_half{0}, second_half{0};
  RunThreads(conns_, [&](size_t k) {
    std::vector<Sample> samples;
    if (k < writers) {
      // Open loop: request i is due at t0 + i * period, whatever happened
      // to request i - 1; latency runs from the due time.
      std::vector<size_t> mine;
      for (size_t s = k; s < series_.size(); s += writers) mine.push_back(s);
      std::vector<size_t> next(series_.size(), kMixedPreloadBatches);
      std::vector<double> lags;
      for (int64_t i = 0;; ++i) {
        const int64_t due = t0 + i * period;
        if (due >= deadline) break;
        const int64_t now = NowNs();
        if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        lags.push_back(static_cast<double>(std::max<int64_t>(0, NowNs() - due)) / 1e6);
        const size_t index = mine[static_cast<size_t>(i) % mine.size()];
        samples.push_back(Append(clients_[k], *series_[index], next[index]++, due));
        if (std::isfinite(samples.back().ms)) {
          (samples.back().done_ns < half ? first_half : second_half).fetch_add(1);
        }
      }
      append_phase_.Merge(samples);
      std::lock_guard<std::mutex> lock(lag_mu);
      lag_ms_.insert(lag_ms_.end(), lags.begin(), lags.end());
      return;
    }
    // Closed-loop dashboard readers: the newest kMixedTailPoints of a
    // random series, open-ended so in-flight batches may show up.
    Rng rng(Mix64(o_.seed * 37 + k));
    std::vector<QueryRecord> recs;
    std::vector<bos::codecs::DataPoint> out;
    while (NowNs() < deadline) {
      QueryRecord r;
      r.q.series = static_cast<uint32_t>(rng.Below(series_.size()));
      const Series& s = *series_[r.q.series];
      r.lo = s.finished();
      const size_t done_points = r.lo * kBatchPoints;
      r.q.t_min = s.points()[done_points > kMixedTailPoints
                                 ? done_points - kMixedTailPoints
                                 : 0]
                      .timestamp;
      r.q.t_max = std::numeric_limits<int64_t>::max();
      out.clear();
      const int64_t q0 = NowNs();
      const Status st = Query(clients_[k], r.q, &out);
      samples.push_back(MakeSample(q0, NowNs(), st, out.size()));
      r.hi = s.sent();
      r.ok = st.ok();
      r.got = ChecksumOf(out);
      recs.push_back(r);
    }
    query_phase_.Merge(samples);
    std::lock_guard<std::mutex> lock(records_mu_);
    records_.insert(records_.end(), recs.begin(), recs.end());
  });
  const int64_t t1 = NowNs();
  append_phase_.AddSegment(t0, t1);
  query_phase_.AddSegment(t0, t1);
  measured_s_ = Seconds(t1 - t0);
  measured_requests_ = append_phase_.samples.size() + query_phase_.samples.size();
  first_half_ = first_half.load();
  second_half_ = second_half.load();
}

// Disjoint time windows covering all time for one series: before its
// first point, kReadbackWindow sent points at a time, after its last.
std::vector<std::pair<int64_t, int64_t>> ReadbackWindows(const Series& s) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const size_t n = s.sent() * kBatchPoints;
  if (n == 0) return {{kMin, kMax}};
  const auto& pts = s.points();
  std::vector<std::pair<int64_t, int64_t>> windows = {{kMin, pts[0].timestamp - 1}};
  for (size_t i = 0; i < n; i += kReadbackWindow) {
    const size_t end = std::min(n, i + kReadbackWindow);
    windows.push_back(
        {pts[i].timestamp, end < n ? pts[end].timestamp - 1 : pts[n - 1].timestamp});
  }
  windows.push_back({pts[n - 1].timestamp + 1, kMax});
  return windows;
}

// Reads every series back in disjoint windows that cover all time, so
// each acked point must come back exactly once; passes repeat until
// `min_seconds` have gone by (at least one pass).
void Run::ReadBack(Phase* phase, double min_seconds) {
  const int64_t t0 = NowNs();
  const int64_t until = t0 + static_cast<int64_t>(min_seconds * 1e9);
  RunThreads(conns_, [&](size_t k) {
    std::vector<Sample> samples;
    std::vector<bos::codecs::DataPoint> out;
    do {
      for (size_t si = k; si < series_.size(); si += conns_) {
        const Series& s = *series_[si];
        const auto windows = ReadbackWindows(s);
        for (size_t w = 0; w < windows.size(); ++w) {
          QueryRecord r;
          r.q.series = static_cast<uint32_t>(si);
          r.q.t_min = windows[w].first;
          r.q.t_max = windows[w].second;
          out.clear();
          const int64_t q0 = NowNs();
          const Status st = Query(clients_[k], r.q, &out);
          // The two open-ended edge windows only prove nothing lies
          // outside the model; they are not timed.
          const bool edge = windows.size() > 1 && (w == 0 || w + 1 == windows.size());
          if (!edge) samples.push_back(MakeSample(q0, NowNs(), st, out.size()));
          r.lo = r.hi = s.sent();
          r.ok = st.ok();
          r.got = ChecksumOf(out);
          Verify({r});
        }
      }
    } while (NowNs() < until);
    phase->Merge(samples);
  });
  phase->AddSegment(t0, NowNs());
}

void Run::Verify(const std::vector<QueryRecord>& records) {
  for (const QueryRecord& r : records) {
    if (!r.ok) continue;  // counted as failed, nothing to compare
    const Series& s = *series_[r.q.series];
    Checksum got = r.got;
    {
      std::lock_guard<std::mutex> lock(mismatch_mu_);
      if (fault_pending_) {
        // Self-test: a corrupted expected checksum must fail the run.
        got.sum ^= 1;
        fault_pending_ = false;
      }
    }
    if (r.q.pred) {
      std::lock_guard<std::mutex> lock(mismatch_mu_);
      ++pred_queries_;
      pred_window_points_ +=
          s.Expected(r.q.t_min, r.q.t_max, false, 0, 0, r.hi).count;
      pred_returned_ += r.got.count;
    }
    if (!s.Matches(got, r.q.t_min, r.q.t_max, r.q.pred, r.q.v_min, r.q.v_max,
                   r.lo, r.hi)) {
      const Checksum want = s.Expected(r.q.t_min, r.q.t_max, r.q.pred, r.q.v_min,
                                       r.q.v_max, r.hi);
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "series %s window [%" PRId64 ", %" PRId64 "]%s: got %" PRIu64
                    " points (checksum %016" PRIx64 "), model says %" PRIu64
                    " (checksum %016" PRIx64 ")",
                    s.name().c_str(), r.q.t_min, r.q.t_max,
                    r.q.pred ? " with value predicate" : "", got.count, got.sum,
                    want.count, want.sum);
      Mismatch(buf);
    }
  }
}

std::string Run::Replay() {
  ReplayInput in;
  in.store_dir = store_dir_;
  in.work_dir = o_.work + "/replay";
  in.shard.shards = kShards;
  in.shard.cache_mb = kCacheMb;
  const size_t first = o_.workload == "mixed" ? kMixedPreloadBatches : 0;
  for (size_t b = first; b < first + kReplayBatchesPerSeries; ++b) {
    for (auto& s : series_) {
      if (s->state(b) != BatchState::kAcked) continue;
      const auto pts = s->Batch(b);
      in.batches.push_back({s->name(), {pts.begin(), pts.end()}});
    }
  }
  for (size_t i = 0; i < records_.size() && in.queries.size() < kReplayQueries; ++i) {
    const QueryDesc& q = records_[i].q;
    in.queries.push_back({series_[q.series]->name(), q.t_min, q.t_max, q.pred,
                          q.v_min, q.v_max});
  }
  return RunReplays(in, &replay_);
}

int Run::Main() {
  conns_ = std::min<size_t>(4, std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN)));
  store_dir_ = o_.work + "/store";
  std::error_code ec;
  fs::create_directories(o_.work, ec);
  fault_pending_ = o_.fault == "checksum";
  if (o_.trace) Spans::Enable();

  std::string err = Setup();
  if (err.empty()) err = Snapshot("before");
  if (err.empty()) {
    if (o_.workload == "ingest") MeasureIngest();
    if (o_.workload == "query") MeasureQuery();
    if (o_.workload == "mixed") MeasureMixed();
    err = Snapshot("after");
  }
  if (err.empty() && o_.workload == "mixed") {
    Phase readback;  // checked, not reported: mixed reports its measured reads
    ReadBack(&readback, 0);
  }
  if (err.empty()) {
    const Status st = clients_[0].Flush();
    other_ops_.Count(st);
    if (!st.ok()) err = "final flush: " + st.ToString();
  }
  if (err.empty()) err = Snapshot("final");
  if (err.empty()) {
    err = StopBosd();
    stored_bytes_ = DirBytes(store_dir_);
  }
  if (err.empty() && o_.workload == "ingest") {
    // Restart on the same directory: every acked point must survive
    // exactly once.
    query_phase_.name = "readback";
    err = StartBosd(/*fresh=*/false);
    if (err.empty()) ReadBack(&query_phase_, o_.seconds * kIngestReadbackShare);
    if (err.empty()) err = StopBosd();
  }
  if (err.empty() && o_.workload != "ingest") Verify(records_);
  if (err.empty() && o_.workload == "ingest") {
    // Read-back windows double as the replayed queries: the first few of
    // every series (skipping the open-ended edge window).
    for (size_t si = 0; si < series_.size(); ++si) {
      const auto windows = ReadbackWindows(*series_[si]);
      for (size_t w = 1; w + 1 < windows.size() &&
                         w <= kReplayQueries / series_.size(); ++w) {
        QueryRecord r;
        r.q.series = static_cast<uint32_t>(si);
        r.q.t_min = windows[w].first;
        r.q.t_max = windows[w].second;
        records_.push_back(r);
      }
    }
  }
  if (err.empty() && o_.trace) {
    err = Replay();
    if (err.empty()) {
      trace_file_ = o_.work + "/trace.json";
      if (!Spans::ExportChromeJson(trace_file_)) err = "cannot write " + trace_file_;
    }
  }
  if (bosd_) (void)StopBosd();
  Report(err);
  if (!err.empty()) return 2;
  if (!correct_) return 1;
  if (append_ops_.refused + append_ops_.errors + query_ops_.refused +
          query_ops_.errors + other_ops_.refused + other_ops_.errors > 0) {
    return 3;
  }
  return 0;
}

void Run::Report(const std::string& error) {
  auto ops = [](const OpCounts& c) {
    return JsonObject()
        .Int("attempted", c.attempted)
        .Int("refused", c.refused)
        .Int("errors", c.errors)
        .str();
  };
  const double cap_ms = std::max(measured_s_, 1.0) * 1e3;
  auto phase = [&](const Phase& p) { return PhaseJson(p, cap_ms); };
  std::string setup = "[";
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.9f", i ? "," : "", setup_s_[i]);
    setup += buf;
  }
  setup += "]";
  uint64_t acked = 0;
  for (const auto& s : series_) acked += s->acked_points();
  JsonObject replay;
  for (const auto& [k, v] : replay_) replay.Num(k, v);

  JsonObject env;
  env.Int("nproc", static_cast<uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Bool("avx2", __builtin_cpu_supports("avx2"))
      .Bool("bmi2", __builtin_cpu_supports("bmi2"))
      .Str("build_type", SVCBENCH_BUILD_TYPE)
      .Bool("telemetry", BOS_TELEMETRY_ENABLED != 0)
      .Str("store_fs", FsTypeName(o_.work))
      .Int("connections", conns_)
      .Int("shards", kShards)
      .Int("cache_mb_per_shard", kCacheMb);

  JsonObject out;
  out.Str("workload", o_.workload)
      .Int("seed", o_.seed)
      .Num("seconds", o_.seconds)
      .Bool("trace", o_.trace)
      .Raw("env", env.str())
      .Str("error", error)
      .Bool("correct", correct_ && error.empty())
      .Str("first_mismatch", first_mismatch_)
      .Raw("ops", JsonObject()
                      .Raw("append", ops(append_ops_))
                      .Raw("query", ops(query_ops_))
                      .Raw("other", ops(other_ops_))
                      .str())
      .Raw("setup_s", setup)
      .Raw("append_phase", phase(append_phase_))
      .Raw("query_phase", phase(query_phase_))
      .Raw("measured", JsonObject()
                           .Num("seconds", measured_s_)
                           .Int("requests", measured_requests_)
                           .Int("pred_queries", pred_queries_)
                           .Int("pred_window_points", pred_window_points_)
                           .Int("pred_returned", pred_returned_)
                           .str())
      .Int("points_acked", acked)
      .Int("stored_bytes", stored_bytes_)
      .Int("server_peak_rss_kb", peak_rss_kb_)
      .Int("bosd_starts", bosd_starts_)
      .Raw("loadgen", JsonObject()
                          .Num("lag_p99_ms", NearestRank(lag_ms_, 0.99))
                          .Int("lag_n", lag_ms_.size())
                          .Int("first_half", first_half_)
                          .Int("second_half", second_half_)
                          .str())
      .Raw("stats", stats_.str())
      .Raw("replay", replay.str())
      .Str("trace_file", trace_file_)
      .Int("spans_recorded", Spans::recorded())
      .Int("spans_dropped", Spans::dropped());
  std::FILE* f = std::fopen(o_.out.c_str(), "w");
  if (f != nullptr) {
    std::fputs(out.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "svcbench_loadgen: %s\nusage: svcbench_loadgen --workload "
               "ingest|query|mixed --seed N --seconds S --trace 0|1 --bosd PATH "
               "--work DIR --out FILE [--fault none|checksum|refusal]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  svcbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--bosd") o.bosd = v;
    else if (k == "--work") o.work = v;
    else if (k == "--out") o.out = v;
    else if (k == "--fault") o.fault = v;
    else return svcbench::Usage(("unknown flag " + k).c_str());
  }
  if (o.workload != "ingest" && o.workload != "query" && o.workload != "mixed") {
    return svcbench::Usage("--workload must be ingest, query or mixed");
  }
  if (o.bosd.empty() || o.work.empty() || o.out.empty() || !(o.seconds > 0)) {
    return svcbench::Usage("--bosd, --work, --out and --seconds > 0 are required");
  }
  if (o.fault != "none" && o.fault != "checksum" && o.fault != "refusal") {
    return svcbench::Usage("--fault must be none, checksum or refusal");
  }
  return svcbench::Run(o).Main();
}
