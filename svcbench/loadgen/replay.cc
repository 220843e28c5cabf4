#include "replay.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <memory>

#include "bitpack/bitpacking.h"
#include "core/bos_codec.h"
#include "net/wire.h"
#include "spans.h"
#include "storage/store.h"
#include "storage/tsfile.h"
#include "storage/wal.h"
#include "util/macros.h"

namespace svcbench {

namespace fs = std::filesystem;
using bos::Bytes;
using bos::Status;
using bos::codecs::DataPoint;

namespace {

constexpr double kPointBytes = 16;  // raw (timestamp, value) pair
constexpr double kValueBytes = 8;
constexpr size_t kPageValues = 1024;

// Runs `pass` until at least 3 passes and 0.25 s (at most 15 passes) and
// returns the median pass time in seconds; a failing pass aborts with
// its status in `*err`. Each pass is one trace span under `root`.
template <typename F>
double MedianPassSeconds(uint64_t root, F&& pass, std::string* err) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 15 && (times.size() < 3 || total < 0.25)) {
    ScopedSpan span("replay.pass", root, 0);
    const int64_t t0 = NowNs();
    const Status st = pass(span.id());
    const double dt = static_cast<double>(NowNs() - t0) / 1e9;
    if (!st.ok()) {
      *err = st.ToString();
      return 0;
    }
    times.push_back(dt);
    total += dt;
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double Rate(double units, double seconds) {
  return seconds > 0 ? units / seconds : 0;
}

bos::storage::StoreOptions StoreOptionsFor(const ShardOptions& shard,
                                          const std::string& dir) {
  bos::storage::StoreOptions so;
  so.dir = dir;
  so.memtable_points = shard.memtable_points;
  so.spec = shard.spec;
  so.cache_mb = shard.cache_mb;
  so.threads = 0;
  so.wal_sync_every_n = 0;
  return so;
}

// Per-series sample points in time order (batches arrive in order).
std::map<std::string, std::vector<DataPoint>> GroupBySeries(
    const std::vector<ReplayBatch>& batches) {
  std::map<std::string, std::vector<DataPoint>> out;
  for (const ReplayBatch& b : batches) {
    auto& v = out[b.series];
    v.insert(v.end(), b.points.begin(), b.points.end());
  }
  return out;
}

std::string FreshDir(const std::string& base, const std::string& name) {
  const fs::path p = fs::path(base) / name;
  std::error_code ec;
  fs::remove_all(p, ec);
  fs::create_directories(p, ec);
  return p.string();
}

}  // namespace

std::string RunReplays(const ReplayInput& in, Metrics* out) {
  std::string err;
  uint64_t batch_points = 0;
  for (const ReplayBatch& b : in.batches) batch_points += b.points.size();
  const auto by_series = GroupBySeries(in.batches);

  // ---- net: wire frames -------------------------------------------------
  {
    ScopedSpan root("replay.net.wire.append_parse", 0, 0);
    std::vector<Bytes> frames;
    for (const ReplayBatch& b : in.batches) {
      bos::net::AppendRequest req{b.series, b.points};
      Bytes payload, frame;
      bos::net::EncodeAppendRequest(req, &payload);
      bos::net::EncodeFrame(static_cast<uint8_t>(bos::net::FrameType::kAppend),
                            payload, &frame);
      frames.push_back(std::move(frame));
    }
    const double s = MedianPassSeconds(root.id(), [&](uint64_t) {
      for (const Bytes& f : frames) {
        bos::net::FrameView view;
        size_t consumed = 0;
        BOS_RETURN_NOT_OK(bos::net::DecodeFrame(f, &view, &consumed));
        auto req = bos::net::ParseAppendRequest(view.payload);
        if (!req.ok()) return req.status();
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "wire parse replay: " + err;
    out->push_back({"net.wire.append_parse_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, s)});
  }

  // ---- storage: WAL -------------------------------------------------------
  {
    ScopedSpan root("replay.storage.wal.append", 0, 0);
    const double s = MedianPassSeconds(root.id(), [&](uint64_t) {
      const std::string dir = FreshDir(in.work_dir, "wal");
      bos::storage::WalWriter wal((fs::path(dir) / "wal").string());
      BOS_RETURN_NOT_OK(wal.Open());
      for (const ReplayBatch& b : in.batches) {
        for (const DataPoint& p : b.points) {
          BOS_RETURN_NOT_OK(wal.Append(b.series, p));
        }
      }
      wal.Close();
      return Status::OK();
    }, &err);
    if (!err.empty()) return "WAL replay: " + err;
    out->push_back({"storage.wal.append_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, s)});
  }

  // ---- storage: TsStore write path (bosd's shard options) -----------------
  {
    ScopedSpan root("replay.storage.store.write", 0, 0);
    std::vector<double> write_s, flush_ms;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan pass("replay.pass", root.id(), 0);
      const std::string dir = FreshDir(in.work_dir, "store-write");
      auto store = bos::storage::TsStore::Open(StoreOptionsFor(in.shard, dir));
      if (!store.ok()) return "store replay open: " + store.status().ToString();
      double writing = 0;
      size_t since_flush = 0;
      for (const ReplayBatch& b : in.batches) {
        // Flush explicitly where the memtable limit would trigger it, so
        // flushes are timed apart from WriteBatch itself.
        if (since_flush + b.points.size() >= in.shard.memtable_points) {
          ScopedSpan fspan("TsStore::Flush", pass.id(), 0);
          const int64_t f0 = NowNs();
          const Status st = (*store)->Flush();
          if (!st.ok()) return "store replay flush: " + st.ToString();
          flush_ms.push_back(static_cast<double>(NowNs() - f0) / 1e6);
          since_flush = 0;
        }
        const int64_t t0 = NowNs();
        const Status st = (*store)->WriteBatch(b.series, b.points);
        writing += static_cast<double>(NowNs() - t0) / 1e9;
        if (!st.ok()) return "store replay write: " + st.ToString();
        since_flush += b.points.size();
      }
      const int64_t f0 = NowNs();
      const Status st = (*store)->Flush();
      if (!st.ok()) return "store replay flush: " + st.ToString();
      flush_ms.push_back(static_cast<double>(NowNs() - f0) / 1e6);
      write_s.push_back(writing);
    }
    std::sort(write_s.begin(), write_s.end());
    std::sort(flush_ms.begin(), flush_ms.end());
    out->push_back({"storage.store.write_batch_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, write_s[1])});
    out->push_back({"storage.store.flush_ms", flush_ms[flush_ms.size() / 2]});
  }

  // ---- storage: TsStore / tsfile read path over a copy of bosd's store ---
  std::vector<std::vector<DataPoint>> responses;
  {
    const std::string copy = FreshDir(in.work_dir, "store-copy");
    std::error_code ec;
    fs::copy(in.store_dir, copy, fs::copy_options::recursive, ec);
    if (ec) return "copying the store: " + ec.message();

    std::vector<std::unique_ptr<bos::storage::TsStore>> shards;
    for (size_t i = 0; i < in.shard.shards; ++i) {
      const std::string dir =
          (fs::path(copy) / ("shard-" + std::to_string(i))).string();
      auto store = bos::storage::TsStore::Open(StoreOptionsFor(in.shard, dir));
      if (!store.ok()) return "store copy open: " + store.status().ToString();
      shards.push_back(std::move(store).value());
    }
    ScopedSpan root("replay.storage.store.query", 0, 0);
    uint64_t window_points = 0;
    const double s = MedianPassSeconds(root.id(), [&](uint64_t parent) {
      responses.clear();
      window_points = 0;
      for (const ReplayQuery& q : in.queries) {
        ScopedSpan span("TsStore::Query", parent, 0);
        auto& store = shards[bos::net::SeriesHash(q.series) % shards.size()];
        std::vector<DataPoint> points;
        BOS_RETURN_NOT_OK(store->Query(q.series, q.t_min, q.t_max, &points));
        window_points += points.size();
        if (q.pred) {
          std::erase_if(points, [&](const DataPoint& p) {
            return p.value < q.v_min || p.value > q.v_max;
          });
        }
        responses.push_back(std::move(points));
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "store query replay: " + err;
    out->push_back({"storage.store.query_mb_s",
                    Rate(window_points * kPointBytes / 1e6, s)});
    shards.clear();

    // The tsfile layer alone: every file of the copy, no page cache.
    std::vector<std::unique_ptr<bos::storage::TsFileReader>> readers;
    size_t series_in_files = 0;
    std::map<std::string, int> distinct;
    for (const auto& entry : fs::recursive_directory_iterator(copy)) {
      if (entry.path().extension() != ".tsfile") continue;
      auto reader = std::make_unique<bos::storage::TsFileReader>();
      const Status st = reader->Open(entry.path().string());
      if (!st.ok()) return "tsfile open: " + st.ToString();
      for (const auto& info : reader->series()) {
        ++series_in_files;
        ++distinct[info.name];
      }
      readers.push_back(std::move(reader));
    }
    out->push_back({"storage.files_per_series",
                    distinct.empty() ? 0
                                     : static_cast<double>(series_in_files) /
                                           static_cast<double>(distinct.size())});
    ScopedSpan troot("replay.storage.tsfile.read_range", 0, 0);
    uint64_t read_points = 0;
    const double ts = MedianPassSeconds(troot.id(), [&](uint64_t) {
      read_points = 0;
      std::vector<DataPoint> points;
      for (const ReplayQuery& q : in.queries) {
        for (auto& r : readers) {
          if (!r->FindSeries(q.series).ok()) continue;
          points.clear();
          BOS_RETURN_NOT_OK(r->ReadTimeRange(q.series, q.t_min, q.t_max, &points));
          read_points += points.size();
        }
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "tsfile replay: " + err;
    out->push_back({"storage.tsfile.read_range_mb_s",
                    Rate(read_points * kPointBytes / 1e6, ts)});
  }

  // ---- net: response encoding on the replayed query results -------------
  {
    ScopedSpan root("replay.net.wire.points_encode", 0, 0);
    uint64_t points = 0;
    for (const auto& r : responses) points += r.size();
    const double s = MedianPassSeconds(root.id(), [&](uint64_t) {
      Bytes body, frame;
      for (const auto& r : responses) {
        body.clear();
        frame.clear();
        bos::net::EncodePoints(r, &body);
        bos::net::EncodeFrame(static_cast<uint8_t>(bos::net::FrameType::kPoints),
                              body, &frame);
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "points encode replay: " + err;
    out->push_back({"net.wire.points_encode_mb_s",
                    Rate(points * kPointBytes / 1e6, s)});
  }

  // ---- storage: page encoding (flush's CPU half) -------------------------
  {
    ScopedSpan root("replay.storage.tsfile.encode_pages", 0, 0);
    const double s = MedianPassSeconds(root.id(), [&](uint64_t) {
      for (const auto& [name, points] : by_series) {
        auto enc = bos::storage::EncodeTimeSeriesPages(name, in.shard.spec,
                                                       points, kPageValues);
        if (!enc.ok()) return enc.status();
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "page encode replay: " + err;
    out->push_back({"storage.tsfile.encode_pages_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, s)});
  }

  // ---- codecs: the store's two-column series codec on page-sized chunks --
  {
    auto codec = bos::codecs::MakeTimeSeriesCodec(in.shard.spec);
    if (!codec.ok()) return "codec: " + codec.status().ToString();
    std::vector<std::span<const DataPoint>> chunks;
    for (const auto& [name, points] : by_series) {
      for (size_t i = 0; i < points.size(); i += kPageValues) {
        chunks.push_back(std::span<const DataPoint>(points).subspan(
            i, std::min(kPageValues, points.size() - i)));
      }
    }
    std::vector<Bytes> encoded(chunks.size());
    ScopedSpan root("replay.codecs.ts.compress", 0, 0);
    const double cs = MedianPassSeconds(root.id(), [&](uint64_t) {
      for (size_t i = 0; i < chunks.size(); ++i) {
        encoded[i].clear();
        BOS_RETURN_NOT_OK((*codec)->Compress(chunks[i], &encoded[i]));
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "codec compress replay: " + err;
    size_t bytes = 0;
    for (const Bytes& e : encoded) bytes += e.size();
    ScopedSpan droot("replay.codecs.ts.decompress", 0, 0);
    const double ds = MedianPassSeconds(droot.id(), [&](uint64_t) {
      std::vector<DataPoint> points;
      for (size_t i = 0; i < chunks.size(); ++i) {
        points.clear();
        BOS_RETURN_NOT_OK((*codec)->Decompress(encoded[i], &points));
        if (points.size() != chunks[i].size()) {
          return Status::Corruption("codec round trip lost points");
        }
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "codec decompress replay: " + err;
    out->push_back({"codecs.ts.compress_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, cs)});
    out->push_back({"codecs.ts.decompress_mb_s",
                    Rate(batch_points * kPointBytes / 1e6, ds)});
    out->push_back({"codecs.ts.bytes_per_point",
                    batch_points == 0 ? 0
                                      : static_cast<double>(bytes) /
                                            static_cast<double>(batch_points)});
  }

  // ---- core + bitpack: TS2DIFF residual blocks of the value columns ------
  {
    std::vector<std::vector<int64_t>> residuals;
    for (const auto& [name, points] : by_series) {
      for (size_t i = 0; i + 1 < points.size(); i += kPageValues) {
        const size_t n = std::min(kPageValues, points.size() - i);
        std::vector<int64_t> block;
        for (size_t k = 1; k < n; ++k) {
          block.push_back(static_cast<int64_t>(
              static_cast<uint64_t>(points[i + k].value) -
              static_cast<uint64_t>(points[i + k - 1].value)));
        }
        if (!block.empty()) residuals.push_back(std::move(block));
      }
    }
    uint64_t values = 0;
    for (const auto& r : residuals) values += r.size();

    const bos::core::BosOperator op(bos::core::SeparationStrategy::kBitWidth);
    std::vector<Bytes> encoded(residuals.size());
    ScopedSpan root("replay.core.bos.encode", 0, 0);
    const double es = MedianPassSeconds(root.id(), [&](uint64_t) {
      for (size_t i = 0; i < residuals.size(); ++i) {
        encoded[i].clear();
        BOS_RETURN_NOT_OK(op.Encode(residuals[i], &encoded[i]));
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "BOS encode replay: " + err;
    std::vector<int64_t> decoded;
    for (size_t i = 0; i < residuals.size(); ++i) {
      decoded.clear();
      size_t offset = 0;
      const Status st = op.Decode(encoded[i], &offset, &decoded);
      if (!st.ok() || decoded != residuals[i]) {
        return "BOS-B round trip differs on block " + std::to_string(i);
      }
    }
    ScopedSpan droot("replay.core.bos.decode", 0, 0);
    const double ds = MedianPassSeconds(droot.id(), [&](uint64_t) {
      for (size_t i = 0; i < residuals.size(); ++i) {
        decoded.clear();
        size_t offset = 0;
        BOS_RETURN_NOT_OK(op.Decode(encoded[i], &offset, &decoded));
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "BOS decode replay: " + err;
    out->push_back({"core.bos.encode_mb_s", Rate(values * kValueBytes / 1e6, es)});
    out->push_back({"core.bos.decode_mb_s", Rate(values * kValueBytes / 1e6, ds)});

    // Frame-of-reference widths of the same blocks: what plain bit
    // packing of each block needs.
    std::vector<std::vector<uint64_t>> rebased;
    std::vector<int> widths;
    double width_sum = 0;
    for (const auto& r : residuals) {
      const auto [mn, mx] = std::minmax_element(r.begin(), r.end());
      std::vector<uint64_t> u;
      for (int64_t v : r) {
        u.push_back(static_cast<uint64_t>(v) - static_cast<uint64_t>(*mn));
      }
      const int w = static_cast<int>(std::bit_width(
          static_cast<uint64_t>(*mx) - static_cast<uint64_t>(*mn)));
      widths.push_back(w);
      width_sum += w;
      rebased.push_back(std::move(u));
    }
    std::vector<Bytes> packed(rebased.size());
    ScopedSpan proot("replay.bitpack.pack", 0, 0);
    const double ps = MedianPassSeconds(proot.id(), [&](uint64_t) {
      for (size_t i = 0; i < rebased.size(); ++i) {
        packed[i].clear();
        bos::bitpack::PackFixedAligned(rebased[i], widths[i], &packed[i]);
      }
      return Status::OK();
    }, &err);
    std::vector<uint64_t> scratch(kPageValues);
    for (size_t i = 0; i < rebased.size(); ++i) {
      size_t offset = 0;
      const Status st = bos::bitpack::UnpackFixedAligned(
          packed[i], &offset, widths[i], rebased[i].size(), scratch.data());
      if (!st.ok() ||
          !std::equal(rebased[i].begin(), rebased[i].end(), scratch.begin())) {
        return "unpack round trip differs on block " + std::to_string(i);
      }
    }
    ScopedSpan uroot("replay.bitpack.unpack", 0, 0);
    const double us = MedianPassSeconds(uroot.id(), [&](uint64_t) {
      for (size_t i = 0; i < rebased.size(); ++i) {
        size_t offset = 0;
        BOS_RETURN_NOT_OK(bos::bitpack::UnpackFixedAligned(
            packed[i], &offset, widths[i], rebased[i].size(), scratch.data()));
      }
      return Status::OK();
    }, &err);
    if (!err.empty()) return "bitpack replay: " + err;
    out->push_back({"bitpack.pack_gb_s", Rate(values * kValueBytes / 1e9, ps)});
    out->push_back({"bitpack.unpack_gb_s", Rate(values * kValueBytes / 1e9, us)});
    out->push_back({"bitpack.mean_width",
                    widths.empty() ? 0 : width_sum / static_cast<double>(widths.size())});
  }
  std::error_code ec;
  fs::remove_all(in.work_dir, ec);
  return "";
}

}  // namespace svcbench
