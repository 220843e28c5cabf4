#ifndef SVCBENCH_REPLAY_H_
#define SVCBENCH_REPLAY_H_

// Layer replays for the traced run: the workload's own batches and
// queries, pushed single-threaded and in-process through each layer's
// public entry points (wire codec, WAL, TsStore, tsfile, series codec,
// BOS operator, bit packing). Everything they write goes to a private
// directory; the final bosd store is only read, through a copy.

#include <string>
#include <utility>
#include <vector>

#include "codecs/timeseries.h"

namespace svcbench {

struct ReplayBatch {
  std::string series;
  std::vector<bos::codecs::DataPoint> points;
};

struct ReplayQuery {
  std::string series;
  int64_t t_min = 0;
  int64_t t_max = 0;
  bool pred = false;
  int64_t v_min = 0;
  int64_t v_max = 0;
};

/// What bosd ran with, so the store replays open TsStore the same way.
struct ShardOptions {
  size_t shards = 4;
  size_t memtable_points = 65536;
  size_t cache_mb = 1;
  std::string spec = "TS2DIFF+BOS-B|TS2DIFF+BOS-B";
};

struct ReplayInput {
  std::vector<ReplayBatch> batches;  // in send order
  std::vector<ReplayQuery> queries;  // in the order they were sent
  std::string store_dir;             // bosd's final (stopped) store
  std::string work_dir;              // private scratch for the replays
  ShardOptions shard;
};

using Metrics = std::vector<std::pair<std::string, double>>;

/// Runs every replay; appends "<module>.<metric>" values to `*out`.
/// Returns an empty string on success, else the first failure.
std::string RunReplays(const ReplayInput& in, Metrics* out);

}  // namespace svcbench

#endif  // SVCBENCH_REPLAY_H_
