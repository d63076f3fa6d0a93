#ifndef MRCOST_ENGINE_DIST_ROUND_H_
#define MRCOST_ENGINE_DIST_ROUND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/engine/emitter.h"
#include "src/engine/executor.h"
#include "src/engine/grouping.h"
#include "src/engine/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/block.h"
#include "src/storage/run_writer.h"
#include "src/storage/serde.h"
#include "src/storage/spill_file.h"
#include "src/storage/wire_run.h"

namespace mrcost::engine::internal {

// The multi-process lowering of one plan round. A round node whose typed
// closures were captured at plan-build time cannot cross a process
// boundary; what can cross is data. MakeDistRoundOps therefore wraps the
// node's map/combine/reduce closures into four type-erased operations:
//
//   coordinator   write_chunk : input slot slice -> framed chunk file
//   worker        run_map     : chunk file -> MapBlock + RouteRows -> one
//                               run per shard, the shard's rows in emission
//                               order as raw frames in the worker's
//                               RunRegistry (pos = MakeSpillPos)
//   worker        run_reduce  : stream one shard's runs in chunk order
//                               from their owners' data sockets ->
//                               GroupRuns -> ReduceGroups -> framed result
//                               file
//   coordinator   collect     : result files -> output slot + JobMetrics
//
// The worker runs the in-process round body (src/engine/executor.h) and
// groups its runs with the kernel an external in-process shard uses
// (GroupRuns, src/engine/grouping.h), so only the shuffle's transport
// differs between the backends. Both the
// coordinator and the worker binary rebuild the identical plan from the
// recipe registry (src/dist/registry.h), so node indices line up and each
// side invokes the ops it needs. Outputs are byte-identical to the
// in-process backend: a reducer groups its runs in chunk order, so each
// group's first position (CsrGroups::first, written as first_pos) is its
// minimum emission position, and collect restores the engine's global
// first-seen key order by sorting groups on it — the same scan-order
// contract StagedRound::Finalize enforces in-process.

/// One run a map task published for one reduce shard.
struct DistRunInfo {
  std::uint32_t shard = 0;
  std::uint64_t rows = 0;
  /// The run's id in the owner worker's RunRegistry.
  std::string run_id;
};

/// What one map task reports back: its runs and the MapCounters an
/// in-process map task fills, so the merged JobMetrics match.
struct DistMapOutcome {
  std::vector<DistRunInfo> runs;
  MapCounters counters;
  /// Runs the registry could not keep in memory, and the overflow file
  /// bytes they took.
  std::uint64_t spill_runs = 0;
  std::uint64_t spill_bytes_written = 0;
};

struct DistMapSpec {
  std::string chunk_path;
  std::uint32_t node = 0;  // the plan node, for trace tagging
  std::uint32_t chunk_index = 0;
  std::uint32_t num_shards = 1;
  /// Runs are published as `<run_prefix>-s<shard>.wire`; the coordinator
  /// bakes the attempt number into the prefix so a re-issued task never
  /// collides with a dead worker's runs.
  std::string run_prefix;
  /// The worker-local registry the runs go to; reducers fetch them from
  /// it over the owner's data socket. Required.
  storage::RunRegistry* run_registry = nullptr;
};

struct DistReduceSpec {
  std::uint32_t node = 0;  // the plan node, for trace tagging
  std::uint32_t shard = 0;
  /// Run ids to fetch in chunk order, and parallel to them, each owner's
  /// data endpoint.
  std::vector<std::string> run_ids;
  std::vector<std::string> run_endpoints;
  /// Rows across the runs (the sum of their DistRunInfo::rows): sizes the
  /// reducer's group buffers.
  std::uint64_t rows = 0;
  /// Per-source block credit window (PhysicalRound::fetch_credits).
  std::uint32_t fetch_credits = 1;
  std::string result_path;
};

struct DistRoundOps {
  std::function<common::Status(const std::shared_ptr<void>& input_slot,
                               std::size_t lo, std::size_t hi,
                               const std::string& path)>
      write_chunk;
  std::function<common::Result<DistMapOutcome>(const DistMapSpec&)> run_map;
  std::function<common::Status(const DistReduceSpec&)> run_reduce;
  std::function<common::Result<std::shared_ptr<void>>(
      const std::vector<std::string>& result_paths, JobMetrics& metrics)>
      collect;
};

/// Flush granularity of the framed chunk/result files (well under the
/// spill reader's block-size ceiling).
inline constexpr std::size_t kDistFileBlockBytes = std::size_t{4} << 20;

/// The one format of chunk and result files: a value-format spill file
/// whose blocks each hold SerializeValue(count) and then `count` records,
/// a block closing once its records reach kDistFileBlockBytes.
class FramedValueWriter {
 public:
  static common::Result<FramedValueWriter> Create(const std::string& path) {
    auto file = storage::SpillFileWriter::Create(
        path, storage::kSpillFormatVersionValues);
    if (!file.ok()) return file.status();
    return FramedValueWriter(std::move(file.value()));
  }

  /// Appends one record: `fields`, serialized back to back.
  template <typename... Fields>
  common::Status Append(const Fields&... fields) {
    (storage::SerializeValue(fields, payload_), ...);
    ++count_;
    return payload_.size() >= kDistFileBlockBytes ? Flush()
                                                  : common::Status::Ok();
  }

  /// Writes the last partial block and closes the file.
  common::Status Close() {
    if (count_ > 0) {
      if (auto status = Flush(); !status.ok()) return status;
    }
    return writer_.Close();
  }

 private:
  explicit FramedValueWriter(storage::SpillFileWriter writer)
      : writer_(std::move(writer)) {}

  common::Status Flush() {
    std::string framed;
    storage::SerializeValue(count_, framed);
    framed.append(payload_);
    payload_.clear();
    count_ = 0;
    return writer_.AppendBlock(framed);
  }

  storage::SpillFileWriter writer_;
  std::string payload_;
  std::uint64_t count_ = 0;
};

/// Reads a FramedValueWriter file back, calling `read_record(p, end)` once
/// per record; it parses one record from [p, end), advancing p, and
/// returns false on corrupt bytes. `what` prefixes the error.
template <typename ReadRecord>
common::Status ReadFramedValues(const std::string& path, const char* what,
                                ReadRecord&& read_record) {
  auto file = storage::SpillFileReader::Open(path);
  if (!file.ok()) return file.status();
  storage::SpillFileReader reader = std::move(file.value());
  std::string payload;
  bool done = false;
  while (true) {
    if (auto status = reader.Next(payload, done); !status.ok()) return status;
    if (done) return common::Status::Ok();
    const char* p = payload.data();
    const char* end = p + payload.size();
    std::uint64_t count = 0;
    if (!storage::DeserializeValue(p, end, count)) {
      return common::Status::Internal(std::string(what) + ": corrupt block");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!read_record(p, end)) {
        return common::Status::Internal(std::string(what) +
                                        ": corrupt record");
      }
    }
  }
}

template <typename In, typename K, typename V, typename Out>
DistRoundOps MakeDistRoundOps(
    std::function<void(const In&, Emitter<K, V>&)> map_fn,
    std::function<V(V, V)> combine_fn,
    std::function<void(const K&, GroupView<V>, std::vector<Out>&)>
        reduce_fn) {
  DistRoundOps ops;

  ops.write_chunk = [](const std::shared_ptr<void>& input_slot,
                       std::size_t lo, std::size_t hi,
                       const std::string& path) -> common::Status {
    auto input =
        std::static_pointer_cast<const std::vector<In>>(input_slot);
    if (!input) {
      return common::Status::FailedPrecondition(
          "dist write_chunk: input slot not materialized");
    }
    auto writer = FramedValueWriter::Create(path);
    if (!writer.ok()) return writer.status();
    for (std::size_t i = lo; i < hi; ++i) {
      if (auto status = writer->Append((*input)[i]); !status.ok()) {
        return status;
      }
    }
    return writer->Close();
  };

  ops.run_map = [map_fn, combine_fn](const DistMapSpec& spec)
      -> common::Result<DistMapOutcome> {
    if (spec.run_registry == nullptr) {
      return common::Status::FailedPrecondition(
          "dist run_map: no run registry");
    }
    DistMapOutcome outcome;
    storage::KVBlock<K, V> block;
    std::vector<std::vector<std::uint32_t>> shard_rows(spec.num_shards);
    {
      obs::TraceSpan span("MapPartition", "map", spec.node, spec.chunk_index);
      common::Status read;
      block = MapBlock<K, V>(
          [&](Emitter<K, V>& emitter) {
            read = ReadFramedValues(
                spec.chunk_path, "dist run_map chunk",
                [&](const char*& p, const char* end) {
                  In row;
                  if (!storage::DeserializeValue(p, end, row)) return false;
                  map_fn(row, emitter);
                  return true;
                });
          },
          combine_fn, outcome.counters);
      if (!read.ok()) return read;
      RouteRows(block, 0, block.rows(), /*range=*/nullptr, shard_rows);
    }
    // One run per non-empty shard, kept local as raw columnar frames for
    // reducers to pull: no shared-dir write, no codec CPU, and no per-key
    // hash recompute on decode (the hash column ships).
    for (std::uint32_t p = 0; p < spec.num_shards; ++p) {
      const std::vector<std::uint32_t>& rows = shard_rows[p];
      if (rows.empty()) continue;
      std::vector<std::string> frames;
      storage::BlockEncodeStats stats;
      storage::EncodeRawRunFrames(
          storage::RunFromRows(block, rows,
                               [&spec](std::uint32_t r) {
                                 return storage::MakeSpillPos(
                                     spec.chunk_index, r);
                               }),
          storage::kDefaultBlockBytes, frames, stats);
      const std::string run_id =
          spec.run_prefix + "-s" + std::to_string(p) + ".wire";
      auto written =
          spec.run_registry->Put(run_id, std::move(frames), rows.size());
      if (!written.ok()) return written.status();
      if (*written > 0) ++outcome.spill_runs;
      outcome.spill_bytes_written += *written;
      outcome.runs.push_back(DistRunInfo{p, rows.size(), run_id});
    }
    return outcome;
  };

  ops.run_reduce = [reduce_fn](const DistReduceSpec& spec) -> common::Status {
    if (spec.run_endpoints.size() != spec.run_ids.size()) {
      return common::Status::InvalidArgument(
          "dist run_reduce: one endpoint per run id required");
    }
    // Every source sends its FetchRun before the first is read, so all
    // credit windows fill in parallel.
    std::vector<std::unique_ptr<storage::BlockRunSource>> sources;
    sources.reserve(spec.run_ids.size());
    for (std::size_t i = 0; i < spec.run_ids.size(); ++i) {
      storage::WireBlockRunSource::Options wire_options;
      wire_options.endpoint = spec.run_endpoints[i];
      wire_options.run_id = spec.run_ids[i];
      wire_options.credits = spec.fetch_credits;
      wire_options.reducer_shard = spec.shard;
      auto source = std::make_unique<storage::WireBlockRunSource>(
          std::move(wire_options));
      if (!source->Open()) return source->status();
      sources.push_back(std::move(source));
    }
    // The runs, read in chunk order, stream their positions in ascending
    // order: the order an in-process shard's rows are grouped in.
    CsrGroups<K, V> groups;
    {
      obs::TraceSpan span("ShardGroup", "shuffle", spec.node, spec.shard);
      auto grouped = GroupRuns<K, V>(std::move(sources), spec.rows);
      if (!grouped.ok()) return grouped.status();
      groups = std::move(*grouped);
    }

    obs::TraceSpan span("ReduceShard", "reduce", spec.node, spec.shard);
    auto writer = FramedValueWriter::Create(spec.result_path);
    if (!writer.ok()) return writer.status();
    common::Status status;
    ReduceGroups<Out>(groups, reduce_fn,
                      [&](std::size_t g, std::vector<Out>& outs) {
                        status = writer->Append(
                            groups.first[g], groups.group_size(g), outs);
                        return status.ok();
                      });
    if (!status.ok()) return status;
    return writer->Close();
  };

  ops.collect = [](const std::vector<std::string>& result_paths,
                   JobMetrics& metrics)
      -> common::Result<std::shared_ptr<void>> {
    struct Entry {
      std::uint64_t first_pos = 0;
      std::uint64_t group_size = 0;
      std::vector<Out> outs;
    };
    std::vector<Entry> entries;
    for (const std::string& path : result_paths) {
      if (auto status = ReadFramedValues(
              path, "dist collect result",
              [&entries](const char*& p, const char* end) {
                Entry entry;
                if (!storage::DeserializeValue(p, end, entry.first_pos) ||
                    !storage::DeserializeValue(p, end, entry.group_size) ||
                    !storage::DeserializeValue(p, end, entry.outs)) {
                  return false;
                }
                entries.push_back(std::move(entry));
                return true;
              });
          !status.ok()) {
        return status;
      }
    }
    // Global first-seen order: each group's first_pos is its minimum
    // emission position; sorting on it restores the exact output order of
    // the in-process backends (positions are unique — one row, one key).
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.first_pos < b.first_pos;
              });
    auto outputs = std::make_shared<std::vector<Out>>();
    for (Entry& entry : entries) {
      metrics.num_reducers += 1;
      metrics.reducer_sizes.Add(static_cast<double>(entry.group_size));
      metrics.max_reducer_input =
          std::max(metrics.max_reducer_input, entry.group_size);
      metrics.num_outputs += entry.outs.size();
      outputs->insert(outputs->end(),
                      std::make_move_iterator(entry.outs.begin()),
                      std::make_move_iterator(entry.outs.end()));
    }
    return std::static_pointer_cast<void>(outputs);
  };

  return ops;
}

}  // namespace mrcost::engine::internal

#endif  // MRCOST_ENGINE_DIST_ROUND_H_
