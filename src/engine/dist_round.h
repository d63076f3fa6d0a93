#ifndef MRCOST_ENGINE_DIST_ROUND_H_
#define MRCOST_ENGINE_DIST_ROUND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/status.h"
#include "src/engine/emitter.h"
#include "src/engine/grouping.h"
#include "src/engine/metrics.h"
#include "src/engine/shuffle.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
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
//   worker        run_map     : chunk file -> per-shard sorted runs, kept
//                               as raw frames in the worker's RunRegistry
//                               (pos = MakeSpillPos)
//   worker        run_reduce  : fetch one shard's runs from their owners'
//                               data sockets -> k-way merge -> reduce ->
//                               framed result file
//   coordinator   collect     : result files -> output slot + JobMetrics
//
// Both the coordinator and the worker binary rebuild the identical plan
// from the recipe registry (src/dist/registry.h), so node indices line up
// and each side invokes the ops it needs. Outputs are byte-identical to
// the in-process backend: runs are sorted by (hash, key bytes, emission
// pos), the merge surfaces each group's minimum emission position as
// first_pos, and collect restores the engine's global first-seen key
// order by sorting groups on it — the same scan-order contract
// StagedRound::Finalize enforces in-process.

/// One sorted run a map task published for one reduce shard.
struct DistRunInfo {
  std::uint32_t shard = 0;
  std::uint64_t rows = 0;
  /// The run's id in the owner worker's RunRegistry.
  std::string run_id;
};

/// What one map task reports back, mirroring StagedRound's per-chunk
/// counters so the merged JobMetrics match the in-process round's.
struct DistMapOutcome {
  std::vector<DistRunInfo> runs;
  std::uint64_t raw_pairs = 0;  // pre-combine emitted pairs
  std::uint64_t pairs = 0;      // pairs crossing the shuffle
  std::uint64_t bytes = 0;      // ByteSizeOf of what crosses the shuffle
  std::uint64_t blocks_emitted = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t encode_raw_bytes = 0;
  std::uint64_t encode_encoded_bytes = 0;
};

struct DistReduceOutcome {
  std::uint64_t keys = 0;
  std::uint64_t outputs = 0;
  std::uint64_t max_group = 0;
  std::uint64_t merge_passes = 0;
  std::uint64_t spill_bytes_written = 0;
};

struct DistMapSpec {
  std::string chunk_path;
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
  std::uint32_t shard = 0;
  /// Run ids to fetch, and parallel to them, each owner's data endpoint.
  std::vector<std::string> run_ids;
  std::vector<std::string> run_endpoints;
  /// Per-source block credit window (PhysicalRound::fetch_credits).
  std::uint32_t fetch_credits = 1;
  std::string result_path;
  /// Scratch dir for multi-pass merge rewrites (the shared job dir).
  std::string scratch_dir;
  std::size_t merge_fan_in = storage::kDefaultMergeFanIn;
};

struct DistRoundOps {
  std::function<common::Status(const std::shared_ptr<void>& input_slot,
                               std::size_t lo, std::size_t hi,
                               const std::string& path)>
      write_chunk;
  std::function<common::Result<DistMapOutcome>(const DistMapSpec&)> run_map;
  std::function<common::Result<DistReduceOutcome>(const DistReduceSpec&)>
      run_reduce;
  std::function<common::Result<std::shared_ptr<void>>(
      const std::vector<std::string>& result_paths, JobMetrics& metrics)>
      collect;
};

/// Flush granularity of the framed chunk/result files (well under the
/// spill reader's block-size ceiling).
inline constexpr std::size_t kDistFileBlockBytes = std::size_t{4} << 20;

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
    auto file = storage::SpillFileWriter::Create(
        path, storage::kSpillFormatVersionValues);
    if (!file.ok()) return file.status();
    storage::SpillFileWriter writer = std::move(file.value());
    std::string payload;
    std::uint64_t count = 0;
    auto flush = [&]() -> common::Status {
      std::string framed;
      storage::SerializeValue(count, framed);
      framed.append(payload);
      auto status = writer.AppendBlock(framed);
      payload.clear();
      count = 0;
      return status;
    };
    for (std::size_t i = lo; i < hi; ++i) {
      storage::SerializeValue((*input)[i], payload);
      ++count;
      if (payload.size() >= kDistFileBlockBytes) {
        if (auto status = flush(); !status.ok()) return status;
      }
    }
    if (count > 0) {
      if (auto status = flush(); !status.ok()) return status;
    }
    return writer.Close();
  };

  ops.run_map = [map_fn, combine_fn](const DistMapSpec& spec)
      -> common::Result<DistMapOutcome> {
    if (spec.run_registry == nullptr) {
      return common::Status::FailedPrecondition(
          "dist run_map: no run registry");
    }
    auto file = storage::SpillFileReader::Open(spec.chunk_path);
    if (!file.ok()) return file.status();
    storage::SpillFileReader reader = std::move(file.value());

    // Re-run the captured map over the chunk. The whole chunk accumulates
    // in one block, matching the in-process in-memory path: emission row
    // index == local emission position.
    Emitter<K, V> emitter;
    std::string payload;
    bool done = false;
    while (true) {
      if (auto status = reader.Next(payload, done); !status.ok()) {
        return status;
      }
      if (done) break;
      const char* p = payload.data();
      const char* end = p + payload.size();
      std::uint64_t count = 0;
      if (!storage::DeserializeValue(p, end, count)) {
        return common::Status::Internal("dist run_map: corrupt chunk block");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        In row;
        if (!storage::DeserializeValue(p, end, row)) {
          return common::Status::Internal("dist run_map: corrupt chunk row");
        }
        map_fn(row, emitter);
      }
    }

    DistMapOutcome outcome;
    using Block = storage::KVBlock<K, V>;
    Block& emitted = emitter.block();
    outcome.raw_pairs = emitted.rows();
    outcome.blocks_emitted = emitter.blocks_emitted();
    outcome.bytes_copied = emitter.bytes_copied();

    // Map-side combine: the same first-seen fold the in-process round
    // runs, so post-combine rows — and therefore spill positions — are
    // identical to the in-process combined round.
    Block combined;
    Block* work = &emitted;
    if (combine_fn) {
      combined = CombineBlock(emitted, combine_fn, outcome.bytes, nullptr);
      work = &combined;
      outcome.bytes_copied += combined.CopiedBytes();
    } else {
      outcome.bytes = emitter.bytes();
    }
    const Block& block = *work;
    outcome.pairs = block.rows();

    // Partition rows by hash, then write one run per non-empty shard in
    // spill order, pos = MakeSpillPos(chunk, row) — the ordering the
    // in-process spill path uses, applied to each shard's row subset.
    std::vector<std::vector<std::uint32_t>> shard_rows(spec.num_shards);
    for (std::size_t r = 0; r < block.rows(); ++r) {
      shard_rows[IndexOfHash(block.hash(r), spec.num_shards)].push_back(
          static_cast<std::uint32_t>(r));
    }
    for (std::uint32_t p = 0; p < spec.num_shards; ++p) {
      const std::vector<std::uint32_t>& rows = shard_rows[p];
      if (rows.empty()) continue;
      const storage::ColumnarRun run = storage::SortedRunFromRows(
          block, rows, [&spec](std::uint32_t r) {
            return storage::MakeSpillPos(spec.chunk_index, r);
          });
      // Raw columnar frames kept local for reducers to pull: no
      // shared-dir write, no codec CPU, and no per-key hash recompute on
      // decode (the hash column ships). Merge output depends only on the
      // record sequence, which the frame encoding cannot change.
      std::vector<std::string> frames;
      storage::BlockEncodeStats stats;
      storage::EncodeRawRunFrames(run, storage::kDefaultBlockBytes, frames,
                                  stats);
      const std::string run_id =
          spec.run_prefix + "-s" + std::to_string(p) + ".wire";
      auto written =
          spec.run_registry->Put(run_id, std::move(frames), rows.size());
      if (!written.ok()) return written.status();
      outcome.spill_bytes_written += *written;
      outcome.encode_raw_bytes += stats.raw_bytes;
      outcome.encode_encoded_bytes += stats.encoded_bytes;
      outcome.runs.push_back(DistRunInfo{p, rows.size(), run_id});
    }
    return outcome;
  };

  ops.run_reduce = [reduce_fn](const DistReduceSpec& spec)
      -> common::Result<DistReduceOutcome> {
    if (spec.run_endpoints.size() != spec.run_ids.size()) {
      return common::Status::InvalidArgument(
          "dist run_reduce: one endpoint per run id required");
    }
    std::vector<std::unique_ptr<storage::BlockRunSource>> sources;
    sources.reserve(spec.run_ids.size());
    for (std::size_t i = 0; i < spec.run_ids.size(); ++i) {
      storage::WireBlockRunSource::Options wire_options;
      wire_options.endpoint = spec.run_endpoints[i];
      wire_options.run_id = spec.run_ids[i];
      wire_options.credits = spec.fetch_credits;
      wire_options.reducer_shard = spec.shard;
      sources.push_back(std::make_unique<storage::WireBlockRunSource>(
          std::move(wire_options)));
    }
    storage::RunSpiller scratch(spec.scratch_dir);
    storage::SpillStats stats;
    auto merged = storage::MergeBlockRunsToGroups<K, V>(
        std::move(sources), scratch, spec.merge_fan_in, stats);
    if (!merged.ok()) return merged.status();
    storage::MergedGroups<K, V>& groups = merged.value();

    DistReduceOutcome outcome;
    outcome.keys = groups.keys.size();
    outcome.merge_passes = stats.merge_passes;
    outcome.spill_bytes_written = stats.spill_bytes_written;

    auto file = storage::SpillFileWriter::Create(
        spec.result_path, storage::kSpillFormatVersionValues);
    if (!file.ok()) return file.status();
    storage::SpillFileWriter writer = std::move(file.value());
    std::string payload;
    std::uint64_t count = 0;
    auto flush = [&]() -> common::Status {
      std::string framed;
      storage::SerializeValue(count, framed);
      framed.append(payload);
      auto status = writer.AppendBlock(framed);
      payload.clear();
      count = 0;
      return status;
    };
    std::vector<Out> outs;
    for (std::size_t i = 0; i < groups.keys.size(); ++i) {
      outs.clear();
      reduce_fn(groups.keys[i], groups.groups[i], outs);
      outcome.outputs += outs.size();
      outcome.max_group = std::max(
          outcome.max_group,
          static_cast<std::uint64_t>(groups.groups[i].size()));
      storage::SerializeValue(groups.first_pos[i], payload);
      storage::SerializeValue(
          static_cast<std::uint64_t>(groups.groups[i].size()), payload);
      storage::SerializeValue(outs, payload);
      ++count;
      if (payload.size() >= kDistFileBlockBytes) {
        if (auto status = flush(); !status.ok()) return status;
      }
    }
    if (count > 0) {
      if (auto status = flush(); !status.ok()) return status;
    }
    if (auto status = writer.Close(); !status.ok()) return status;
    return outcome;
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
      auto file = storage::SpillFileReader::Open(path);
      if (!file.ok()) return file.status();
      storage::SpillFileReader reader = std::move(file.value());
      std::string payload;
      bool done = false;
      while (true) {
        if (auto status = reader.Next(payload, done); !status.ok()) {
          return status;
        }
        if (done) break;
        const char* p = payload.data();
        const char* end = p + payload.size();
        std::uint64_t count = 0;
        if (!storage::DeserializeValue(p, end, count)) {
          return common::Status::Internal(
              "dist collect: corrupt result block");
        }
        for (std::uint64_t i = 0; i < count; ++i) {
          Entry entry;
          if (!storage::DeserializeValue(p, end, entry.first_pos) ||
              !storage::DeserializeValue(p, end, entry.group_size) ||
              !storage::DeserializeValue(p, end, entry.outs)) {
            return common::Status::Internal(
                "dist collect: corrupt result row");
          }
          entries.push_back(std::move(entry));
        }
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
