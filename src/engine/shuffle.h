#ifndef MRCOST_ENGINE_SHUFFLE_H_
#define MRCOST_ENGINE_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/engine/grouping.h"
#include "src/engine/hashing.h"
#include "src/obs/trace.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"

namespace mrcost::engine {

/// How a round's shuffle is executed.
///   kAuto     — kExternal when a memory budget is set, else kSharded.
///   kSerial   — the single-map reference shuffle (one thread, no shards).
///   kSharded  — radix-partitioned parallel in-memory shuffle.
///   kExternal — spill-to-disk shuffle: map-side batches over the memory
///               budget are sorted and spilled as runs, then k-way merged
///               back into groups. The only strategy that can run rounds
///               whose intermediate data exceeds RAM.
/// All strategies produce byte-identical ShuffleResults.
enum class ShuffleStrategy { kAuto = 0, kSerial, kSharded, kExternal };

const char* ToString(ShuffleStrategy strategy);

/// How pairs are placed onto shuffle shards (and, in the simulator, how
/// reducers are placed onto workers).
///   kAuto         — kHash unless the round's map-fn sample detects
///                   key skew (max group far above the mean), in which case
///                   kSampledRange.
///   kHash         — blind IndexOfHash placement (the PR-1 radix path).
///   kSampledRange — sample the mapped key-hash distribution, then cut it
///                   into contiguous hash ranges holding equal pair counts,
///                   so a skewed key distribution still spreads its weight
///                   evenly (see src/engine/partitioner.h). Placement only:
///                   outputs stay byte-identical to kHash via the
///                   scan-order-tag merge.
enum class PartitionerKind { kAuto = 0, kHash, kSampledRange };

const char* ToString(PartitionerKind kind);

/// The one shuffle-configuration struct, shared by every layer that used
/// to duplicate these knobs (JobOptions, PipelineOptions, and the external
/// shuffle's own options). Resolution order, applied field-wise — each
/// field's zero value (kAuto / 0 / "") means "unset":
///   1. explicit per-round settings (JobOptions::shuffle) win;
///   2. fields still unset inherit the pipeline-wide config
///      (PipelineOptions::shuffle / the plan executor's
///      ExecutionOptions) via MergedOver;
///   3. a still-kAuto strategy resolves through Resolved(): kExternal when
///      a memory budget is set, else kSharded. ResolvePhysicalRound
///      (src/engine/plan.cc) refines this step with the round's estimated
///      intermediate bytes when it has them, so only plan rounds that
///      actually exceed the budget pay the spill path.
struct ShuffleConfig {
  /// How the shuffle executes; kAuto defers to step 3 above.
  ShuffleStrategy strategy = ShuffleStrategy::kAuto;
  /// Shuffle memory budget in ByteSizeOf bytes (src/common/byte_size.h —
  /// the same convention the simulator's capacity checks use). The budget
  /// is split evenly across the round's map chunks; a chunk's batch spills
  /// to a sorted run once it exceeds its share. 0 spills every pair
  /// individually when kExternal is explicit (valid, maximally
  /// degenerate).
  std::uint64_t memory_budget_bytes = 0;
  /// Where run files live; "" = std::filesystem::temp_directory_path().
  std::string spill_dir;
  /// Runs merged per k-way pass; 0 = storage::kDefaultMergeFanIn. Runs in
  /// excess are first merged down in extra passes (merge_passes counts
  /// them).
  std::size_t merge_fan_in = 0;
  /// How pairs are placed onto shards. kAuto lets ResolvePhysicalRound
  /// pick from the round's map-fn sample (skewed keys => kSampledRange)
  /// and otherwise behaves as kHash. Ignored by the external shuffle (its
  /// placement is the sorted merge order), by the one-shard serial path
  /// and by the multi-process backend (hash placement only).
  PartitionerKind partitioner = PartitionerKind::kAuto;

  /// True when any field was moved off its unset value.
  bool configured() const {
    return strategy != ShuffleStrategy::kAuto || memory_budget_bytes > 0 ||
           !spill_dir.empty() || merge_fan_in > 0 ||
           partitioner != PartitionerKind::kAuto;
  }

  /// Step 2 of the resolution order: fields still unset here inherit
  /// `fallback`'s values.
  ShuffleConfig MergedOver(const ShuffleConfig& fallback) const {
    ShuffleConfig merged = *this;
    if (merged.strategy == ShuffleStrategy::kAuto) {
      merged.strategy = fallback.strategy;
    }
    if (merged.memory_budget_bytes == 0) {
      merged.memory_budget_bytes = fallback.memory_budget_bytes;
    }
    if (merged.spill_dir.empty()) merged.spill_dir = fallback.spill_dir;
    if (merged.merge_fan_in == 0) merged.merge_fan_in = fallback.merge_fan_in;
    if (merged.partitioner == PartitionerKind::kAuto) {
      merged.partitioner = fallback.partitioner;
    }
    return merged;
  }

  /// Step 3 of the resolution order: the strategy that actually runs when
  /// no estimate refines it.
  ShuffleStrategy Resolved() const {
    if (strategy != ShuffleStrategy::kAuto) return strategy;
    return memory_budget_bytes > 0 ? ShuffleStrategy::kExternal
                                   : ShuffleStrategy::kSharded;
  }
};

/// Maps a finalized 64-bit hash onto [0, n) with a 128-bit multiply
/// (Lemire's fastrange) instead of `%`. All of the engine's placement
/// decisions — shuffle shard selection and the simulated reduce-worker
/// assignment — go through this one function, so they draw on the hash's
/// high bits uniformly rather than on its low-bit residue.
inline std::size_t IndexOfHash(std::uint64_t hash, std::size_t n) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(hash) * n) >> 64);
}

/// Number of shuffle shards to use: an explicit request wins; otherwise one
/// shard per pool thread (capped so tiny jobs do not over-partition).
std::size_t ResolveShardCount(std::size_t requested, std::size_t num_threads,
                              std::size_t num_pairs);

/// Grouped shuffle output: `keys` in global first-seen order (the order the
/// pairs appear scanning chunk 0, chunk 1, ... in emission order), with
/// `groups[i]` holding the values emitted for `keys[i]` in that same order.
/// This is exactly the seed engine's deterministic ordering contract, so
/// results are identical for every thread count and shard count.
template <typename Key, typename Value>
struct ShuffleResult {
  std::vector<Key> keys;
  std::vector<std::vector<Value>> groups;
};

/// Serial reference shuffle: a single hash map over all chunks of pairs,
/// as the seed engine did inline. The engine itself only shuffles columnar
/// blocks (the sharded block shuffle in memory, the spilled-run merge
/// under a budget); this is the oracle the tests hold every one of those
/// paths to — same keys, same first-seen key order, same values in
/// emission order.
template <typename Key, typename Value>
ShuffleResult<Key, Value> SerialShuffle(
    std::vector<std::vector<std::pair<Key, Value>>>& chunks) {
  ShuffleResult<Key, Value> result;
  std::unordered_map<Key, std::size_t, KeyHash> key_index;
  for (auto& chunk : chunks) {
    for (auto& [key, value] : chunk) {
      auto [it, inserted] = key_index.try_emplace(key, result.keys.size());
      if (inserted) {
        result.keys.push_back(key);
        result.groups.emplace_back();
      }
      result.groups[it->second].push_back(std::move(value));
    }
    chunk.clear();
    chunk.shrink_to_fit();
  }
  return result;
}

/// Sharded parallel shuffle over columnar blocks, in one call — the staged
/// executor runs the same passes as separate RouteBlock and ShardGroup
/// tasks. Inputs arrive as KVBlocks (one per map chunk), a radix pass
/// routes *row indices* by key hash into per-(block, shard) index lists —
/// no pair is copied — and each shard groups its rows on a pool thread
/// with internal::GroupRows, the kernel StagedRound::GroupShard runs. A
/// deterministic merge finally restores the global first-seen key order,
/// so the result equals SerialShuffle's for every shard count. Consumes
/// the blocks' values (blocks stay allocated until return).
template <typename Key, typename Value>
ShuffleResult<Key, Value> BlockShardedShuffle(
    std::vector<std::unique_ptr<storage::KVBlock<Key, Value>>>& blocks,
    common::ThreadPool& pool, std::size_t num_shards) {
  const std::size_t num_blocks = blocks.size();
  num_shards = std::max<std::size_t>(1, num_shards);

  obs::TraceSpan shuffle_span("BlockShardedShuffle", "shuffle");
  if (shuffle_span.active()) {
    shuffle_span.AddArg(
        obs::Arg("blocks", static_cast<std::uint64_t>(num_blocks)));
    shuffle_span.AddArg(
        obs::Arg("shards", static_cast<std::uint64_t>(num_shards)));
  }

  std::vector<std::uint64_t> block_offset(num_blocks + 1, 0);
  for (std::size_t c = 0; c < num_blocks; ++c) {
    block_offset[c + 1] =
        block_offset[c] + (blocks[c] ? blocks[c]->rows() : 0);
  }

  // Pass 1 (radix partition): route row indices, never rows.
  obs::TraceSpan radix_span("RadixPartition", "shuffle");
  std::vector<std::vector<std::uint32_t>> rows(num_blocks * num_shards);
  common::ParallelFor(pool, 0, num_blocks, [&](std::size_t c) {
    if (!blocks[c]) return;
    const auto& block = *blocks[c];
    std::vector<std::uint32_t>* out = &rows[c * num_shards];
    for (std::size_t r = 0; r < block.rows(); ++r) {
      const std::size_t p =
          num_shards == 1 ? 0 : IndexOfHash(block.hash(r), num_shards);
      out[p].push_back(static_cast<std::uint32_t>(r));
    }
  });
  radix_span.End();

  // Pass 2: group each shard's rows with the executor's CSR kernel.
  // Scanning blocks in order visits rows in global scan order, so the
  // first-seen tags (global row positions) are increasing per shard.
  obs::TraceSpan group_span("ShardGroup", "shuffle");
  std::vector<internal::CsrGroups<Key, Value>> shards(num_shards);
  common::ParallelFor(pool, 0, num_shards, [&](std::size_t p) {
    std::size_t owned = 0;
    for (std::size_t c = 0; c < num_blocks; ++c) {
      owned += rows[c * num_shards + p].size();
    }
    const auto for_each_row = [&](auto&& visit) {
      for (std::size_t c = 0; c < num_blocks; ++c) {
        if (!blocks[c]) continue;
        for (const std::uint32_t r : rows[c * num_shards + p]) {
          visit(*blocks[c], r, internal::PairPos{block_offset[c] + r, 0});
        }
      }
    };
    shards[p] = internal::GroupRows<Key, Value>(
        owned, for_each_row,
        [](storage::KVBlock<Key, Value>& block, std::uint32_t r) {
          return std::move(block.value(r));
        },
        /*tags_in_scan_order=*/true);
  });
  group_span.End();

  std::size_t total_keys = 0;
  for (const auto& shard : shards) total_keys += shard.size();
  if (shuffle_span.active()) {
    shuffle_span.AddArg(
        obs::Arg("keys", static_cast<std::uint64_t>(total_keys)));
  }
  struct MergeEntry {
    std::uint64_t first_pos;
    std::uint32_t shard;
    std::uint32_t index;
  };
  std::vector<MergeEntry> order;
  order.reserve(total_keys);
  for (std::size_t p = 0; p < num_shards; ++p) {
    for (std::size_t i = 0; i < shards[p].size(); ++i) {
      order.push_back(MergeEntry{shards[p].first[i].major,
                                 static_cast<std::uint32_t>(p),
                                 static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const MergeEntry& a, const MergeEntry& b) {
              return a.first_pos < b.first_pos;
            });

  ShuffleResult<Key, Value> result;
  result.keys.reserve(total_keys);
  result.groups.reserve(total_keys);
  for (const MergeEntry& e : order) {
    auto& shard = shards[e.shard];
    const auto values = shard.values.begin();
    result.keys.push_back(std::move(shard.keys[e.index]));
    result.groups.emplace_back(
        std::make_move_iterator(values + shard.offsets[e.index]),
        std::make_move_iterator(values + shard.offsets[e.index + 1]));
  }
  return result;
}

namespace internal {

/// Restores the engine's first-seen-key-order contract on a key-ordered
/// external merge: groups are permuted by the global position of each
/// key's first record — exactly the order SerialShuffle discovers keys in.
template <typename Key, typename Value>
ShuffleResult<Key, Value> ReorderByFirstSeen(
    storage::MergedGroups<Key, Value>& merged) {
  std::vector<std::size_t> order(merged.keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&merged](std::size_t a, std::size_t b) {
              return merged.first_pos[a] < merged.first_pos[b];
            });
  ShuffleResult<Key, Value> result;
  result.keys.reserve(order.size());
  result.groups.reserve(order.size());
  for (std::size_t i : order) {
    result.keys.push_back(std::move(merged.keys[i]));
    result.groups.push_back(std::move(merged.groups[i]));
  }
  return result;
}

/// Builds the merge inputs from per-chunk unspilled tails (columnar runs)
/// plus every version-2 block file the spiller wrote, merges them over
/// block cursors (storage::BlockLoserTree), and reorders. `spiller` must
/// outlive the call (it owns the run files) but not the result. Fills
/// `stats` with the spiller's run, byte and raw-vs-encoded counters.
template <typename Key, typename Value>
common::Result<ShuffleResult<Key, Value>> MergeSpilledBlockRuns(
    storage::RunSpiller& spiller,
    std::vector<storage::ColumnarRun>& tails, std::size_t merge_fan_in,
    storage::SpillStats& stats) {
  std::vector<std::unique_ptr<storage::BlockRunSource>> sources;
  for (auto& tail : tails) {
    if (!tail.empty()) {
      sources.push_back(
          std::make_unique<storage::MemoryBlockRunSource>(std::move(tail)));
    }
  }
  for (const std::string& path : spiller.spill_run_paths()) {
    sources.push_back(std::make_unique<storage::DiskBlockRunSource>(path));
  }
  auto merged = storage::MergeBlockRunsToGroups<Key, Value>(
      std::move(sources), spiller, merge_fan_in, stats);
  if (!merged.ok()) return merged.status();
  stats.spill_runs = spiller.spill_runs();
  stats.spill_bytes_written = spiller.bytes_written();
  stats.encode = spiller.encode_stats();
  return ReorderByFirstSeen(*merged);
}

}  // namespace internal

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_SHUFFLE_H_
