#ifndef MRCOST_ENGINE_SHUFFLE_H_
#define MRCOST_ENGINE_SHUFFLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/hashing.h"

namespace mrcost::engine {

/// How a round's shuffle is executed.
///   kAuto     — kExternal when a memory budget is set, else kSharded.
///   kSharded  — radix-partitioned parallel in-memory shuffle (one shard
///               groups every key in one table; JobOptions::num_shards).
///   kExternal — spill-to-disk shuffle: a map chunk's rows past its share
///               of the memory budget are routed by hash and spilled, one
///               run per shard in emission order; each shard then groups
///               its runs (no sort, no merge). The only strategy that can
///               run rounds whose intermediate data exceeds RAM.
/// All strategies produce byte-identical ShuffleResults.
enum class ShuffleStrategy { kAuto = 0, kSharded, kExternal };

const char* ToString(ShuffleStrategy strategy);

/// How pairs are placed onto shuffle shards (the round records the result
/// as JobMetrics::shard_pairs and partition_skew_ratio).
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
///   2. fields still unset inherit the execution-wide config
///      (PipelineOptions::shuffle) via MergedOver;
///   3. a still-kAuto strategy is picked by ResolvePhysicalRound
///      (src/engine/plan.cc) from the round's estimated intermediate
///      bytes, so only rounds that exceed the budget pay the spill path.
///      When the bytes are unknown it falls back to Resolved(): kExternal
///      when a memory budget is set, else kSharded.
struct ShuffleConfig {
  /// How the shuffle executes; kAuto defers to step 3 above.
  ShuffleStrategy strategy = ShuffleStrategy::kAuto;
  /// Shuffle memory budget in ByteSizeOf bytes (src/common/byte_size.h —
  /// the same convention bytes_shuffled uses). The budget
  /// is split evenly across the round's map chunks; a chunk's block spills,
  /// one run per shard, once it exceeds its share. 0 spills every pair
  /// individually when kExternal is explicit (valid, maximally
  /// degenerate).
  std::uint64_t memory_budget_bytes = 0;
  /// Where run files live; "" = std::filesystem::temp_directory_path().
  std::string spill_dir;
  /// How pairs are placed onto shards. kAuto lets ResolvePhysicalRound
  /// pick from the round's map-fn sample (skewed keys => kSampledRange)
  /// and otherwise behaves as kHash. Ignored by the external shuffle and
  /// the multi-process backend (both place by hash: a spilled or
  /// published run is routed before any sample could exist) and by a
  /// one-shard round.
  PartitionerKind partitioner = PartitionerKind::kAuto;

  /// True when any field was moved off its unset value.
  bool configured() const {
    return strategy != ShuffleStrategy::kAuto || memory_budget_bytes > 0 ||
           !spill_dir.empty() || partitioner != PartitionerKind::kAuto;
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
/// (Lemire's fastrange) instead of `%`. Hash placement of shuffle rows on
/// both backends goes through this one function, so it draws on the
/// hash's high bits uniformly rather than on its low-bit residue.
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
/// blocks (routed rows in memory, routed runs under a budget); this is the
/// oracle the tests hold every one of those paths to — same keys, same first-seen key order, same values in
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

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_SHUFFLE_H_
