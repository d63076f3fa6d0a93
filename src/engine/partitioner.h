#ifndef MRCOST_ENGINE_PARTITIONER_H_
#define MRCOST_ENGINE_PARTITIONER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/engine/shuffle.h"

namespace mrcost::engine {

// Placement policies beyond blind hashing, plus the hot-key split/merge
// primitives — the engine's defenses against skewed key distributions.
//
// The paper prices a computation as a replication rate r against a reducer
// capacity q assuming keys spread evenly; a Zipf-skewed key set breaks that
// assumption twice over: (1) hash placement hands whole hot ranges to one
// shard/worker, and (2) one hot key can exceed q all by itself. The
// RangePartitioner fixes (1) by cutting the *sampled* hash distribution
// into ranges of equal pair weight instead of equal hash width
// ("Assignment Problems of Different-Sized Inputs in MapReduce" is the
// theory); SplitHotGroups fixes (2) by splitting an over-q group across
// sub-reducers and re-merging deterministically — the q-vs-r tradeoff
// applied adaptively: each split buys capacity compliance at the price of
// replicating one key.

/// Contiguous hash ranges with explicit boundaries: shard p owns hashes in
/// [bounds[p-1], bounds[p]) with an implicit 0 floor and 2^64 ceiling.
/// Built from a sample of the actual mapped hash distribution (one entry
/// per *pair*, so a hot key's weight counts once per occurrence), cut at
/// equal-weight quantiles. Equal hashes never straddle a boundary.
class RangePartitioner {
 public:
  /// `upper_bounds` must be strictly increasing; size = num_shards - 1
  /// (the last shard is unbounded above).
  RangePartitioner(std::vector<std::uint64_t> upper_bounds,
                   std::size_t num_shards)
      : bounds_(std::move(upper_bounds)), num_shards_(num_shards) {
    MRCOST_CHECK(num_shards > 0);
    MRCOST_CHECK(bounds_.size() < num_shards);
  }

  std::size_t ShardOf(std::uint64_t hash) const {
    // First boundary strictly above the hash; the hash belongs to that
    // boundary's shard. Boundaries are few (num_shards - 1), so the
    // binary search is ~log2(shards) probes.
    return static_cast<std::size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), hash) -
        bounds_.begin());
  }
  std::size_t num_shards() const { return num_shards_; }
  const std::vector<std::uint64_t>& upper_bounds() const { return bounds_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::size_t num_shards_;
};

/// Builds a RangePartitioner from a sample of pair hashes: sorts the
/// sample and cuts it at the i * |sample| / num_shards quantiles, skipping
/// cuts that would duplicate a boundary (equal hashes stay together, so a
/// single ultra-hot key degenerates gracefully toward fewer effective
/// ranges rather than splitting a group). Consumes `sampled_hashes`.
/// An empty sample yields equal-width ranges (= hash behaviour under
/// uniform keys). Deterministic: same sample, same cuts.
RangePartitioner BuildRangePartitioner(
    std::vector<std::uint64_t> sampled_hashes, std::size_t num_shards);

/// Weighted form for the simulator: items are (hash, weight) reducer
/// loads. Sorts by hash and sweeps greedily, closing a range once its
/// accumulated weight reaches the remaining-average target — the classic
/// LPT-flavoured contiguous assignment. Consumes `items`.
RangePartitioner BuildWeightedRangePartitioner(
    std::vector<std::pair<std::uint64_t, double>> items,
    std::size_t num_shards);

/// One hot-key split decision, recorded so the merge step can undo it and
/// metrics can count it.
struct HotKeySplitStats {
  /// Keys whose group exceeded the threshold and was split.
  std::uint64_t hot_keys_split = 0;
  /// Sub-groups created across all split keys (>= 2 per split key).
  std::uint64_t sub_groups = 0;
  /// Extra key replicas the splits cost (sub_groups - hot_keys_split):
  /// the adaptive-r price of staying within q.
  std::uint64_t extra_replicas() const {
    return sub_groups - hot_keys_split;
  }
};

/// A shuffle result after hot-key splitting: groups all fit within the
/// threshold, split keys appear once per sub-group (adjacent, in order),
/// and `origin[i]` names the index of the pre-split key group `i` came
/// from — the metadata MergeSplitGroups needs to restore the original.
template <typename Key, typename Value>
struct SplitShuffleResult {
  ShuffleResult<Key, Value> shuffled;
  std::vector<std::size_t> origin;
  HotKeySplitStats stats;
};

/// Splits every group of `result` larger than `threshold` pairs into
/// ceil(size / threshold) consecutive sub-groups of near-equal size (the
/// earlier sub-groups take the remainder), each under its original key —
/// the paper's q-vs-r tradeoff applied per key: capacity q is restored by
/// paying (sub_groups - 1) extra key replicas. threshold == 0 disables
/// splitting. Value order concatenated across a key's sub-groups equals
/// the original group order, so a deterministic merge can reverse the
/// split exactly. Consumes `result`.
template <typename Key, typename Value>
SplitShuffleResult<Key, Value> SplitHotGroups(
    ShuffleResult<Key, Value> result, std::uint64_t threshold) {
  SplitShuffleResult<Key, Value> split;
  if (threshold == 0) {
    split.origin.resize(result.keys.size());
    for (std::size_t i = 0; i < split.origin.size(); ++i) {
      split.origin[i] = i;
    }
    split.shuffled = std::move(result);
    return split;
  }
  for (std::size_t i = 0; i < result.keys.size(); ++i) {
    auto& group = result.groups[i];
    const std::uint64_t size = group.size();
    if (size <= threshold) {
      split.shuffled.keys.push_back(std::move(result.keys[i]));
      split.shuffled.groups.push_back(std::move(group));
      split.origin.push_back(i);
      continue;
    }
    const std::uint64_t parts = (size + threshold - 1) / threshold;
    ++split.stats.hot_keys_split;
    split.stats.sub_groups += parts;
    // Near-equal sub-group sizes (the first `size % parts` take one
    // extra), preserving the group's value order across the parts.
    std::size_t begin = 0;
    for (std::uint64_t p = 0; p < parts; ++p) {
      const std::size_t len = static_cast<std::size_t>(
          size / parts + (p < size % parts ? 1 : 0));
      std::vector<Value> sub;
      sub.reserve(len);
      for (std::size_t j = begin; j < begin + len; ++j) {
        sub.push_back(std::move(group[j]));
      }
      begin += len;
      split.shuffled.keys.push_back(result.keys[i]);  // replicated key
      split.shuffled.groups.push_back(std::move(sub));
      split.origin.push_back(i);
    }
  }
  return split;
}

/// The deterministic merge round undoing SplitHotGroups: consecutive
/// sub-groups sharing an origin concatenate back (in order) into one
/// group under one key. Split-then-merge is the identity on any shuffle
/// result, which is what keeps defended outputs byte-identical. Consumes
/// `split`.
template <typename Key, typename Value>
ShuffleResult<Key, Value> MergeSplitGroups(
    SplitShuffleResult<Key, Value> split) {
  ShuffleResult<Key, Value> merged;
  for (std::size_t i = 0; i < split.shuffled.keys.size(); ++i) {
    if (!merged.keys.empty() && i > 0 &&
        split.origin[i] == split.origin[i - 1]) {
      auto& group = merged.groups.back();
      for (auto& v : split.shuffled.groups[i]) {
        group.push_back(std::move(v));
      }
      continue;
    }
    merged.keys.push_back(std::move(split.shuffled.keys[i]));
    merged.groups.push_back(std::move(split.shuffled.groups[i]));
  }
  return merged;
}

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_PARTITIONER_H_
