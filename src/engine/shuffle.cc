#include "src/engine/shuffle.h"

namespace mrcost::engine {

const char* ToString(ShuffleStrategy strategy) {
  switch (strategy) {
    case ShuffleStrategy::kAuto: return "auto";
    case ShuffleStrategy::kSharded: return "sharded";
    case ShuffleStrategy::kExternal: return "external";
  }
  return "?";
}

const char* ToString(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kAuto: return "auto";
    case PartitionerKind::kHash: return "hash";
    case PartitionerKind::kSampledRange: return "sampled-range";
  }
  return "?";
}

std::size_t ResolveShardCount(std::size_t requested, std::size_t num_threads,
                              std::size_t num_pairs) {
  if (requested > 0) return requested;
  if (num_threads <= 1) return 1;
  // One shard per thread, but never so many that shards average fewer than
  // ~4k pairs — below that the hashing prepass and merge dominate and one
  // shard wins.
  constexpr std::size_t kMinPairsPerShard = 4096;
  const std::size_t useful = num_pairs / kMinPairsPerShard;
  return std::max<std::size_t>(1, std::min(num_threads, useful));
}

}  // namespace mrcost::engine
