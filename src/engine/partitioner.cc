#include "src/engine/partitioner.h"

#include <utility>

namespace mrcost::engine {

RangePartitioner BuildRangePartitioner(
    std::vector<std::uint64_t> sampled_hashes, std::size_t num_shards) {
  MRCOST_CHECK(num_shards > 0);
  std::vector<std::uint64_t> bounds;
  if (num_shards > 1 && !sampled_hashes.empty()) {
    std::sort(sampled_hashes.begin(), sampled_hashes.end());
    bounds.reserve(num_shards - 1);
    const std::size_t n = sampled_hashes.size();
    auto cut_at = [&](std::uint64_t cut) {
      if (bounds.size() + 1 < num_shards &&
          (bounds.empty() || cut > bounds.back())) {
        bounds.push_back(cut);
      }
    };
    for (std::size_t p = 1; p < num_shards; ++p) {
      // The cut sits *after* the p-th equal-count slice. Using the next
      // strictly larger hash as the (exclusive) boundary keeps every
      // occurrence of the boundary hash in the left shard.
      const std::uint64_t at = sampled_hashes[p * n / num_shards];
      const auto below = std::lower_bound(sampled_hashes.begin(),
                                          sampled_hashes.end(), at);
      const auto above = std::upper_bound(below, sampled_hashes.end(), at);
      // A hash worth a shard of its own is cut off below as well, so its
      // range does not also carry the lighter hashes before it.
      const auto count = static_cast<std::size_t>(above - below);
      if (count * num_shards >= n && at > 0) cut_at(at);
      if (above == sampled_hashes.end()) break;  // tail is one hash
      cut_at(*above);
    }
  } else if (num_shards > 1) {
    // No sample: equal-width ranges, the uniform-key behaviour.
    const std::uint64_t width = ~std::uint64_t{0} / num_shards;
    for (std::size_t p = 1; p < num_shards; ++p) {
      bounds.push_back(width * p);
    }
  }
  return RangePartitioner(std::move(bounds), num_shards);
}

}  // namespace mrcost::engine
