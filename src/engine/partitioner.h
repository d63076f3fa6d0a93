#ifndef MRCOST_ENGINE_PARTITIONER_H_
#define MRCOST_ENGINE_PARTITIONER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace mrcost::engine {

// Placement policies beyond blind hashing — the engine's defense against
// skewed key distributions.
//
// The paper prices a computation as a replication rate r against a reducer
// capacity q assuming keys spread evenly; a Zipf-skewed key set breaks that
// assumption: hash placement hands whole hot ranges to one shard. The
// RangePartitioner cuts the *sampled* hash distribution into ranges of
// equal pair weight instead of equal hash width ("Assignment Problems of
// Different-Sized Inputs in MapReduce" is the theory). No placement splits
// one key: a single key past q is a schema problem, not a placement one.

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
/// cuts that would duplicate a boundary (equal hashes stay together). A
/// cut that lands on a hot hash — one holding at least 1/num_shards of the
/// sample — also cuts at that hash's lower edge, so the hot key gets a
/// shard of its own instead of keeping its neighbours. Consumes
/// `sampled_hashes`. An empty sample yields equal-width ranges (= hash
/// behaviour under uniform keys). Deterministic: same sample, same cuts.
RangePartitioner BuildRangePartitioner(
    std::vector<std::uint64_t> sampled_hashes, std::size_t num_shards);

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_PARTITIONER_H_
