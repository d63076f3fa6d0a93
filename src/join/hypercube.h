#ifndef MRCOST_JOIN_HYPERCUBE_H_
#define MRCOST_JOIN_HYPERCUBE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/engine/plan.h"
#include "src/join/query.h"
#include "src/join/relation.h"

namespace mrcost::join {

struct MultiwayJoinResult {
  /// Result tuples aligned with query.attribute_names(), sorted.
  std::vector<Tuple> results;
  engine::JobMetrics metrics;
};

/// The HyperCube join as a lazy plan: the dataset of (unsorted) result
/// tuples plus the plan handle. The stage declares the Shares schema's
/// analytic estimate (see internal::HyperCubeStageEstimate). The pointed-to
/// relations must outlive every Execute of the plan; tuples are copied
/// into the plan's source.
struct MultiwayJoinPlan {
  engine::Plan plan;
  engine::Dataset<Tuple> tuples;
};
common::Result<MultiwayJoinPlan> BuildHyperCubeJoinPlan(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, std::uint64_t seed);

/// The Shares/HyperCube single-round multiway join of [1] (the upper-bound
/// algorithm of Section 5.5.2): attribute `a` is hashed into `shares[a]`
/// buckets; reducers form the grid prod_a shares[a]; a tuple of relation R
/// is sent to every cell that agrees with its hash on R's attributes.
/// Every result tuple is assembled at exactly one cell (the one indexed by
/// the hashes of all its attribute values), so the output has no
/// duplicates by construction.
///
/// `relations` aligns with query.atoms(); `shares` with query attributes.
common::Result<MultiwayJoinResult> HyperCubeJoin(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, std::uint64_t seed,
    const engine::JobOptions& options = {});

namespace internal {

/// The HyperCube routing rule, shared by HyperCubeJoin and the two-round
/// pipelines: calls `fn(cell_id)` for every grid cell that must receive
/// the given tuple of atom `atom_idx` (its hashed coordinates fixed, all
/// combinations of the free attributes enumerated). Cell ids are the
/// mixed-radix encoding of the coordinate vector over `shares`.
void ForEachHyperCubeCell(const Query& query, const std::vector<int>& shares,
                          int atom_idx, const Tuple& tuple,
                          std::uint64_t seed,
                          const std::function<void(std::uint64_t)>& fn);

/// Validates the (query, relations, shares) triple; shared precondition
/// checks for the HyperCube entry points.
common::Status CheckHyperCubeArgs(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares);

/// The Shares schema's analytic estimate, shared by the one-round join and
/// the two-round aggregate pipelines: a tuple of atom e fans out to
/// (prod_a shares[a]) / (prod_{a in e} shares[a]) cells, so the declared
/// replication rate is the tuple-count-weighted average of the per-atom
/// fan-outs, onto prod_a shares[a] cell reducers.
engine::StageEstimate HyperCubeStageEstimate(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares);

}  // namespace internal

}  // namespace mrcost::join

#endif  // MRCOST_JOIN_HYPERCUBE_H_
