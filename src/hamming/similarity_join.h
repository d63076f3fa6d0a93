#ifndef MRCOST_HAMMING_SIMILARITY_JOIN_H_
#define MRCOST_HAMMING_SIMILARITY_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/engine/plan.h"
#include "src/hamming/bitstring.h"

namespace mrcost::hamming {

/// Result of a map-reduce similarity join: the matching pairs (u < v, each
/// exactly once) plus the exact communication metrics of the round.
struct SimilarityJoinResult {
  std::vector<std::pair<BitString, BitString>> pairs;
  engine::JobMetrics metrics;
};

/// The similarity join as a lazy engine::Plan: the typed dataset of result
/// pairs (unsorted; the executing wrappers below sort) plus the plan
/// handle for Estimate / Explain before anything runs. `strings` is copied
/// into the plan's source.
struct SimilarityJoinPlan {
  engine::Plan plan;
  engine::Dataset<std::pair<BitString, BitString>> pairs;
};

/// Builds (without running) the Splitting-schema join plan. The stage
/// carries the schema's analytic estimate — r = C(k,d) and
/// C(k,d) * 2^(b - d*b/k) reducers, Section 3.6's exact numbers on the
/// full domain — so Plan::Estimate prices it without sampling. The
/// reducer probes its group for each value's canonical flip masks when the
/// group is dense and tests all pairs otherwise; r and q are the schema's
/// either way.
common::Result<SimilarityJoinPlan> BuildSplittingSimilarityJoinPlan(
    const std::vector<BitString>& strings, int b, int k, int d);

/// Builds (without running) the Ball-2 join plan: the round maps by
/// BallSchema with its center, so r = b + 1 over 2^b reducers is declared.
common::Result<SimilarityJoinPlan> BuildBallSimilarityJoinPlan(
    const std::vector<BitString>& strings, int b, int d);

/// Map-reduce fuzzy join via the distance-d Splitting schema (Sections 3.3
/// and 3.6): finds all unordered pairs of distinct strings in `strings`
/// (bit strings of length b) at Hamming distance in [1, d]. Each string is
/// replicated to C(k,d) reducers; a pair is emitted by exactly one reducer
/// (the lexicographically least deleted-segment set covering the pair's
/// differing segments), so no post-hoc deduplication is needed.
///
/// Requires k | b and 1 <= d < k, and every string below 2^b
/// (InvalidArgument otherwise). `strings` must be distinct.
common::Result<SimilarityJoinResult> SplittingSimilarityJoin(
    const std::vector<BitString>& strings, int b, int k, int d,
    const engine::JobOptions& options = {});

/// Map-reduce fuzzy join via the Ball-2 algorithm of Section 3.6 (from
/// [3]): one reducer per center string; every input is sent to its own
/// reducer and to the b reducers at distance 1. Finds all pairs at distance
/// in [1, d] for d in {1, 2}; replication rate is b + 1 independent of the
/// data. Each pair is emitted by exactly one canonical center.
///
/// Requires 1 <= d <= 2, 1 <= b <= 32 and every string below 2^b
/// (InvalidArgument otherwise). `strings` must be distinct.
common::Result<SimilarityJoinResult> BallSimilarityJoin(
    const std::vector<BitString>& strings, int b, int d,
    const engine::JobOptions& options = {});

/// Serial O(N^2) baseline for verification: all pairs at distance in
/// [1, d], u < v, sorted.
std::vector<std::pair<BitString, BitString>> SerialSimilarityJoin(
    const std::vector<BitString>& strings, int d);

}  // namespace mrcost::hamming

#endif  // MRCOST_HAMMING_SIMILARITY_JOIN_H_
