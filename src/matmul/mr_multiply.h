#ifndef MRCOST_MATMUL_MR_MULTIPLY_H_
#define MRCOST_MATMUL_MR_MULTIPLY_H_

#include <cstdint>
#include <utility>

#include "src/common/status.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/matmul/matrix.h"

namespace mrcost::matmul {

/// One matrix element in flight, tagged with which matrix it came from.
/// The constructor lets a vector store an element field by field (see
/// FlattenInputs).
struct Element {
  Element() = default;
  Element(std::uint8_t matrix, std::uint32_t row, std::uint32_t col,
          double value)
      : matrix(matrix), row(row), col(col), value(value) {}

  std::uint8_t matrix;  // 0 = R, 1 = S
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

/// One product cell (or round-1 partial sum) in flight.
struct Cell {
  std::uint32_t i;
  std::uint32_t k;
  double value;
};

/// The one-phase algorithm as a lazy plan: the dataset of product cells
/// plus the plan handle. The stage declares Section 6.2's exact geometry
/// (r = n/s, q = 2sn), so Estimate prices it without sampling.
struct OnePhasePlan {
  engine::Plan plan;
  engine::Dataset<Cell> cells;
};
common::Result<OnePhasePlan> BuildMultiplyOnePhasePlan(const Matrix& r,
                                                       const Matrix& s,
                                                       int tile);

/// The two-phase algorithm as a lazy two-round plan: round-1 partial sums
/// regrouped and added in round 2 (Section 6.3), with both rounds'
/// analytic estimates declared.
struct TwoPhasePlan {
  engine::Plan plan;
  engine::Dataset<std::pair<std::uint64_t, double>> sums;  // key = i*n + k
};
common::Result<TwoPhasePlan> BuildMultiplyTwoPhasePlan(const Matrix& r,
                                                       const Matrix& s,
                                                       int s_rows, int t_js);

struct OnePhaseResult {
  Matrix product;
  engine::JobMetrics metrics;
};

/// Section 6.2's one-phase algorithm: reducers are (row-group, col-group)
/// tiles of side s; r_ij goes to every tile in row-group i/s, s_jk to every
/// tile in col-group k/s. q = 2sn, r = n/s, communication = 4n^4/q.
/// Requires square n x n inputs and s | n.
common::Result<OnePhaseResult> MultiplyOnePhase(
    const Matrix& r, const Matrix& s, int tile,
    const engine::JobOptions& options = {});

struct TwoPhaseResult {
  Matrix product;
  engine::PipelineMetrics metrics;  // round 1 then round 2
};

/// Section 6.3's two-phase algorithm. Round 1: reducers are (I-group of
/// size s, K-group of size s, J-group of size t) cubes (Fig. 5); each
/// computes partial sums x_ik over its j-range. Round 2: partial sums are
/// regrouped by (i,k) and added (Fig. 4). Round-1 reducer input is
/// q = 2st; total communication is 2n^3/s + n^3/t, minimized at s = 2t
/// (s = sqrt(q), t = sqrt(q)/2) where it equals 4n^3/sqrt(q).
/// Requires s | n and t | n.
common::Result<TwoPhaseResult> MultiplyTwoPhase(
    const Matrix& r, const Matrix& s, int s_rows, int t_js,
    const engine::JobOptions& options = {});

/// The Lagrangean-optimal round-1 tile shape of Section 6.3 for a given q:
/// s = sqrt(q) and t = sqrt(q)/2 (aspect ratio 2:1), snapped down to
/// divisors of n. Returns {s, t}.
std::pair<int, int> OptimalTwoPhaseTiles(int n, double q);

}  // namespace mrcost::matmul

#endif  // MRCOST_MATMUL_MR_MULTIPLY_H_
