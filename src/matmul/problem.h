#ifndef MRCOST_MATMUL_PROBLEM_H_
#define MRCOST_MATMUL_PROBLEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/lower_bound.h"
#include "src/core/mapping_schema.h"
#include "src/core/problem.h"

namespace mrcost::matmul {

/// The n x n matrix-multiplication problem of Section 6: inputs are the
/// 2n^2 matrix elements (ids 0..n^2-1 = R row-major, n^2..2n^2-1 = S
/// row-major); outputs are the n^2 elements t_ik, each depending on row i
/// of R and column k of S (2n inputs, Fig. 3).
class MatMulProblem final : public core::Problem {
 public:
  explicit MatMulProblem(int n);

  std::string name() const override;
  std::uint64_t num_inputs() const override {
    return 2 * static_cast<std::uint64_t>(n_) * n_;
  }
  std::uint64_t num_outputs() const override {
    return static_cast<std::uint64_t>(n_) * n_;
  }
  std::vector<core::InputId> InputsOfOutput(
      core::OutputId output) const override;

  int n() const { return n_; }

 private:
  int n_;
};

/// The one-phase tiling schema of Section 6.2: rows of R and columns of S
/// are cut into n/s groups of s; one reducer per (row group, column group)
/// covers the s x s output tile. q = 2sn, r = n/s = 2n^2/q — exactly the
/// Section 6.1 lower bound.
class OnePhaseSchema final : public core::MappingSchema {
 public:
  /// Requires s | n.
  static common::Result<OnePhaseSchema> Make(int n, int s);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;
  /// n/s: an element reaches every tile of its row (or column) group.
  double replication() const override;

  std::uint64_t reducer_size() const {
    return 2 * static_cast<std::uint64_t>(s_) * n_;
  }

 private:
  OnePhaseSchema(int n, int s) : n_(n), s_(s) {}
  int n_;
  int s_;
};

/// The round-1 problem of the two-phase algorithm (Section 6.3): outputs
/// are the n^3 products x_ijk = r_ij * s_jk, each depending on exactly two
/// inputs. The paper's rectangle argument ("if a reducer covers x_ijk and
/// x_yjz it also covers x_ijz and x_yjk") constrains this problem's
/// schemas; the cube schema below realizes the optimal shape.
class MatMulPhase1Problem final : public core::Problem {
 public:
  explicit MatMulPhase1Problem(int n);

  std::string name() const override;
  std::uint64_t num_inputs() const override {
    return 2 * static_cast<std::uint64_t>(n_) * n_;
  }
  std::uint64_t num_outputs() const override {
    return static_cast<std::uint64_t>(n_) * n_ * n_;
  }
  std::vector<core::InputId> InputsOfOutput(
      core::OutputId output) const override;

 private:
  int n_;
};

/// The Figure 5 cube schema for round 1: reducers are (I-group of size s,
/// K-group of size s, J-group of size t) cells; r_ij reaches every
/// K-group in its (I, J) slab and s_jk every I-group. q = 2st exactly,
/// r = n/s. This object is MultiplyTwoPhase's round 1 (through
/// MapBySchema), so the assignment the validator proves covers every x_ijk
/// is the one that runs.
class TwoPhaseCubeSchema final : public core::MappingSchema {
 public:
  /// Requires s | n and t | n.
  static common::Result<TwoPhaseCubeSchema> Make(int n, int s, int t);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;
  /// n/s: an element reaches every K-group (or I-group) of its slab.
  double replication() const override;

  std::uint64_t reducer_size() const {
    return 2 * static_cast<std::uint64_t>(s_) * t_;
  }

 private:
  TwoPhaseCubeSchema(int n, int s, int t) : n_(n), s_(s), t_(t) {}
  int n_;
  int s_;
  int t_;
};

/// Section 6.1's recipe: g(q) = q^2/(4n^2), |I| = 2n^2, |O| = n^2; closed
/// form r >= 2n^2/q.
core::Recipe MatMulRecipe(int n);
double MatMulLowerBound(int n, double q);

/// Total communication formulas of Section 6.3: one-phase moves
/// r * |I| = (2n^2/q) * 2n^2 = 4n^4/q pairs; the optimal two-phase
/// algorithm (s = sqrt(q), t = sqrt(q)/2) moves 2n^3/s + n^3/t = 4n^3/sqrt(q).
/// They cross at q = n^2: two-phase is strictly cheaper for all q < n^2.
double OnePhaseCommunication(int n, double q);
double TwoPhaseCommunication(int n, double q);

}  // namespace mrcost::matmul

#endif  // MRCOST_MATMUL_PROBLEM_H_
