#ifndef MRCOST_MATMUL_MATRIX_H_
#define MRCOST_MATMUL_MATRIX_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"

namespace mrcost::matmul {

/// A dense row-major matrix of doubles. The paper's Section 6 works with
/// square n x n matrices; rectangular support costs nothing extra.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, 0.0) {
    MRCOST_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& At(int i, int j) {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  double At(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  /// Fills with uniform values in [-1, 1) from `rng`.
  void FillRandom(common::SplitMix64& rng);

  /// Fills with Zipf(`exponent`)-skewed magnitudes (random sign): a few
  /// entries near +/-1 dominate while the tail collapses toward 0 — the
  /// heavy-tailed value profile of real sparse data. Note this skews only
  /// the numerical content: the matmul tiling schemas replicate elements
  /// structurally and a double's wire size is fixed, so engine metrics
  /// and shard placement are value-independent.
  void FillZipf(common::SplitMix64& rng, double exponent);

  /// Max absolute elementwise difference; matrices must be congruent.
  double MaxAbsDiff(const Matrix& other) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Serial baseline: C = A * B (ikj loop order).
Matrix SerialMultiply(const Matrix& a, const Matrix& b);

}  // namespace mrcost::matmul

#endif  // MRCOST_MATMUL_MATRIX_H_
