// Cross-module property tests: the paper's central soundness claim is that
// the recipe of Section 2.4 lower-bounds the replication rate of EVERY
// valid mapping schema. Here we confront every implemented algorithm with
// the corresponding bound: for each schema we measure its true q (max
// reducer load) and true r over the full input domain, check validity, and
// assert r >= lower_bound(q) (within floating-point slack). If any schema
// ever dipped below the bound, either the schema enumeration or the bound
// derivation would be broken.

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/combinatorics.h"
#include "src/core/lower_bound.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/graph/bucketing.h"
#include "src/graph/problem.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"
#include "src/hamming/bounds.h"
#include "src/hamming/problem.h"
#include "src/hamming/schemas.h"
#include "src/matmul/problem.h"

namespace mrcost {
namespace {

/// Validates `schema` against `problem` at the schema's realized q, then
/// asserts measured r >= recipe bound at that q.
void CheckSoundness(const core::Problem& problem,
                    const core::MappingSchema& schema,
                    const core::Recipe& recipe, double slack = 1.000001) {
  const auto stats = core::ComputeSchemaStats(schema, problem.num_inputs());
  const std::uint64_t q = stats.max_reducer_load;
  ASSERT_TRUE(core::ValidateSchema(problem, schema, q).ok())
      << schema.name();
  const double bound = core::ClampedReplicationLowerBound(
      recipe, static_cast<double>(q));
  EXPECT_GE(stats.replication_rate * slack, bound)
      << schema.name() << ": measured r=" << stats.replication_rate
      << " below bound " << bound << " at q=" << q;
}

// --------------------------------------------------------- Hamming-1

class HammingSoundness : public ::testing::TestWithParam<int> {};

TEST_P(HammingSoundness, AllSchemasRespectTheLowerBound) {
  const int b = GetParam();
  const hamming::HammingProblem problem(b, 1);
  const core::Recipe recipe = hamming::Hamming1Recipe(b);

  CheckSoundness(problem, hamming::PairsSchema(b), recipe);
  CheckSoundness(problem, hamming::SingleReducerSchema(), recipe);
  for (int c = 2; c <= b; ++c) {
    if (b % c == 0) {
      auto splitting = hamming::SplittingSchema::Make(b, c);
      ASSERT_TRUE(splitting.ok());
      CheckSoundness(problem, *splitting, recipe);
    }
    auto uneven = hamming::UnevenSplittingSchema::Make(b, c);
    ASSERT_TRUE(uneven.ok());
    CheckSoundness(problem, *uneven, recipe);
  }
  if (b % 2 == 0) {
    for (int k = 1; k <= b / 2; ++k) {
      if ((b / 2) % k != 0) continue;
      auto weight = hamming::Weight2DSchema::Make(b, k);
      ASSERT_TRUE(weight.ok());
      CheckSoundness(problem, *weight, recipe);
    }
  }
  for (int d : {3, 4}) {
    if (b % d != 0) continue;
    auto kd = hamming::WeightKDSchema::Make(b, d, 1);
    if (kd.ok()) CheckSoundness(problem, *kd, recipe);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HammingSoundness,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(HammingSoundness, SplittingSitsExactlyOnTheBound) {
  // The Splitting algorithm is the tight case: measured r equals the bound
  // exactly (Figure 1's dots lie on the hyperbola).
  for (const auto& [b, c] :
       std::vector<std::pair<int, int>>{{8, 2}, {8, 4}, {12, 3}}) {
    const hamming::HammingProblem problem(b, 1);
    auto schema = hamming::SplittingSchema::Make(b, c);
    ASSERT_TRUE(schema.ok());
    const auto stats =
        core::ComputeSchemaStats(*schema, problem.num_inputs());
    const double bound = core::ReplicationLowerBound(
        hamming::Hamming1Recipe(b),
        static_cast<double>(stats.max_reducer_load));
    EXPECT_NEAR(stats.replication_rate, bound, 1e-9);
  }
}

// ---------------------------------------------------------- triangles

class TriangleSoundness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TriangleSoundness, PartitionSchemaRespectsBound) {
  const auto [n, k] = GetParam();
  const graph::TriangleProblem problem(n);
  const graph::NodeBucketer bucketer(k, /*seed=*/3);
  const graph::TrianglePartitionSchema schema(n, bucketer);
  // The triangle g(q) bound is derived with the approximations |I|=n^2/2,
  // |O|=n^3/6; at small n the exact binomials differ by ~ (1 - 1/n), so
  // allow that much slack.
  CheckSoundness(problem, schema, graph::TriangleRecipe(n), 1.10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriangleSoundness,
                         ::testing::Values(std::tuple{10, 1}, std::tuple{10, 2},
                                           std::tuple{12, 3},
                                           std::tuple{15, 4},
                                           std::tuple{18, 3},
                                           std::tuple{20, 5}));

// ------------------------------------------------------------ 2-paths

class TwoPathSoundness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoPathSoundness, BothSchemasRespectBound) {
  const auto [n, k] = GetParam();
  const graph::TwoPathProblem problem(n);
  const core::Recipe recipe = graph::TwoPathRecipe(n);
  CheckSoundness(problem, graph::TwoPathNodeSchema(n), recipe, 1.15);
  const graph::NodeBucketer bucketer(k, 7);
  CheckSoundness(problem, graph::TwoPathBucketSchema(n, bucketer), recipe,
                 1.15);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoPathSoundness,
                         ::testing::Values(std::tuple{8, 2}, std::tuple{10, 3},
                                           std::tuple{12, 2},
                                           std::tuple{14, 4}));

// ----------------------------------------------------------- mat mul

class MatMulSoundness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatMulSoundness, OnePhaseSchemaSitsExactlyOnTheBound) {
  const auto [n, s] = GetParam();
  const matmul::MatMulProblem problem(n);
  auto schema = matmul::OnePhaseSchema::Make(n, s);
  ASSERT_TRUE(schema.ok());
  CheckSoundness(problem, *schema, matmul::MatMulRecipe(n));
  // Exactness: r == 2n^2/q.
  const auto stats = core::ComputeSchemaStats(*schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(
      stats.replication_rate,
      matmul::MatMulLowerBound(n, static_cast<double>(
                                      stats.max_reducer_load)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatMulSoundness,
                         ::testing::Values(std::tuple{4, 2}, std::tuple{8, 2},
                                           std::tuple{8, 4}, std::tuple{9, 3},
                                           std::tuple{12, 4},
                                           std::tuple{12, 6}));

// ----------------------------------------------- distance-d splitting

class DistanceDSoundness
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistanceDSoundness, SchemaIsValidForItsRealizedQ) {
  // No tight lower bound exists for d >= 2 (Section 3.6); the property we
  // can still assert is schema validity at the realized q and the exact
  // replication C(k,d).
  const auto [b, k, d] = GetParam();
  auto schema = hamming::SplittingDistanceDSchema::Make(b, k, d);
  ASSERT_TRUE(schema.ok());
  const hamming::HammingProblem problem(b, d);
  const auto stats = core::ComputeSchemaStats(*schema, problem.num_inputs());
  EXPECT_TRUE(
      core::ValidateSchema(problem, *schema, stats.max_reducer_load).ok());
  EXPECT_DOUBLE_EQ(stats.replication_rate,
                   static_cast<double>(common::BinomialExact(k, d)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistanceDSoundness,
                         ::testing::Values(std::tuple{8, 4, 2},
                                           std::tuple{10, 5, 2},
                                           std::tuple{12, 4, 3},
                                           std::tuple{12, 6, 2}));

}  // namespace
}  // namespace mrcost
