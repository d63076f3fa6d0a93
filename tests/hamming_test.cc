#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/combinatorics.h"
#include "src/common/random.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/coverage.h"
#include "src/hamming/problem.h"
#include "src/hamming/schemas.h"
#include "src/hamming/similarity_join.h"

namespace mrcost::hamming {
namespace {

// ----------------------------------------------------------- bitstring

TEST(BitString, HammingDistance) {
  EXPECT_EQ(HammingDistance(0b0000, 0b0000), 0);
  EXPECT_EQ(HammingDistance(0b0001, 0b0000), 1);
  EXPECT_EQ(HammingDistance(0b1010, 0b0101), 4);
}

TEST(BitString, Neighbors) {
  const auto nbrs = NeighborsAtDistance1(0b101, 3);
  EXPECT_EQ(nbrs, (std::vector<BitString>{0b100, 0b111, 0b001}));
}

TEST(BitString, AllStrings) {
  const auto all = AllStrings(4);
  EXPECT_EQ(all.size(), 16u);
  EXPECT_EQ(all.front(), 0u);
  EXPECT_EQ(all.back(), 15u);
}

TEST(BitString, SegmentWeight) {
  EXPECT_EQ(SegmentWeight(0b1101'0110, 0, 4), 2);
  EXPECT_EQ(SegmentWeight(0b1101'0110, 4, 4), 3);
}

// ------------------------------------------------------------- problem

TEST(HammingProblem, OutputCountDistance1) {
  // |O| = (b/2) 2^b (Example 2.3).
  for (int b : {2, 4, 6, 8, 10}) {
    const HammingProblem p(b, 1);
    EXPECT_EQ(p.num_outputs(),
              static_cast<std::uint64_t>(b) * (1ull << b) / 2)
        << "b=" << b;
  }
}

TEST(HammingProblem, OutputCountDistanceD) {
  // |O| = C(b,d) 2^{b-1}.
  for (int b : {4, 6, 8}) {
    for (int d = 1; d <= 3; ++d) {
      const HammingProblem p(b, d);
      EXPECT_EQ(p.num_outputs(),
                common::BinomialExact(b, d) * (1ull << (b - 1)))
          << "b=" << b << " d=" << d;
    }
  }
}

TEST(HammingProblem, PairsAreAtExactDistance) {
  const HammingProblem p(8, 2);
  for (const auto& [u, v] : p.pairs()) {
    EXPECT_LT(u, v);
    EXPECT_EQ(HammingDistance(u, v), 2);
  }
}

// ------------------------------------------- schemas: extremes (Sec 3.3)

TEST(PairsSchema, IsValidAtQ2) {
  const HammingProblem p(6, 1);
  const PairsSchema schema(6);
  EXPECT_TRUE(core::ValidateSchema(p, schema, 2).ok());
}

TEST(PairsSchema, ReplicationIsExactlyB) {
  // Theorem 3.2 at q=2: r = b / log2(2) = b, met exactly.
  for (int b : {3, 5, 8}) {
    const PairsSchema schema(b);
    const auto stats =
        core::ComputeSchemaStats(schema, std::uint64_t{1} << b);
    EXPECT_DOUBLE_EQ(stats.replication_rate, b);
    EXPECT_EQ(stats.max_reducer_load, 2u);
  }
}

TEST(SingleReducerSchema, IsValidAtFullDomain) {
  const HammingProblem p(5, 1);
  const SingleReducerSchema schema;
  EXPECT_TRUE(core::ValidateSchema(p, schema, 1u << 5).ok());
  const auto stats = core::ComputeSchemaStats(schema, 1u << 5);
  EXPECT_DOUBLE_EQ(stats.replication_rate, 1.0);  // r = b/log2(2^b) = 1
}

// ------------------------------------------- Splitting (Sec 3.3), swept

class SplittingSchemaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplittingSchemaTest, ValidAndMatchesLowerBoundExactly) {
  const auto [b, c] = GetParam();
  auto schema = SplittingSchema::Make(b, c);
  ASSERT_TRUE(schema.ok()) << schema.status();
  const HammingProblem problem(b, 1);

  // Constraint check at the schema's own q = 2^{b/c}.
  const std::uint64_t q = schema->reducer_size();
  EXPECT_TRUE(core::ValidateSchema(problem, *schema, q).ok());

  // Replication rate is exactly c, which equals the Theorem 3.2 bound
  // b / log2(q) = b / (b/c) = c: the algorithm is exactly optimal.
  const auto stats = core::ComputeSchemaStats(*schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(stats.replication_rate, c);
  EXPECT_DOUBLE_EQ(Hamming1LowerBound(b, static_cast<double>(q)), c);
  // Every reducer receives exactly 2^{b/c} strings.
  EXPECT_EQ(stats.max_reducer_load, q);
  EXPECT_EQ(stats.total_assignments,
            static_cast<std::uint64_t>(c) * problem.num_inputs());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplittingSchemaTest,
    ::testing::Values(std::tuple{4, 2}, std::tuple{6, 2}, std::tuple{6, 3},
                      std::tuple{8, 2}, std::tuple{8, 4}, std::tuple{9, 3},
                      std::tuple{10, 5}, std::tuple{12, 2},
                      std::tuple{12, 3}, std::tuple{12, 4},
                      std::tuple{12, 6}, std::tuple{10, 10}));

TEST(SplittingSchema, RejectsNonDivisor) {
  EXPECT_FALSE(SplittingSchema::Make(10, 3).ok());
  EXPECT_FALSE(SplittingSchema::Make(8, 0).ok());
  EXPECT_FALSE(SplittingSchema::Make(8, 9).ok());
}

TEST(SplittingSchema, LemmaThreeOneIsTightOnSplittingReducers) {
  // Each Splitting reducer receives q = 2^{b/c} inputs forming a
  // sub-hypercube of dimension b/c, which contains exactly (q/2) log2 q
  // distance-1 pairs — Lemma 3.1 holds with equality.
  const int b = 8, c = 2;
  const double q = 1 << (b / c);
  const double outputs_in_subcube = (b / c) * std::pow(2.0, b / c) / 2.0;
  EXPECT_DOUBLE_EQ(Hamming1CoverBound(q), outputs_in_subcube);
}

// ---------------------------------------- Weight-based (Sec 3.4), swept

class Weight2DSchemaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Weight2DSchemaTest, CoversAllDistance1Pairs) {
  const auto [b, k] = GetParam();
  auto schema = Weight2DSchema::Make(b, k);
  ASSERT_TRUE(schema.ok()) << schema.status();
  const HammingProblem problem(b, 1);
  // No q constraint of interest here (cells are big); validate coverage
  // with q = |I|.
  EXPECT_TRUE(
      core::ValidateSchema(problem, *schema, problem.num_inputs()).ok());
}

TEST_P(Weight2DSchemaTest, ReplicationApproaches1Plus2OverK) {
  const auto [b, k] = GetParam();
  auto schema = Weight2DSchema::Make(b, k);
  ASSERT_TRUE(schema.ok());
  const auto stats =
      core::ComputeSchemaStats(*schema, std::uint64_t{1} << b);
  if (schema->num_groups() == 1) {
    // Degenerate single-cell case: nothing borders anything, r = 1.
    EXPECT_DOUBLE_EQ(stats.replication_rate, 1.0);
    return;
  }
  // r = 1 + (fraction of strings with a border half-weight). The paper's
  // estimate is 2/k; binomial discreteness makes small-b cases wobble, so
  // assert the structural bounds 1 < r <= 2 plus closeness to 1 + 2/k.
  EXPECT_GT(stats.replication_rate, 1.0);
  EXPECT_LE(stats.replication_rate, 2.0);
  const double estimate = 1.0 + 2.0 / k;
  EXPECT_NEAR(stats.replication_rate, estimate, 0.35)
      << "b=" << b << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Weight2DSchemaTest,
                         ::testing::Values(std::tuple{8, 2}, std::tuple{8, 4},
                                           std::tuple{12, 2},
                                           std::tuple{12, 3},
                                           std::tuple{12, 6},
                                           std::tuple{14, 7},
                                           std::tuple{16, 4},
                                           std::tuple{16, 2}));

TEST(Weight2DSchema, RejectsBadParameters) {
  EXPECT_FALSE(Weight2DSchema::Make(7, 2).ok());   // odd b
  EXPECT_FALSE(Weight2DSchema::Make(12, 5).ok());  // 5 does not divide 6
}

class WeightKDSchemaTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WeightKDSchemaTest, CoversAllDistance1Pairs) {
  const auto [b, d, k] = GetParam();
  auto schema = WeightKDSchema::Make(b, d, k);
  ASSERT_TRUE(schema.ok()) << schema.status();
  const HammingProblem problem(b, 1);
  EXPECT_TRUE(
      core::ValidateSchema(problem, *schema, problem.num_inputs()).ok());
  // Replication is bounded by 1 + d/k in the limit; structurally r <= 1+d,
  // and exactly 1 in the degenerate single-cell case.
  const auto stats =
      core::ComputeSchemaStats(*schema, problem.num_inputs());
  if (schema->num_groups_per_dim() == 1) {
    EXPECT_DOUBLE_EQ(stats.replication_rate, 1.0);
  } else {
    EXPECT_GT(stats.replication_rate, 1.0);
    EXPECT_LE(stats.replication_rate, 1.0 + d);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeightKDSchemaTest,
                         ::testing::Values(std::tuple{12, 3, 2},
                                           std::tuple{12, 2, 3},
                                           std::tuple{12, 4, 3},
                                           std::tuple{12, 6, 2},
                                           std::tuple{8, 4, 2},
                                           std::tuple{16, 4, 2}));

TEST(WeightKDSchema, MatchesWeight2DWhenDIs2) {
  const int b = 12, k = 3;
  auto kd = WeightKDSchema::Make(b, 2, k);
  auto two_d = Weight2DSchema::Make(b, k);
  ASSERT_TRUE(kd.ok());
  ASSERT_TRUE(two_d.ok());
  const auto stats_kd = core::ComputeSchemaStats(*kd, 1u << b);
  const auto stats_2d = core::ComputeSchemaStats(*two_d, 1u << b);
  EXPECT_EQ(stats_kd.total_assignments, stats_2d.total_assignments);
  EXPECT_EQ(stats_kd.max_reducer_load, stats_2d.max_reducer_load);
}

// --------------------------------------------- Ball-2 (Sec 3.6), swept

class BallSchemaTest : public ::testing::TestWithParam<int> {};

TEST_P(BallSchemaTest, CoversDistance2Pairs) {
  const int b = GetParam();
  const HammingProblem problem(b, 2);
  const BallSchema schema(b, /*include_center=*/false);
  EXPECT_TRUE(
      core::ValidateSchema(problem, schema, static_cast<std::uint64_t>(b))
          .ok());
  const auto stats = core::ComputeSchemaStats(schema, 1u << b);
  EXPECT_DOUBLE_EQ(stats.replication_rate, b);   // one reducer per flip
  EXPECT_EQ(stats.max_reducer_load, static_cast<std::uint64_t>(b));
}

TEST_P(BallSchemaTest, WithCenterAlsoCoversDistance1) {
  const int b = GetParam();
  const BallSchema schema(b, /*include_center=*/true);
  const HammingProblem d1(b, 1);
  const HammingProblem d2(b, 2);
  EXPECT_TRUE(core::ValidateSchema(
                  d1, schema, static_cast<std::uint64_t>(b) + 1)
                  .ok());
  EXPECT_TRUE(core::ValidateSchema(
                  d2, schema, static_cast<std::uint64_t>(b) + 1)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BallSchemaTest, ::testing::Values(3, 5, 8));

TEST(BallSchema, CoversQuadraticallyManyOutputs) {
  // Section 3.6: a Ball-2 reducer covers C(b,2) = Theta(q^2) outputs,
  // which is why the Lemma 3.1-style argument cannot extend to d=2.
  const int b = 8;
  const double q = b;
  const double covered = common::BinomialDouble(b, 2);
  EXPECT_GT(covered, Hamming1CoverBound(q));
}

// -------------------------- Splitting for distance d (Sec 3.6), swept

class SplittingDTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SplittingDTest, CoversDistanceDPairs) {
  const auto [b, k, d] = GetParam();
  auto schema = SplittingDistanceDSchema::Make(b, k, d);
  ASSERT_TRUE(schema.ok()) << schema.status();
  // Covers every distance d' <= d; validate for each problem instance.
  for (int dist = 1; dist <= d; ++dist) {
    const HammingProblem problem(b, dist);
    EXPECT_TRUE(core::ValidateSchema(problem, *schema,
                                     std::uint64_t{1} << (d * (b / k)))
                    .ok())
        << "dist=" << dist;
  }
  const auto stats =
      core::ComputeSchemaStats(*schema, std::uint64_t{1} << b);
  EXPECT_DOUBLE_EQ(stats.replication_rate,
                   static_cast<double>(common::BinomialExact(k, d)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplittingDTest,
                         ::testing::Values(std::tuple{8, 4, 2},
                                           std::tuple{8, 4, 3},
                                           std::tuple{12, 4, 2},
                                           std::tuple{12, 6, 2},
                                           std::tuple{12, 3, 2},
                                           std::tuple{10, 5, 3}));

TEST(SplittingDistanceD, RejectsBadParameters) {
  EXPECT_FALSE(SplittingDistanceDSchema::Make(12, 5, 2).ok());  // 5 !| 12
  EXPECT_FALSE(SplittingDistanceDSchema::Make(12, 4, 4).ok());  // d >= k
  EXPECT_FALSE(SplittingDistanceDSchema::Make(12, 4, 0).ok());
}

// ------------------------------------------------------------- bounds

TEST(Bounds, CoverBoundEdgeCases) {
  EXPECT_DOUBLE_EQ(Hamming1CoverBound(1), 0.0);  // Lemma 3.1 basis q=1
  EXPECT_DOUBLE_EQ(Hamming1CoverBound(2), 1.0);  // basis q=2
  EXPECT_DOUBLE_EQ(Hamming1CoverBound(4), 4.0);
}

TEST(Bounds, RecipeReproducesTheorem32) {
  // The generic recipe bound must equal b/log2(q) for all q.
  for (int b : {4, 8, 16}) {
    const core::Recipe recipe = Hamming1Recipe(b);
    for (double q : {2.0, 4.0, 64.0, 1024.0}) {
      EXPECT_NEAR(core::ReplicationLowerBound(recipe, q),
                  Hamming1LowerBound(b, q), 1e-12)
          << "b=" << b << " q=" << q;
    }
  }
}

TEST(Bounds, RecipeMonotonicityHolds) {
  EXPECT_TRUE(core::CheckMonotoneGOverQ(Hamming1Recipe(16), 2, 1e6).ok());
}

TEST(Bounds, SplittingDReplicationEstimate) {
  // C(k,d) <= (ek/d)^d (standard bound the paper invokes).
  for (int k : {4, 8, 16}) {
    for (int d = 1; d < k; ++d) {
      EXPECT_LE(static_cast<double>(common::BinomialExact(k, d)),
                SplittingDistanceDReplicationEstimate(k, d) + 1e-9);
    }
  }
}

TEST(Bounds, WeightCellEstimates) {
  // The 2-D estimate is the d=2 instance of the d-dimensional formula.
  const int b = 16;
  EXPECT_NEAR(Weight2DCellEstimate(b, 2), WeightKDCellEstimate(b, 2, 2),
              1e-9);
}

// ----------------------------------------------------- similarity join

class SimilarityJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SimilarityJoinTest, SplittingJoinMatchesSerial) {
  const auto [b, k, d, num_strings] = GetParam();
  common::SplitMix64 rng(1234 + b * 7 + k);
  auto sample = common::SampleWithoutReplacement(std::uint64_t{1} << b,
                                                 num_strings, rng);
  std::vector<BitString> strings(sample.begin(), sample.end());

  auto result = SplittingSimilarityJoin(strings, b, k, d);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->pairs, SerialSimilarityJoin(strings, d));
  // Replication rate is exactly C(k,d) regardless of the data.
  EXPECT_DOUBLE_EQ(result->metrics.replication_rate(),
                   static_cast<double>(common::BinomialExact(k, d)));
}

// Sparse inputs leave groups small, so their reducers test all pairs.
// The dense rows take the flip-mask probe branch: the full domain at
// (12,3,1) and (12,4,2) puts 2^(d*b/k) strings in every reducer, and at
// (12,6,3) and 80% density most subsets probe while {0,1,2}, whose 41
// masks outnumber (n-1)/2, still tests all pairs. (20,10,5) needs
// C(10,5) * sum_{w<=5} C(10,w) = 160776 masks, above the table cap, so
// every reducer there tests all pairs without a table.
INSTANTIATE_TEST_SUITE_P(
    Sweep, SimilarityJoinTest,
    ::testing::Values(std::tuple{8, 4, 1, 100}, std::tuple{8, 4, 2, 100},
                      std::tuple{8, 4, 3, 64}, std::tuple{12, 4, 2, 300},
                      std::tuple{12, 6, 1, 500}, std::tuple{12, 3, 2, 200},
                      std::tuple{16, 4, 1, 400},
                      std::tuple{16, 8, 2, 256},
                      std::tuple{12, 3, 1, 4096}, std::tuple{12, 4, 2, 4096},
                      std::tuple{12, 6, 3, 3277},
                      std::tuple{20, 10, 5, 150}));

class BallJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BallJoinTest, BallJoinMatchesSerial) {
  const auto [b, d, num_strings] = GetParam();
  common::SplitMix64 rng(99 + b + d);
  auto sample = common::SampleWithoutReplacement(std::uint64_t{1} << b,
                                                 num_strings, rng);
  std::vector<BitString> strings(sample.begin(), sample.end());

  auto result = BallSimilarityJoin(strings, b, d);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->pairs, SerialSimilarityJoin(strings, d));
  // Ball join replicates each string b+1 times (ball + center).
  EXPECT_DOUBLE_EQ(result->metrics.replication_rate(), b + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BallJoinTest,
                         ::testing::Values(std::tuple{8, 1, 120},
                                           std::tuple{8, 2, 120},
                                           std::tuple{10, 2, 300},
                                           std::tuple{12, 1, 500},
                                           std::tuple{12, 2, 400}));

TEST(SimilarityJoin, RejectsUnsupportedParameters) {
  std::vector<BitString> strings{1, 2, 3};
  EXPECT_FALSE(SplittingSimilarityJoin(strings, 10, 3, 1).ok());  // 3 !| 10
  // Bits at or above b would spill into the reducer key's rank bits.
  EXPECT_FALSE(
      SplittingSimilarityJoin({1, 3, 0x301, 0x303, 0xF01}, 8, 4, 1).ok());
  EXPECT_FALSE(BallSimilarityJoin(strings, 8, 3).ok());           // d > 2
  // Ball flips cover only the low b bits: pairs differing above them
  // would never meet at a reducer.
  EXPECT_FALSE(
      BallSimilarityJoin({0, 1u << 20, 3, (1u << 20) | 1}, 8, 2).ok());
}

TEST(SimilarityJoin, FullDomainPairCountMatchesFormula) {
  // On the full 2^b domain, the number of distance-1 pairs is (b/2)2^b.
  const int b = 8;
  auto strings = AllStrings(b);
  auto result = SplittingSimilarityJoin(strings, b, 4, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs.size(),
            static_cast<std::size_t>(b) * (1u << b) / 2);
}

TEST(SimilarityJoin, EmptyAndSingletonInputs) {
  EXPECT_TRUE(SplittingSimilarityJoin({}, 8, 4, 1)->pairs.empty());
  EXPECT_TRUE(SplittingSimilarityJoin({5}, 8, 4, 1)->pairs.empty());
  EXPECT_TRUE(BallSimilarityJoin({}, 8, 2)->pairs.empty());
}

// ------------------------------------- empirical g(q) (Sec 3.6 probe)

TEST(Coverage, ExactMatchesLemma31AtPowersOfTwo) {
  // Lemma 3.1 is tight at q = 2^j: the best q-subset is a sub-hypercube
  // with (q/2) log2 q distance-1 pairs. The exact search must find it.
  for (int b : {3, 4, 5}) {
    for (int j = 0; j <= 3 && j <= b; ++j) {
      const int q = 1 << j;
      EXPECT_EQ(ExactMaxCoverage(b, 1, q),
                static_cast<std::uint64_t>(q / 2 * j))
          << "b=" << b << " q=" << q;
    }
  }
}

TEST(Coverage, ExactNeverExceedsLemma31) {
  for (int b : {4, 5}) {
    for (int q = 2; q <= 8; ++q) {
      EXPECT_LE(static_cast<double>(ExactMaxCoverage(b, 1, q)),
                Hamming1CoverBound(q) + 1e-9)
          << "b=" << b << " q=" << q;
    }
  }
}

TEST(Coverage, GreedyIsALowerBoundOnExact) {
  for (int b : {4, 5}) {
    for (int d : {1, 2}) {
      for (int q : {3, 5, 7}) {
        EXPECT_LE(GreedyCoverage(b, d, q), ExactMaxCoverage(b, d, q))
            << "b=" << b << " d=" << d << " q=" << q;
      }
    }
  }
}

TEST(Coverage, Distance2GrowsQuadratically) {
  // Section 3.6: for d = 2 the Ball-2 construction shows g(q) =
  // Omega(q^2) for q <= b+1 — far above the (q/2)log2(q) shape of d=1.
  // The exact search confirms: at b=5, q=6 a ball already packs C(5,2)=10
  // distance-2 pairs while the d=1 optimum is 8.
  EXPECT_GE(ExactMaxCoverage(5, 2, 6), 10u);
  EXPECT_EQ(ExactMaxCoverage(5, 1, 8), 12u);  // (8/2) log2 8 = 12
}

TEST(Coverage, FullDomainIsExactFormula) {
  // q = 2^b: all C(b,d) 2^{b-1} pairs are covered.
  EXPECT_EQ(ExactMaxCoverage(4, 1, 16), 4u * 8 / 1);
  EXPECT_EQ(ExactMaxCoverage(4, 2, 16),
            common::BinomialExact(4, 2) * 8);
}

TEST(Coverage, MonotoneInQ) {
  std::uint64_t prev = 0;
  for (int q = 1; q <= 8; ++q) {
    const std::uint64_t cur = ExactMaxCoverage(4, 2, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace mrcost::hamming
