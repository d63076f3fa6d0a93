// Adversarial and mutation tests: break things on purpose and check that
// the validating machinery notices. A validator that accepts broken
// schemas would silently void every upper-bound claim in the benches, so
// these tests guard the guards.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/engine/plan.h"
#include "src/graph/generators.h"
#include "src/graph/problem.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"
#include "src/hamming/bounds.h"
#include "src/hamming/problem.h"
#include "src/hamming/schemas.h"

namespace mrcost {
namespace {

/// Wraps a schema and drops the assignment of one victim input to one of
/// its reducers — the minimal coverage-breaking mutation.
class DropOneAssignment final : public core::MappingSchema {
 public:
  DropOneAssignment(const core::MappingSchema& inner, core::InputId victim)
      : inner_(inner), victim_(victim) {}

  std::string name() const override { return "mutated(" + inner_.name() + ")"; }
  std::uint64_t num_reducers() const override {
    return inner_.num_reducers();
  }
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override {
    if (input != victim_) {
      inner_.ForEachReducer(input, sink);
      return;
    }
    auto reducers = inner_.ReducersOfInput(input);
    if (!reducers.empty()) reducers.pop_back();
    for (core::ReducerId r : reducers) sink(r);
  }

 private:
  const core::MappingSchema& inner_;
  core::InputId victim_;
};

/// Redirects every assignment of one victim input to reducer 0 —
/// a wrong-place (rather than missing) mutation.
class MisrouteOneInput final : public core::MappingSchema {
 public:
  MisrouteOneInput(const core::MappingSchema& inner, core::InputId victim)
      : inner_(inner), victim_(victim) {}

  std::string name() const override {
    return "misrouted(" + inner_.name() + ")";
  }
  std::uint64_t num_reducers() const override {
    return inner_.num_reducers();
  }
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override {
    if (input == victim_) {
      sink(0);
    } else {
      inner_.ForEachReducer(input, sink);
    }
  }

 private:
  const core::MappingSchema& inner_;
  core::InputId victim_;
};

using Incidence = std::pair<core::ReducerId, core::InputId>;

/// The (reducer, input) incidences a MapBySchema round over every input id
/// in [0, num_inputs) delivers to its reducers, sorted.
std::vector<Incidence> RuntimeIncidences(
    std::shared_ptr<const core::MappingSchema> schema,
    std::uint64_t num_inputs) {
  std::vector<core::InputId> ids(num_inputs);
  std::iota(ids.begin(), ids.end(), 0);
  engine::Plan plan;
  auto run = plan.Source(std::move(ids))
                 .MapBySchema<std::uint64_t>(
                     std::move(schema),
                     [](const core::InputId& id) { return id; }, "schema")
                 .ReduceByKey<Incidence>(
                     [](const std::uint64_t& reducer,
                        engine::GroupView<core::InputId> inputs,
                        std::vector<Incidence>& out) {
                       for (core::InputId input : inputs) {
                         out.emplace_back(reducer, input);
                       }
                     })
                 .Execute();
  std::sort(run.outputs.begin(), run.outputs.end());
  return run.outputs;
}

class SchemaMutationTest : public ::testing::TestWithParam<core::InputId> {};

TEST_P(SchemaMutationTest, DroppedAssignmentIsCaught) {
  const int b = 8, c = 2;
  const hamming::HammingProblem problem(b, 1);
  auto schema = hamming::SplittingSchema::Make(b, c);
  ASSERT_TRUE(schema.ok());
  // Sanity: the intact schema validates.
  ASSERT_TRUE(
      core::ValidateSchema(problem, *schema, schema->reducer_size()).ok());
  const DropOneAssignment mutated(*schema, GetParam());
  const auto status =
      core::ValidateSchema(problem, mutated, schema->reducer_size());
  EXPECT_FALSE(status.ok()) << "victim=" << GetParam();
  EXPECT_NE(status.message().find("not covered"), std::string::npos);
}

TEST_P(SchemaMutationTest, MisroutedInputIsCaught) {
  const int b = 8, c = 2;
  const hamming::HammingProblem problem(b, 1);
  auto schema = hamming::SplittingSchema::Make(b, c);
  ASSERT_TRUE(schema.ok());
  const MisrouteOneInput mutated(*schema, GetParam());
  // Coverage must break for every victim: each string participates in
  // b distance-1 pairs, and reducer 0 cannot host them all.
  EXPECT_FALSE(
      core::ValidateSchema(problem, mutated, schema->reducer_size()).ok());
}

TEST_P(SchemaMutationTest, DroppedAssignmentReachesTheRuntime) {
  // The engine runs the schema object itself, so a mutation of the schema
  // is a mutation of the shuffle: exactly the victim's dropped incidence
  // goes missing, and nothing else moves. Checked for the Splitting, Ball
  // and two-path schemas, each over its full input domain.
  const int b = 8;
  const graph::NodeId n = 24;  // C(24,2) = 276 possible edges
  auto splitting = hamming::SplittingSchema::Make(b, 2);
  ASSERT_TRUE(splitting.ok());
  const std::vector<
      std::pair<std::shared_ptr<const core::MappingSchema>, std::uint64_t>>
      schemas = {
          {std::make_shared<hamming::SplittingSchema>(*splitting),
           std::uint64_t{1} << b},
          {std::make_shared<hamming::BallSchema>(b, /*include_center=*/true),
           std::uint64_t{1} << b},
          {std::make_shared<graph::TwoPathNodeSchema>(n),
           std::uint64_t{n} * (n - 1) / 2},
          {std::make_shared<graph::TwoPathBucketSchema>(
               n, graph::NodeBucketer(3, 1)),
           std::uint64_t{n} * (n - 1) / 2}};
  for (const auto& [intact, num_inputs] : schemas) {
    SCOPED_TRACE(intact->name());
    const std::vector<Incidence> expected =
        RuntimeIncidences(intact, num_inputs);
    const std::vector<Incidence> mutated = RuntimeIncidences(
        std::make_shared<DropOneAssignment>(*intact, GetParam()), num_inputs);
    std::vector<Incidence> missing;
    std::set_difference(expected.begin(), expected.end(), mutated.begin(),
                        mutated.end(), std::back_inserter(missing));
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0].second, GetParam());
    EXPECT_EQ(missing[0].first, intact->ReducersOfInput(GetParam()).back());
    EXPECT_EQ(mutated.size(), expected.size() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Victims, SchemaMutationTest,
                         ::testing::Values(0u, 1u, 37u, 128u, 200u, 255u));

TEST(SchemaMutation, TriangleSchemaMutationsMostlyCaught) {
  // Dropping one (edge -> reducer) assignment uncovers the triangles whose
  // bucket multiset is the dropped reducer. That set is empty only when
  // the third bucket of the dropped multiset contains no node besides the
  // edge's own endpoints, so a large majority of single drops must be
  // caught — and the validator must never crash on any of them.
  const graph::NodeId n = 10;
  const graph::TriangleProblem problem(n);
  const graph::NodeBucketer bucketer(3, 1);
  const graph::TrianglePartitionSchema schema(n, bucketer);
  ASSERT_TRUE(
      core::ValidateSchema(problem, schema, problem.num_inputs()).ok());
  int caught = 0;
  const int victims = static_cast<int>(problem.num_inputs());
  for (core::InputId victim = 0;
       victim < static_cast<core::InputId>(victims); ++victim) {
    const DropOneAssignment mutated(schema, victim);
    if (!core::ValidateSchema(problem, mutated, problem.num_inputs())
             .ok()) {
      ++caught;
    }
  }
  EXPECT_GE(caught, victims * 8 / 10) << caught << "/" << victims;
}

TEST(SchemaMutation, StatsStillComputableOnMutants) {
  // Stats computation must not assume validity.
  const int b = 6;
  auto schema = hamming::SplittingSchema::Make(b, 2);
  ASSERT_TRUE(schema.ok());
  const DropOneAssignment mutated(*schema, 5);
  const auto intact = core::ComputeSchemaStats(*schema, 1u << b);
  const auto broken = core::ComputeSchemaStats(mutated, 1u << b);
  EXPECT_EQ(broken.total_assignments, intact.total_assignments - 1);
}

// --------------------------------------------------- uneven splitting

class UnevenSplittingTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UnevenSplittingTest, CoversAndReplicatesExactlyC) {
  const auto [b, c] = GetParam();
  auto schema = hamming::UnevenSplittingSchema::Make(b, c);
  ASSERT_TRUE(schema.ok()) << schema.status();
  const hamming::HammingProblem problem(b, 1);
  EXPECT_TRUE(
      core::ValidateSchema(problem, *schema, schema->reducer_size()).ok());
  const auto stats =
      core::ComputeSchemaStats(*schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(stats.replication_rate, c);
  EXPECT_EQ(stats.max_reducer_load, schema->reducer_size());
  // Within one bit of the hyperbola: r = c <= b/floor(b/c) and the
  // lower bound at the realized q is b/ceil(b/c).
  const double bound = hamming::Hamming1LowerBound(
      b, static_cast<double>(stats.max_reducer_load));
  EXPECT_GE(stats.replication_rate, bound - 1e-9);
  EXPECT_LE(stats.replication_rate / bound,
            static_cast<double>((b + c - 1) / c) / (b / c) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnevenSplittingTest,
                         ::testing::Values(std::tuple{10, 3},
                                           std::tuple{10, 4},
                                           std::tuple{11, 2},
                                           std::tuple{11, 3},
                                           std::tuple{13, 5},
                                           std::tuple{12, 5},
                                           std::tuple{9, 2},
                                           std::tuple{7, 7}));

TEST(UnevenSplitting, SegmentsPartitionTheBits) {
  auto schema = hamming::UnevenSplittingSchema::Make(11, 3);
  ASSERT_TRUE(schema.ok());
  int covered = 0;
  int prev_end = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(schema->SegmentStart(i), prev_end);
    covered += schema->SegmentLength(i);
    prev_end += schema->SegmentLength(i);
  }
  EXPECT_EQ(covered, 11);
  // 11 = 4 + 4 + 3.
  EXPECT_EQ(schema->SegmentLength(0), 4);
  EXPECT_EQ(schema->SegmentLength(2), 3);
  EXPECT_EQ(schema->reducer_size(), 16u);
}

TEST(UnevenSplitting, MatchesEvenSplittingOnDivisors) {
  const int b = 12, c = 4;
  auto uneven = hamming::UnevenSplittingSchema::Make(b, c);
  auto even = hamming::SplittingSchema::Make(b, c);
  ASSERT_TRUE(uneven.ok());
  ASSERT_TRUE(even.ok());
  const auto su = core::ComputeSchemaStats(*uneven, 1u << b);
  const auto se = core::ComputeSchemaStats(*even, 1u << b);
  EXPECT_EQ(su.total_assignments, se.total_assignments);
  EXPECT_EQ(su.max_reducer_load, se.max_reducer_load);
}

// ----------------------------------------------------- zipf generator

TEST(Zipf, RankZeroIsMostFrequent) {
  common::SplitMix64 rng(12);
  common::ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);  // far above uniform share
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(Zipf, HigherExponentIsMoreSkewed) {
  common::SplitMix64 rng_a(5), rng_b(5);
  common::ZipfDistribution mild(1000, 0.8);
  common::ZipfDistribution steep(1000, 2.0);
  int mild_head = 0, steep_head = 0;
  for (int i = 0; i < 5000; ++i) {
    mild_head += mild.Sample(rng_a) < 10;
    steep_head += steep.Sample(rng_b) < 10;
  }
  EXPECT_GT(steep_head, mild_head);
}

TEST(Zipf, SingletonDomain) {
  common::SplitMix64 rng(3);
  common::ZipfDistribution zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// -------------------------------------------- randomized fuzz checks

TEST(Fuzz, RandomSchemasAgainstRandomProblemsNeverCrashValidator) {
  // Random bipartite-dependency problems and random assignments: the
  // validator must terminate with a clean verdict on arbitrary garbage,
  // and a single-reducer schema must always pass coverage.
  common::SplitMix64 rng(2027);
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t num_inputs = 4 + rng.UniformBelow(40);
    const std::uint64_t num_outputs = 1 + rng.UniformBelow(50);
    std::vector<std::vector<core::InputId>> outputs(num_outputs);
    for (auto& deps : outputs) {
      const int arity = 1 + static_cast<int>(rng.UniformBelow(3));
      for (int i = 0; i < arity; ++i) {
        deps.push_back(rng.UniformBelow(num_inputs));
      }
    }
    const core::ExplicitProblem problem("fuzz", num_inputs, outputs);

    // Single reducer: always valid at q = |I|.
    std::vector<std::vector<core::ReducerId>> all(num_inputs, {0});
    const core::ExplicitSchema single("single", 1, all);
    EXPECT_TRUE(core::ValidateSchema(problem, single, num_inputs).ok());

    // Random assignment to 4 reducers: validator returns a clean verdict
    // either way, and whenever it accepts, the acceptance is genuine —
    // recheck one random output's coverage by hand.
    std::vector<std::vector<core::ReducerId>> random_assign(num_inputs);
    for (auto& rs : random_assign) {
      const int copies = 1 + static_cast<int>(rng.UniformBelow(2));
      for (int i = 0; i < copies; ++i) rs.push_back(rng.UniformBelow(4));
    }
    const core::ExplicitSchema random_schema("random", 4, random_assign);
    const auto verdict =
        core::ValidateSchema(problem, random_schema, num_inputs);
    if (verdict.ok() && num_outputs > 0) {
      const auto deps =
          problem.InputsOfOutput(rng.UniformBelow(num_outputs));
      bool covered = false;
      for (core::ReducerId r = 0; r < 4 && !covered; ++r) {
        bool all_here = true;
        for (core::InputId in : deps) {
          const auto& rs = random_assign[in];
          if (std::find(rs.begin(), rs.end(), r) == rs.end()) {
            all_here = false;
            break;
          }
        }
        covered = all_here;
      }
      EXPECT_TRUE(covered) << "validator accepted an uncovered output";
    }
  }
}

TEST(Fuzz, StatsMatchManualRecount) {
  common::SplitMix64 rng(99);
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t num_inputs = 5 + rng.UniformBelow(30);
    const std::uint64_t num_reducers = 1 + rng.UniformBelow(6);
    std::vector<std::vector<core::ReducerId>> assignment(num_inputs);
    std::uint64_t manual_total = 0;
    std::vector<std::uint64_t> manual_load(num_reducers, 0);
    for (auto& rs : assignment) {
      const int copies = static_cast<int>(rng.UniformBelow(3));
      for (int i = 0; i < copies; ++i) {
        const core::ReducerId r = rng.UniformBelow(num_reducers);
        rs.push_back(r);
        ++manual_total;
        ++manual_load[r];
      }
    }
    const core::ExplicitSchema schema("fuzz-stats", num_reducers,
                                      assignment);
    const auto stats = core::ComputeSchemaStats(schema, num_inputs);
    EXPECT_EQ(stats.total_assignments, manual_total);
    EXPECT_EQ(stats.max_reducer_load,
              *std::max_element(manual_load.begin(), manual_load.end()));
  }
}

// ------------------------------------------- clustering coefficient

TEST(Clustering, KnownValues) {
  EXPECT_DOUBLE_EQ(graph::GlobalClusteringCoefficient(graph::CompleteGraph(3)),
                   1.0);
  EXPECT_DOUBLE_EQ(graph::GlobalClusteringCoefficient(graph::CompleteGraph(5)),
                   1.0);
  // Star: wedges but no triangles.
  EXPECT_DOUBLE_EQ(graph::GlobalClusteringCoefficient(
                       graph::Graph(4, {{0, 1}, {0, 2}, {0, 3}})),
                   0.0);
  // Wedge-free graph: defined as 0.
  EXPECT_DOUBLE_EQ(graph::GlobalClusteringCoefficient(
                       graph::Graph(4, {{0, 1}, {2, 3}})),
                   0.0);
}

}  // namespace
}  // namespace mrcost
