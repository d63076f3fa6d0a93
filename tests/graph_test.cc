#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/combinatorics.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/graph/alon.h"
#include "src/graph/bucketing.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/problem.h"
#include "src/graph/sample_graph_mr.h"
#include "src/graph/subgraph.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"

namespace mrcost::graph {
namespace {

// --------------------------------------------------------------- graph

TEST(Graph, NormalizesEdges) {
  Graph g(4, {{2, 1}, {1, 2}, {0, 3}, {3, 3}});
  EXPECT_EQ(g.num_edges(), 2u);  // dedup + loop dropped
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_TRUE(g.HasEdge(3, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(3, 3));
}

TEST(Graph, AdjacencySorted) {
  Graph g(5, {{0, 4}, {0, 1}, {0, 3}});
  EXPECT_EQ(g.Neighbors(0), (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(Graph, PairRankRoundTrip) {
  for (std::uint64_t n : {2ull, 5ull, 17ull}) {
    std::uint64_t rank = 0;
    for (std::uint64_t u = 0; u < n; ++u) {
      for (std::uint64_t v = u + 1; v < n; ++v) {
        EXPECT_EQ(PairRank(n, u, v), rank);
        const auto [a, b] = PairUnrank(n, rank);
        EXPECT_EQ(a, u);
        EXPECT_EQ(b, v);
        ++rank;
      }
    }
    EXPECT_EQ(rank, n * (n - 1) / 2);
  }
}

TEST(Graph, PairUnrankIsExactOnLargeDomains) {
  // The closed-form unrank must land on the right row at every row
  // boundary, where floating-point error in the root would show first.
  for (const std::uint64_t n : {1000ull, 65537ull, 3000000ull}) {
    for (const std::uint64_t u :
         std::vector<std::uint64_t>{0, 1, n / 3, n / 2, n - 3, n - 2}) {
      for (const std::uint64_t v : {u + 1, n - 1}) {
        const auto [a, b] = PairUnrank(n, PairRank(n, u, v));
        EXPECT_EQ(a, u) << "n=" << n << " v=" << v;
        EXPECT_EQ(b, v) << "n=" << n << " u=" << u;
      }
    }
  }
}

TEST(Graph, TripleRankRoundTrip) {
  const std::uint64_t n = 9;
  std::uint64_t rank = 0;
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = a + 1; b < n; ++b) {
      for (std::uint64_t c = b + 1; c < n; ++c) {
        EXPECT_EQ(TripleRank(n, a, b, c), rank);
        const auto t = TripleUnrank(n, rank);
        EXPECT_EQ(t[0], a);
        EXPECT_EQ(t[1], b);
        EXPECT_EQ(t[2], c);
        ++rank;
      }
    }
  }
  EXPECT_EQ(rank, common::BinomialExact(9, 3));
}

// ---------------------------------------------------------- generators

TEST(Generators, CompleteGraph) {
  const Graph g = CompleteGraph(10);
  EXPECT_EQ(g.num_edges(), 45u);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.Degree(u), 9u);
}

TEST(Generators, RandomGnmExactEdgeCount) {
  for (std::uint64_t m : {0ull, 10ull, 100ull, 190ull}) {
    const Graph g = RandomGnm(20, m, /*seed=*/7);
    EXPECT_EQ(g.num_edges(), m);
  }
}

TEST(Generators, RandomGnmDeterministic) {
  const Graph a = RandomGnm(30, 100, 42);
  const Graph b = RandomGnm(30, 100, 42);
  EXPECT_EQ(a.edges(), b.edges());
  const Graph c = RandomGnm(30, 100, 43);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, CycleAndPath) {
  const Graph c5 = CycleGraph(5);
  EXPECT_EQ(c5.num_edges(), 5u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(c5.Degree(u), 2u);
  const Graph p3 = PathGraph(3);
  EXPECT_EQ(p3.num_nodes(), 4u);
  EXPECT_EQ(p3.num_edges(), 3u);
}

TEST(Generators, PreferentialAttachment) {
  const Graph g = PreferentialAttachmentGraph(200, 3, 11);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_GT(g.num_edges(), 400u);
  // Heavy tail: the max degree should well exceed the attachment count.
  std::uint64_t max_degree = 0;
  for (NodeId u = 0; u < 200; ++u) {
    max_degree = std::max(max_degree, g.Degree(u));
  }
  EXPECT_GT(max_degree, 10u);
}

// ---------------------------------------------------- serial triangles

TEST(SerialTriangles, KnownCounts) {
  EXPECT_EQ(SerialTriangleCount(CompleteGraph(4)), 4u);
  EXPECT_EQ(SerialTriangleCount(CompleteGraph(6)),
            common::BinomialExact(6, 3));
  EXPECT_EQ(SerialTriangleCount(CycleGraph(5)), 0u);
  EXPECT_EQ(SerialTriangleCount(CycleGraph(3)), 1u);
  EXPECT_EQ(SerialTriangleCount(PathGraph(5)), 0u);
}

TEST(SerialTriangles, ListsSortedTriples) {
  const auto triangles = SerialTriangles(CompleteGraph(4));
  ASSERT_EQ(triangles.size(), 4u);
  for (const Triangle& t : triangles) {
    EXPECT_LT(t[0], t[1]);
    EXPECT_LT(t[1], t[2]);
  }
  EXPECT_TRUE(std::is_sorted(triangles.begin(), triangles.end()));
}

// --------------------------------------------------- triangle problems

TEST(TriangleProblem, ModelCounts) {
  const TriangleProblem p(10);
  EXPECT_EQ(p.num_inputs(), 45u);
  EXPECT_EQ(p.num_outputs(), 120u);
  // Each output depends on exactly its three edges.
  const auto deps = p.InputsOfOutput(0);  // triple {0,1,2}
  EXPECT_EQ(deps.size(), 3u);
  EXPECT_EQ(deps[0], PairRank(10, 0, 1));
  EXPECT_EQ(deps[1], PairRank(10, 0, 2));
  EXPECT_EQ(deps[2], PairRank(10, 1, 2));
}

class TrianglePartitionSchemaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrianglePartitionSchemaTest, ValidAndReplicationIsK) {
  const auto [n, k] = GetParam();
  const TriangleProblem problem(n);
  const NodeBucketer bucketer(k, /*seed=*/5);
  const TrianglePartitionSchema schema(n, bucketer);
  // Coverage must hold for any q big enough; check with q = |I|.
  EXPECT_TRUE(
      core::ValidateSchema(problem, schema, problem.num_inputs()).ok());
  // Replication rate is exactly k for every edge (Section 4.1 algorithm).
  const auto stats = core::ComputeSchemaStats(schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(stats.replication_rate, k);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrianglePartitionSchemaTest,
                         ::testing::Values(std::tuple{8, 2}, std::tuple{10, 3},
                                           std::tuple{12, 4},
                                           std::tuple{15, 5},
                                           std::tuple{9, 1}));

// --------------------------------------------------------- MRTriangles

class MRTrianglesTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(MRTrianglesTest, MatchesSerialOnRandomGraphs) {
  const auto [n, density, k] = GetParam();
  const std::uint64_t possible =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const auto m = static_cast<std::uint64_t>(density * possible);
  const Graph g = RandomGnm(n, m, /*seed=*/n * 31 + k);
  const auto serial = SerialTriangles(g);
  const auto mr = MRTriangles(g, k, /*seed=*/17);
  EXPECT_EQ(mr.triangles, serial);
  // Replication rate is exactly k whenever there is at least one edge.
  if (m > 0) {
    EXPECT_DOUBLE_EQ(mr.metrics.replication_rate(), k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MRTrianglesTest,
    ::testing::Values(std::tuple{10, 1.0, 2}, std::tuple{10, 1.0, 3},
                      std::tuple{20, 0.5, 4}, std::tuple{30, 0.2, 5},
                      std::tuple{30, 0.2, 1}, std::tuple{40, 0.1, 6},
                      std::tuple{25, 0.0, 3}, std::tuple{50, 0.05, 8}));

TEST(MRTriangles, CompleteGraphAllFound) {
  const Graph g = CompleteGraph(12);
  const auto mr = MRTriangles(g, 4, 3);
  EXPECT_EQ(mr.triangles.size(), common::BinomialExact(12, 3));
}

TEST(MRTriangles, DedupRuleAblation) {
  // Without the multiset-ownership rule, triangles whose buckets collide
  // are emitted by several reducers; with it, exactly once. This is the
  // ablation DESIGN.md calls out.
  const Graph g = CompleteGraph(10);
  const auto with_rule = MRTriangles(g, 3, 7, {}, /*dedup_rule=*/true);
  const auto without_rule = MRTriangles(g, 3, 7, {}, /*dedup_rule=*/false);
  EXPECT_EQ(with_rule.triangles.size(), common::BinomialExact(10, 3));
  EXPECT_GT(without_rule.triangles.size(), with_rule.triangles.size());
}

// ------------------------------------- node-iterator (two rounds, [21])

class NodeIteratorTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(NodeIteratorTest, MatchesSerialOnRandomGraphs) {
  const auto [n, density, ordering] = GetParam();
  const std::uint64_t possible =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const Graph g =
      RandomGnm(n, static_cast<std::uint64_t>(density * possible),
                /*seed=*/n * 7 + (ordering ? 1 : 0));
  const auto result = MRTrianglesNodeIterator(g, ordering);
  EXPECT_EQ(result.triangles, SerialTriangles(g));
  ASSERT_EQ(result.metrics.rounds.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NodeIteratorTest,
    ::testing::Values(std::tuple{10, 1.0, true}, std::tuple{10, 1.0, false},
                      std::tuple{20, 0.5, true},
                      std::tuple{20, 0.5, false},
                      std::tuple{40, 0.15, true},
                      std::tuple{30, 0.0, true}));

TEST(NodeIterator, Round1CommunicationIsMOrTwoM) {
  const Graph g = CompleteGraph(20);
  const auto ordered = MRTrianglesNodeIterator(g, true);
  const auto unordered = MRTrianglesNodeIterator(g, false);
  EXPECT_EQ(ordered.metrics.rounds[0].pairs_shuffled, g.num_edges());
  EXPECT_EQ(unordered.metrics.rounds[0].pairs_shuffled, 2 * g.num_edges());
}

TEST(NodeIterator, LowDegreeOrderingTamesSkew) {
  // On a skewed graph, unordered wedge generation centers Theta(d_max^2)
  // wedges on hubs ("the curse of the last reducer"); the (degree, id)
  // ordering collapses that.
  const Graph g = PreferentialAttachmentGraph(400, 3, 5);
  const auto ordered = MRTrianglesNodeIterator(g, true);
  const auto unordered = MRTrianglesNodeIterator(g, false);
  EXPECT_EQ(ordered.triangles, unordered.triangles);
  EXPECT_LT(ordered.metrics.rounds[1].pairs_shuffled,
            unordered.metrics.rounds[1].pairs_shuffled / 3);
}

TEST(NodeIterator, AgreesWithPartitionAlgorithm) {
  const Graph g = RandomGnm(50, 400, 9);
  EXPECT_EQ(MRTrianglesNodeIterator(g, true).triangles,
            MRTriangles(g, 4, 2).triangles);
}

TEST(TriangleBounds, RecipeMatchesClosedForm) {
  const core::Recipe recipe = TriangleRecipe(100);
  for (double q : {8.0, 50.0, 512.0}) {
    // Recipe bound: q|O|/(g(q)|I|) with |O| ~ n^3/6, |I| ~ n^2/2 matches
    // n/sqrt(2q) up to the C(n,2)/C(n,3) vs n^2/2, n^3/6 approximation.
    EXPECT_NEAR(core::ReplicationLowerBound(recipe, q) /
                    TriangleLowerBound(100, q),
                1.0, 0.05)
        << q;
  }
  EXPECT_TRUE(core::CheckMonotoneGOverQ(recipe, 1, 1e7).ok());
}

TEST(TriangleBounds, SparseScaling) {
  // q_t = q * C(n,2)/m and the bound becomes sqrt(m/q).
  const NodeId n = 1000;
  const std::uint64_t m = 50000;
  const double q = 1000;
  const double qt = SparseTriangleTargetQ(n, m, q);
  EXPECT_NEAR(qt, q * (n * (n - 1) / 2.0) / m, 1e-9);
  EXPECT_NEAR(SparseTriangleLowerBound(m, q), std::sqrt(50.0), 1e-9);
}

// ------------------------------------------------------------ 2-paths

TEST(SerialTwoPaths, KnownCounts) {
  // Star K_{1,3}: middle has degree 3 -> C(3,2) = 3 two-paths.
  const Graph star(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(SerialTwoPathCount(star), 3u);
  EXPECT_EQ(SerialTwoPaths(star).size(), 3u);
  // Complete graph: 3 * C(n,3) two-paths.
  EXPECT_EQ(SerialTwoPathCount(CompleteGraph(7)),
            3 * common::BinomialExact(7, 3));
  // Path with 2 edges has exactly one 2-path.
  EXPECT_EQ(SerialTwoPathCount(PathGraph(2)), 1u);
}

TEST(TwoPathProblem, ModelCounts) {
  const TwoPathProblem p(8);
  EXPECT_EQ(p.num_inputs(), 28u);
  EXPECT_EQ(p.num_outputs(), 3 * common::BinomialExact(8, 3));
  // Every output depends on exactly two edges sharing the middle node.
  for (core::OutputId o = 0; o < p.num_outputs(); ++o) {
    EXPECT_EQ(p.InputsOfOutput(o).size(), 2u);
  }
}

TEST(TwoPathNodeSchema, ValidWithQEqualNMinus1) {
  const TwoPathProblem problem(9);
  const TwoPathNodeSchema schema(9);
  // Each node-reducer receives its incident possible edges: q = n-1.
  EXPECT_TRUE(core::ValidateSchema(problem, schema, 8).ok());
  const auto stats = core::ComputeSchemaStats(schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(stats.replication_rate, 2.0);
  EXPECT_EQ(stats.max_reducer_load, 8u);
}

class TwoPathBucketSchemaTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoPathBucketSchemaTest, ValidAndReplicationIs2KMinus2) {
  const auto [n, k] = GetParam();
  const TwoPathProblem problem(n);
  const NodeBucketer bucketer(k, 23);
  const TwoPathBucketSchema schema(n, bucketer);
  EXPECT_TRUE(
      core::ValidateSchema(problem, schema, problem.num_inputs()).ok());
  const auto stats = core::ComputeSchemaStats(schema, problem.num_inputs());
  EXPECT_DOUBLE_EQ(stats.replication_rate, 2.0 * (k - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoPathBucketSchemaTest,
                         ::testing::Values(std::tuple{8, 2}, std::tuple{9, 3},
                                           std::tuple{12, 4},
                                           std::tuple{10, 5}));

class MRTwoPathsTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(MRTwoPathsTest, BothAlgorithmsMatchSerial) {
  const auto [n, density, k] = GetParam();
  const std::uint64_t possible =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const Graph g =
      RandomGnm(n, static_cast<std::uint64_t>(density * possible),
                /*seed=*/n + 100 * k);
  const auto serial = SerialTwoPaths(g);
  EXPECT_EQ(MRTwoPathsNode(g).paths, serial);
  EXPECT_EQ(MRTwoPathsBucket(g, k, /*seed=*/3).paths, serial);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MRTwoPathsTest,
    ::testing::Values(std::tuple{10, 1.0, 2}, std::tuple{12, 0.6, 3},
                      std::tuple{16, 0.4, 4}, std::tuple{20, 0.3, 5},
                      std::tuple{24, 0.2, 2}, std::tuple{15, 0.0, 3}));

TEST(MRTwoPathsBucket, NodeAlgorithmReplicationIs2) {
  const Graph g = CompleteGraph(12);
  const auto result = MRTwoPathsNode(g);
  EXPECT_DOUBLE_EQ(result.metrics.replication_rate(), 2.0);
}

TEST(MRTwoPathsBucket, ReplicationIs2KMinus2) {
  const Graph g = CompleteGraph(12);
  for (int k : {2, 3, 4}) {
    const auto result = MRTwoPathsBucket(g, k, 9);
    EXPECT_DOUBLE_EQ(result.metrics.replication_rate(), 2.0 * (k - 1));
  }
}

TEST(TwoPathBounds, ClampedAtOne) {
  EXPECT_DOUBLE_EQ(TwoPathLowerBound(10, 5), 4.0);
  EXPECT_DOUBLE_EQ(TwoPathLowerBound(10, 40), 1.0);  // 2n/q < 1 -> clamp
}

// ---------------------------------------------------- subgraph counts

TEST(Subgraph, TriangleInstancesMatchSerial) {
  for (int n : {6, 9}) {
    for (double density : {0.3, 0.8}) {
      const std::uint64_t possible =
          static_cast<std::uint64_t>(n) * (n - 1) / 2;
      const Graph g =
          RandomGnm(n, static_cast<std::uint64_t>(density * possible),
                    /*seed=*/n);
      EXPECT_EQ(CountInstances(CycleGraph(3), g), SerialTriangleCount(g));
    }
  }
}

TEST(Subgraph, KnownPatternCounts) {
  // C4 instances in K4: choose 4 nodes (1 way), 3 distinct 4-cycles.
  EXPECT_EQ(CountInstances(CycleGraph(4), CompleteGraph(4)), 3u);
  // K4 in K6: C(6,4).
  EXPECT_EQ(CountInstances(CompleteGraph(4), CompleteGraph(6)),
            common::BinomialExact(6, 4));
  // 2-paths via pattern matching match the dedicated counter.
  const Graph g = RandomGnm(10, 20, 5);
  EXPECT_EQ(CountInstances(PathGraph(2), g), SerialTwoPathCount(g));
}

TEST(Subgraph, Automorphisms) {
  EXPECT_EQ(CountAutomorphisms(CycleGraph(3)), 6u);
  EXPECT_EQ(CountAutomorphisms(CycleGraph(4)), 8u);
  EXPECT_EQ(CountAutomorphisms(CycleGraph(5)), 10u);
  EXPECT_EQ(CountAutomorphisms(PathGraph(2)), 2u);
  EXPECT_EQ(CountAutomorphisms(CompleteGraph(4)), 24u);
}

// ----------------------------------------------------------- Alon class

TEST(AlonClass, KnownMembers) {
  // "Every cycle, every graph with a perfect matching, and every complete
  // graph is in the Alon class. Paths of odd length are also in the Alon
  // class." (Section 5.1)
  EXPECT_TRUE(InAlonClass(CycleGraph(3)));
  EXPECT_TRUE(InAlonClass(CycleGraph(4)));
  EXPECT_TRUE(InAlonClass(CycleGraph(5)));
  EXPECT_TRUE(InAlonClass(CycleGraph(6)));
  EXPECT_TRUE(InAlonClass(CompleteGraph(4)));
  EXPECT_TRUE(InAlonClass(CompleteGraph(5)));
  EXPECT_TRUE(InAlonClass(PathGraph(1)));  // a single edge
  EXPECT_TRUE(InAlonClass(PathGraph(3)));  // odd path: perfect matching
  EXPECT_TRUE(InAlonClass(PathGraph(5)));
}

TEST(AlonClass, KnownNonMembers) {
  // "Paths of even length are not in the Alon class." (Section 5.1)
  EXPECT_FALSE(InAlonClass(PathGraph(2)));
  EXPECT_FALSE(InAlonClass(PathGraph(4)));
  // A star K_{1,3} has no perfect matching and no odd Ham cycle partition.
  EXPECT_FALSE(InAlonClass(Graph(4, {{0, 1}, {0, 2}, {0, 3}})));
  // An empty graph on 2 nodes cannot be partitioned into edges.
  EXPECT_FALSE(InAlonClass(Graph(2, {})));
}

TEST(AlonClass, BoundFormulas) {
  // Triangle (s=3): bound reduces to (n/sqrt(q))^1.
  EXPECT_DOUBLE_EQ(AlonSampleLowerBound(100, 3, 400), 5.0);
  // Edge form at s=4: m/q.
  EXPECT_DOUBLE_EQ(AlonSampleEdgeLowerBound(10000, 4, 100), 100.0);
  EXPECT_TRUE(core::CheckMonotoneGOverQ(AlonSampleRecipe(50, 4), 1, 1e6).ok());
}

// --------------------------------------------------- MR sample graphs

class MRSampleGraphTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(MRSampleGraphTest, CountsMatchSerialForSeveralPatterns) {
  const auto [n, density, k] = GetParam();
  const std::uint64_t possible =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const Graph g =
      RandomGnm(n, static_cast<std::uint64_t>(density * possible),
                /*seed=*/n * 13 + k);
  const std::vector<Graph> patterns = {CycleGraph(3), CycleGraph(4),
                                       PathGraph(2), CompleteGraph(4)};
  for (const Graph& pattern : patterns) {
    const auto mr = MRSampleGraphInstances(g, pattern, k, /*seed=*/1);
    EXPECT_EQ(mr.instance_count, CountInstances(pattern, g))
        << "pattern with " << pattern.num_nodes() << " nodes, "
        << pattern.num_edges() << " edges";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MRSampleGraphTest,
                         ::testing::Values(std::tuple{8, 0.8, 2},
                                           std::tuple{10, 0.5, 3},
                                           std::tuple{12, 0.4, 2},
                                           std::tuple{14, 0.3, 4}));

TEST(MRSampleGraph, ReplicationGrowsAsKToSMinus2) {
  // For an s-node pattern, each edge goes to MultisetCount(k, s-2)-ish
  // reducers; with s=3 that is exactly k, with s=4 it is C(k+1,2) minus
  // collisions. Verify the s=3 case exactly.
  const Graph g = CompleteGraph(10);
  const auto mr = MRSampleGraphInstances(g, CycleGraph(3), 4, 2);
  EXPECT_DOUBLE_EQ(mr.metrics.replication_rate(), 4.0);
}

}  // namespace
}  // namespace mrcost::graph
