#ifndef MRCOST_GRAPH_TRIANGLE_H_
#define MRCOST_GRAPH_TRIANGLE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/lower_bound.h"
#include "src/core/mapping_schema.h"
#include "src/engine/plan.h"
#include "src/graph/bucketing.h"
#include "src/graph/graph.h"

namespace mrcost::graph {

/// A triangle as a sorted node triple.
using Triangle = std::array<NodeId, 3>;

/// Serial baseline: all triangles, by ordered adjacency intersection
/// (O(sum over edges of min-degree)). Sorted output.
std::vector<Triangle> SerialTriangles(const Graph& graph);
std::uint64_t SerialTriangleCount(const Graph& graph);

/// Global clustering coefficient 3*#triangles / #wedges (0 for wedge-free
/// graphs) — the community-structure statistic triangle counting feeds
/// (the paper's Section 4 motivation).
double GlobalClusteringCoefficient(const Graph& graph);

/// The partition mapping schema for triangle finding (Section 4.1's upper
/// bound, after [21]): nodes are hashed into k buckets; one reducer per
/// size-3 bucket multiset {i <= j <= l}; the possible edge {u,v} is sent to
/// every multiset containing both endpoint buckets — exactly k reducers, so
/// r = k. Over the complete domain each reducer holds Theta(n^2/k^2) edges.
class TrianglePartitionSchema final : public core::MappingSchema {
 public:
  /// `n` is the node-domain size (inputs are the C(n,2) possible edges).
  TrianglePartitionSchema(NodeId n, const NodeBucketer& bucketer);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  /// The multisets in increasing rank order.
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;
  double replication() const override { return bucketer_.k(); }

 private:
  NodeId n_;
  NodeBucketer bucketer_;
};

/// Result of the map-reduce triangle enumeration.
struct TriangleJobResult {
  std::vector<Triangle> triangles;  // sorted
  engine::JobMetrics metrics;
};

/// Runs the partition algorithm on `graph` with k buckets. Every triangle
/// is emitted by exactly one reducer — the one whose bucket multiset equals
/// the triangle's — so the output needs no deduplication. Setting
/// `dedup_rule` to false disables that ownership check (used by the bench
/// ablation to demonstrate the duplicate blow-up it prevents).
TriangleJobResult MRTriangles(const Graph& graph, int k, std::uint64_t seed,
                              const engine::JobOptions& options = {},
                              bool dedup_rule = true);

/// Result of the two-round node-iterator triangle algorithm.
struct TriangleTwoRoundResult {
  std::vector<Triangle> triangles;  // sorted
  engine::PipelineMetrics metrics;  // wedge round, closing round
};

/// The two-round MR-NodeIterator algorithm of [21] (the paper's "curse of
/// the last reducer" reference): round 1 groups edges by node and emits
/// every wedge (2-path) centered there, keyed by its endpoint pair; round
/// 2 joins wedges against the edge set — a wedge whose endpoints are
/// adjacent closes a triangle.
///
/// Wedges are emitted only around each edge's *lower-degree* endpoint
/// (degrees are broadcast via the graph object), [21]'s mitigation of the
/// high-degree-node blowup; without it, round-2 communication is the full
/// wedge count, which explodes on skewed graphs. Set
/// `low_degree_ordering` to false to reproduce that blowup (bench
/// ablation). Contrast with the one-round MRTriangles: this algorithm
/// needs no replication in round 1 (r = 2, one key per edge endpoint) but
/// pays per-wedge communication in round 2 — a 1-vs-2-round tradeoff of
/// exactly the Section 6.3 flavor.
TriangleTwoRoundResult MRTrianglesNodeIterator(
    const Graph& graph, bool low_degree_ordering = true,
    const engine::JobOptions& options = {});

/// Section 4.1's recipe: g(q) = (sqrt(2)/3) q^{3/2}, |I| = C(n,2),
/// |O| = C(n,3); closed-form bound r >= n / sqrt(2 q).
core::Recipe TriangleRecipe(NodeId n);
double TriangleLowerBound(NodeId n, double q);

/// Section 4.2: the sparse-graph transformation. Given a desired expected
/// reducer load q on a random graph with m of the C(n,2) edges present, the
/// target possible-edge budget is q_t = q * C(n,2) / m, and the bound
/// becomes r = Omega(sqrt(m/q)).
double SparseTriangleTargetQ(NodeId n, std::uint64_t m, double q);
double SparseTriangleLowerBound(std::uint64_t m, double q);

}  // namespace mrcost::graph

#endif  // MRCOST_GRAPH_TRIANGLE_H_
