#ifndef MRCOST_GRAPH_TWO_PATH_H_
#define MRCOST_GRAPH_TWO_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/lower_bound.h"
#include "src/core/mapping_schema.h"
#include "src/engine/plan.h"
#include "src/graph/bucketing.h"
#include "src/graph/graph.h"

namespace mrcost::graph {

/// A path of length two: ends a < b, middle node `mid` (Section 5.4).
struct TwoPath {
  NodeId mid;
  NodeId a;
  NodeId b;

  bool operator==(const TwoPath& o) const {
    return mid == o.mid && a == o.a && b == o.b;
  }
  bool operator<(const TwoPath& o) const {
    if (mid != o.mid) return mid < o.mid;
    if (a != o.a) return a < o.a;
    return b < o.b;
  }
};

/// Serial baseline: all 2-paths (each once), sorted.
std::vector<TwoPath> SerialTwoPaths(const Graph& graph);
std::uint64_t SerialTwoPathCount(const Graph& graph);

/// The q = n algorithm of Section 5.4.2: one reducer per node; each edge is
/// sent to both endpoint reducers (r = 2); the reducer for u emits every
/// 2-path with middle u.
class TwoPathNodeSchema final : public core::MappingSchema {
 public:
  explicit TwoPathNodeSchema(NodeId n) : n_(n) {}
  std::string name() const override { return "2path-node"; }
  std::uint64_t num_reducers() const override { return n_; }
  /// The smaller endpoint's reducer, then the larger's.
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;
  double replication() const override { return 2; }

 private:
  NodeId n_;
};

/// The q < n algorithm of Section 5.4.2: reducers [u, {i, j}] for every
/// node u and unordered bucket pair i < j; the edge (a, b) goes to the
/// 2(k-1) reducers [b, {h(a), *}] and [a, {*, h(b)}]. Replication rate is
/// 2(k-1); over the complete domain each reducer receives ~2n/k edges.
class TwoPathBucketSchema final : public core::MappingSchema {
 public:
  /// Requires k >= 2.
  TwoPathBucketSchema(NodeId n, const NodeBucketer& bucketer);

  std::string name() const override;
  /// Reducer [u, {i, j}] has id u * C(k,2) + PairRank(k, i, j).
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;
  double replication() const override { return 2.0 * (bucketer_.k() - 1); }

 private:
  NodeId n_;
  NodeBucketer bucketer_;
};

struct TwoPathJobResult {
  std::vector<TwoPath> paths;  // sorted
  engine::JobMetrics metrics;
};

/// Runs the node algorithm (q = max degree, r = 2): the round maps the
/// edges by TwoPathNodeSchema, each edge (input id PairRank(n, u, v))
/// shipped whole to both endpoint reducers.
TwoPathJobResult MRTwoPathsNode(const Graph& graph,
                                const engine::JobOptions& options = {});

/// Runs the bucket-pair algorithm with k >= 2 buckets, mapping the edges by
/// TwoPathBucketSchema (r = 2(k-1)), using the paper's
/// tie-break rule so that each 2-path is emitted by exactly one reducer:
/// reducer [u, {i, j}] produces v-u-w iff {h(v), h(w)} == {i, j}, or
/// h(v) == h(w) == x in {i,j} and the other element is x+1 (mod k).
TwoPathJobResult MRTwoPathsBucket(const Graph& graph, int k,
                                  std::uint64_t seed,
                                  const engine::JobOptions& options = {});

/// Section 5.4.1's recipe: g(q) = C(q,2), |I| = C(n,2), |O| = 3 C(n,3);
/// closed-form bound r >= 2n/q (clamped below by 1).
core::Recipe TwoPathRecipe(NodeId n);
double TwoPathLowerBound(NodeId n, double q);

}  // namespace mrcost::graph

#endif  // MRCOST_GRAPH_TWO_PATH_H_
