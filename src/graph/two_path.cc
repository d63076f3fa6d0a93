#include "src/graph/two_path.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "src/common/combinatorics.h"

namespace mrcost::graph {

std::vector<TwoPath> SerialTwoPaths(const Graph& graph) {
  std::vector<TwoPath> out;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto& neighbors = graph.Neighbors(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        out.push_back(TwoPath{u, neighbors[i], neighbors[j]});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t SerialTwoPathCount(const Graph& graph) {
  std::uint64_t count = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const std::uint64_t d = graph.Degree(u);
    count += d * (d - 1) / 2;
  }
  return count;
}

void TwoPathNodeSchema::ForEachReducer(core::InputId input,
                                       const ReducerSink& sink) const {
  const auto [u, v] = PairUnrank(n_, input);
  sink(u);
  sink(v);
}

TwoPathBucketSchema::TwoPathBucketSchema(NodeId n,
                                         const NodeBucketer& bucketer)
    : n_(n), bucketer_(bucketer) {
  MRCOST_CHECK(bucketer.k() >= 2);
}

std::string TwoPathBucketSchema::name() const {
  std::ostringstream os;
  os << "2path-bucket(k=" << bucketer_.k() << ")";
  return os.str();
}

std::uint64_t TwoPathBucketSchema::num_reducers() const {
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(bucketer_.k()) * (bucketer_.k() - 1) / 2;
  return static_cast<std::uint64_t>(n_) * pairs;
}

void TwoPathBucketSchema::ForEachReducer(core::InputId input,
                                         const ReducerSink& sink) const {
  const auto [a, b] = PairUnrank(n_, input);
  const int k = bucketer_.k();
  const std::uint64_t pairs_per_node =
      static_cast<std::uint64_t>(k) * (k - 1) / 2;
  auto add = [&](NodeId u, int i, int x) {
    const int lo = std::min(i, x);
    const int hi = std::max(i, x);
    sink(static_cast<std::uint64_t>(u) * pairs_per_node +
         PairRank(k, lo, hi));
  };
  const int ha = bucketer_.Bucket(a);
  const int hb = bucketer_.Bucket(b);
  for (int x = 0; x < k; ++x) {
    if (x != ha) add(b, ha, x);  // [b, {h(a), *}]
    if (x != hb) add(a, hb, x);  // [a, {*, h(b)}]
  }
}

namespace {

/// The other endpoint of `e`, one of whose endpoints is `mid`.
NodeId OtherEnd(const Edge& e, NodeId mid) { return e.u == mid ? e.v : e.u; }

/// Runs the one-round plan mapping the edges by `schema` (input id = the
/// edge's pair rank; key = reducer id, value = the edge) and sorts the
/// 2-paths its reducers emit.
template <typename ReduceFn>
TwoPathJobResult RunTwoPathSchema(
    const Graph& graph, std::shared_ptr<const core::MappingSchema> schema,
    ReduceFn reduce_fn, const engine::JobOptions& options) {
  const NodeId n = graph.num_nodes();
  engine::Plan plan;
  auto run = plan.Source(graph.edges(), "edges")
                 .template MapBySchema<std::uint64_t>(
                     std::move(schema),
                     [n](const Edge& e) { return PairRank(n, e.u, e.v); },
                     "two-path fan-out")
                 .template ReduceByKey<TwoPath>(std::move(reduce_fn))
                 .Execute(engine::ExecutionOptions(options));
  std::sort(run.outputs.begin(), run.outputs.end());
  return TwoPathJobResult{std::move(run.outputs),
                          std::move(run.metrics.rounds[0])};
}

}  // namespace

TwoPathJobResult MRTwoPathsNode(const Graph& graph,
                                const engine::JobOptions& options) {
  // Key = the middle node; each edge there contributes its other end.
  auto reduce_fn = [](const std::uint64_t& key, engine::GroupView<Edge> edges,
                      std::vector<TwoPath>& out) {
    const auto mid = static_cast<NodeId>(key);
    std::vector<NodeId> sorted;
    sorted.reserve(edges.size());
    for (const Edge& e : edges) sorted.push_back(OtherEnd(e, mid));
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      for (std::size_t j = i + 1; j < sorted.size(); ++j) {
        out.push_back(TwoPath{mid, sorted[i], sorted[j]});
      }
    }
  };
  return RunTwoPathSchema(
      graph, std::make_shared<TwoPathNodeSchema>(graph.num_nodes()),
      reduce_fn, options);
}

TwoPathJobResult MRTwoPathsBucket(const Graph& graph, int k,
                                  std::uint64_t seed,
                                  const engine::JobOptions& options) {
  MRCOST_CHECK(k >= 2);
  const NodeBucketer bucketer(k, seed);
  const std::uint64_t pairs_per_node =
      static_cast<std::uint64_t>(k) * (k - 1) / 2;

  // Key = middle node * C(k,2) + rank of the bucket pair {i, j}; the
  // plan is lazy, so the reducer holds the bucketer by value.
  auto reduce_fn = [bucketer, k, pairs_per_node](
                       const std::uint64_t& key,
                       engine::GroupView<Edge> edges,
                       std::vector<TwoPath>& out) {
    const auto mid = static_cast<NodeId>(key / pairs_per_node);
    const auto [i, j] = PairUnrank(k, key % pairs_per_node);
    std::vector<NodeId> sorted;
    sorted.reserve(edges.size());
    for (const Edge& e : edges) sorted.push_back(OtherEnd(e, mid));
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t x = 0; x < sorted.size(); ++x) {
      for (std::size_t y = x + 1; y < sorted.size(); ++y) {
        const NodeId v = sorted[x];
        const NodeId w = sorted[y];
        const int hv = bucketer.Bucket(v);
        const int hw = bucketer.Bucket(w);
        bool emit = false;
        if (hv != hw) {
          // Produced by the unique reducer whose set is {h(v), h(w)}.
          emit = (std::min(hv, hw) == static_cast<int>(i) &&
                  std::max(hv, hw) == static_cast<int>(j));
        } else {
          // h(v) == h(w) == x: produced where the other element is x+1
          // (mod k), the paper's tie-break.
          const int c = hv;
          const int other =
              c == static_cast<int>(i) ? static_cast<int>(j)
                                       : static_cast<int>(i);
          emit = (c == static_cast<int>(i) || c == static_cast<int>(j)) &&
                 other == (c + 1) % k;
        }
        if (emit) out.push_back(TwoPath{mid, v, w});
      }
    }
  };
  return RunTwoPathSchema(
      graph, std::make_shared<TwoPathBucketSchema>(graph.num_nodes(), bucketer),
      reduce_fn, options);
}

core::Recipe TwoPathRecipe(NodeId n) {
  core::Recipe recipe;
  recipe.problem_name = "2-paths";
  recipe.g = [](double q) { return q * (q - 1) / 2.0; };
  recipe.num_inputs = static_cast<double>(n) * (n - 1) / 2.0;
  recipe.num_outputs = 3.0 * common::BinomialDouble(static_cast<int>(n), 3);
  return recipe;
}

double TwoPathLowerBound(NodeId n, double q) {
  return std::max(1.0, 2.0 * static_cast<double>(n) / q);
}

}  // namespace mrcost::graph
