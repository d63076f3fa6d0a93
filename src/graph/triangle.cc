#include "src/graph/triangle.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/common/combinatorics.h"

namespace mrcost::graph {

std::vector<Triangle> SerialTriangles(const Graph& graph) {
  std::vector<Triangle> out;
  // For each edge (u,v), intersect the higher-numbered neighbors so each
  // triangle is found exactly once at its lexicographically least edge.
  for (const Edge& e : graph.edges()) {
    const auto& nu = graph.Neighbors(e.u);
    const auto& nv = graph.Neighbors(e.v);
    auto iu = std::upper_bound(nu.begin(), nu.end(), e.v);
    auto iv = std::upper_bound(nv.begin(), nv.end(), e.v);
    while (iu != nu.end() && iv != nv.end()) {
      if (*iu < *iv) {
        ++iu;
      } else if (*iv < *iu) {
        ++iv;
      } else {
        out.push_back({e.u, e.v, *iu});
        ++iu;
        ++iv;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t SerialTriangleCount(const Graph& graph) {
  return SerialTriangles(graph).size();
}

double GlobalClusteringCoefficient(const Graph& graph) {
  std::uint64_t wedges = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const std::uint64_t d = graph.Degree(u);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(SerialTriangleCount(graph)) /
         static_cast<double>(wedges);
}

TrianglePartitionSchema::TrianglePartitionSchema(NodeId n,
                                                 const NodeBucketer& bucketer)
    : n_(n), bucketer_(bucketer) {}

std::string TrianglePartitionSchema::name() const {
  std::ostringstream os;
  os << "triangle-partition(k=" << bucketer_.k() << ")";
  return os.str();
}

std::uint64_t TrianglePartitionSchema::num_reducers() const {
  return common::MultisetCount(bucketer_.k(), 3);
}

void TrianglePartitionSchema::ForEachReducer(core::InputId input,
                                             const ReducerSink& sink) const {
  const auto [u, v] = PairUnrank(n_, input);
  const int a = bucketer_.Bucket(u);
  const int b = bucketer_.Bucket(v);
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  // All size-3 bucket multisets containing {a, b}: one per choice of the
  // third bucket x, so r = k exactly. The sorted triple is (x, lo, hi) for
  // x < lo, (lo, x, hi) up to hi and (lo, hi, x) beyond: lexicographically
  // increasing in x, so the ranks come out in increasing order.
  for (int x = 0; x < bucketer_.k(); ++x) {
    sink(common::MultisetRank(
        bucketer_.k(), x < lo    ? std::vector<int>{x, lo, hi}
                       : x <= hi ? std::vector<int>{lo, x, hi}
                                 : std::vector<int>{lo, hi, x}));
  }
}

TriangleJobResult MRTriangles(const Graph& graph, int k, std::uint64_t seed,
                              const engine::JobOptions& options,
                              bool dedup_rule) {
  const NodeBucketer bucketer(k, seed);
  const NodeId n = graph.num_nodes();

  // The plan is lazy, so the reducer holds the bucketer by value.
  auto reduce_fn = [bucketer, k, dedup_rule](
                       const std::uint64_t& key,
                       engine::GroupView<Edge> edges,
                       std::vector<Triangle>& out) {
    const std::vector<int> owned = common::MultisetUnrank(k, 3, key);
    // Local adjacency over the nodes present in this reducer.
    std::unordered_map<NodeId, std::vector<NodeId>> adj;
    std::unordered_set<std::uint64_t> edge_set;
    for (const Edge& e : edges) {
      adj[e.u].push_back(e.v);
      adj[e.v].push_back(e.u);
      edge_set.insert(e.Hash());
    }
    for (auto& [node, neighbors] : adj) {
      std::sort(neighbors.begin(), neighbors.end());
      neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                      neighbors.end());
    }
    for (const Edge& e : edges) {
      // Extend each edge by common higher neighbors, as in the serial
      // algorithm, so each triangle appears once per reducer.
      const auto& nu = adj[e.u];
      const auto& nv = adj[e.v];
      auto iu = std::upper_bound(nu.begin(), nu.end(), e.v);
      auto iv = std::upper_bound(nv.begin(), nv.end(), e.v);
      while (iu != nu.end() && iv != nv.end()) {
        if (*iu < *iv) {
          ++iu;
        } else if (*iv < *iu) {
          ++iv;
        } else {
          const NodeId w = *iu;
          ++iu;
          ++iv;
          if (dedup_rule) {
            // Ownership: emit only if this triangle's bucket multiset is
            // exactly the reducer's multiset. Exactly one reducer passes
            // this test per triangle.
            std::array<int, 3> t = {bucketer.Bucket(e.u),
                                    bucketer.Bucket(e.v), bucketer.Bucket(w)};
            std::sort(t.begin(), t.end());
            if (t[0] != owned[0] || t[1] != owned[1] || t[2] != owned[2]) {
              continue;
            }
          }
          out.push_back({e.u, e.v, w});
        }
      }
    }
  };

  // The map is the partition schema: key = rank of a bucket multiset,
  // value = the edge, whose input id is its pair rank. r = k exactly.
  engine::Plan plan;
  auto run = plan.Source(graph.edges(), "edges")
                 .MapBySchema<std::uint64_t>(
                     std::make_shared<TrianglePartitionSchema>(n, bucketer),
                     [n](const Edge& e) { return PairRank(n, e.u, e.v); },
                     "triangle partition")
                 .ReduceByKey<Triangle>(reduce_fn)
                 .Execute(engine::ExecutionOptions(options));
  std::sort(run.outputs.begin(), run.outputs.end());
  return TriangleJobResult{std::move(run.outputs),
                           std::move(run.metrics.rounds[0])};
}

TriangleTwoRoundResult MRTrianglesNodeIterator(
    const Graph& graph, bool low_degree_ordering,
    const engine::JobOptions& options) {
  // Round 1's output and round 2's input: a wedge keyed by its endpoint
  // pair with its middle node, or an edge keyed by itself with a marker.
  constexpr NodeId kEdgeMarker = 0xFFFFFFFFu;
  struct Record {
    Edge key;
    NodeId middle;  // kEdgeMarker for edge records
  };

  // ---- Round 1: group edges around pivot nodes and emit wedges. In
  // degree-ordered mode each edge lives only at its smaller endpoint in
  // the (degree, id) order — degrees are read off the graph, which
  // outlives the plan; the value is the other endpoint.
  auto map1 = [&graph, low_degree_ordering](
                  const Edge& e, engine::Emitter<NodeId, NodeId>& emitter) {
    if (low_degree_ordering) {
      const std::uint64_t du = graph.Degree(e.u);
      const std::uint64_t dv = graph.Degree(e.v);
      if (du != dv ? du < dv : e.u < e.v) {
        emitter.Emit(e.u, e.v);
      } else {
        emitter.Emit(e.v, e.u);
      }
    } else {
      emitter.Emit(e.u, e.v);
      emitter.Emit(e.v, e.u);
    }
  };
  // Besides its wedges, a pivot passes each edge it received on to round
  // 2 once: every edge reaches exactly one pivot in degree-ordered mode,
  // both endpoints in the ablation mode (where the smaller one passes it).
  auto reduce1 = [low_degree_ordering](const NodeId& pivot,
                                       engine::GroupView<NodeId> ends,
                                       std::vector<Record>& out) {
    std::vector<NodeId> sorted(ends.begin(), ends.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      for (std::size_t j = i + 1; j < sorted.size(); ++j) {
        out.push_back(Record{Edge(sorted[i], sorted[j]), pivot});
      }
    }
    for (const NodeId other : sorted) {
      if (low_degree_ordering || pivot < other) {
        out.push_back(Record{Edge(pivot, other), kEdgeMarker});
      }
    }
  };

  // ---- Round 2: join wedges with the edge set; a present closing edge
  // turns each wedge into a triangle.
  auto map2 = [](const Record& r, engine::Emitter<Edge, NodeId>& emitter) {
    emitter.Emit(r.key, r.middle);
  };
  auto reduce2 = [low_degree_ordering](const Edge& key,
                                       engine::GroupView<NodeId> values,
                                       std::vector<Triangle>& out) {
    bool edge_present = false;
    for (NodeId v : values) {
      if (v == kEdgeMarker) {
        edge_present = true;
        break;
      }
    }
    if (!edge_present) return;
    for (NodeId middle : values) {
      if (middle == kEdgeMarker) continue;
      Triangle t = {key.u, key.v, middle};
      std::sort(t.begin(), t.end());
      if (!low_degree_ordering && middle != t[0]) {
        // Ablation mode centers every triangle at all three middles; keep
        // only the id-minimal one so the output stays duplicate-free (the
        // communication blowup remains visible in the metrics).
        continue;
      }
      out.push_back(t);
    }
  };

  engine::Plan plan;
  auto run = plan.Source(graph.edges(), "edges")
                 .Map<NodeId, NodeId>(map1, "wedges")
                 .ReduceByKey<Record>(reduce1)
                 .Map<Edge, NodeId>(map2, "close wedges")
                 .ReduceByKey<Triangle>(reduce2)
                 .Execute(engine::ExecutionOptions(options));

  TriangleTwoRoundResult result;
  std::sort(run.outputs.begin(), run.outputs.end());
  result.triangles = std::move(run.outputs);
  result.metrics = std::move(run.metrics);
  return result;
}

core::Recipe TriangleRecipe(NodeId n) {
  core::Recipe recipe;
  recipe.problem_name = "triangles";
  recipe.g = [](double q) { return std::sqrt(2.0) / 3.0 * std::pow(q, 1.5); };
  recipe.num_inputs = static_cast<double>(n) * (n - 1) / 2.0;
  recipe.num_outputs =
      static_cast<double>(n) * (n - 1) * (n - 2) / 6.0;
  return recipe;
}

double TriangleLowerBound(NodeId n, double q) {
  return static_cast<double>(n) / std::sqrt(2.0 * q);
}

double SparseTriangleTargetQ(NodeId n, std::uint64_t m, double q) {
  const double possible = static_cast<double>(n) * (n - 1) / 2.0;
  return q * possible / static_cast<double>(m);
}

double SparseTriangleLowerBound(std::uint64_t m, double q) {
  return std::sqrt(static_cast<double>(m) / q);
}

}  // namespace mrcost::graph
