#include "src/graph/graph.h"

#include <algorithm>
#include <cmath>

namespace mrcost::graph {

Graph::Graph(NodeId n, std::vector<Edge> edges) : n_(n) {
  edges_.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;  // drop loops
    MRCOST_CHECK(e.v < n);
    edges_.push_back(e);
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  adjacency_.resize(n);
  for (const Edge& e : edges_) {
    adjacency_[e.u].push_back(e.v);
    adjacency_[e.v].push_back(e.u);
  }
  for (auto& neighbors : adjacency_) {
    std::sort(neighbors.begin(), neighbors.end());
  }
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const Edge e(u, v);
  return std::binary_search(edges_.begin(), edges_.end(), e);
}

std::uint64_t PairRank(std::uint64_t n, std::uint64_t u, std::uint64_t v) {
  MRCOST_CHECK(u < v && v < n);
  // Pairs with first element < u: sum_{i<u} (n-1-i) = u*n - u(u+1)/2.
  return u * n - u * (u + 1) / 2 + (v - u - 1);
}

std::pair<NodeId, NodeId> PairUnrank(std::uint64_t n, std::uint64_t rank) {
  // u is the last row starting at or before `rank`. Row u starts at
  // S(u) = u*n - u(u+1)/2, so u is the floor of the smaller root of
  // S(u) = rank; the root is computed in floating point and then corrected
  // by whole rows, so the cost does not grow with n.
  const auto row_start = [n](std::uint64_t u) {
    return u * n - u * (u + 1) / 2;
  };
  const std::uint64_t last_row = n >= 2 ? n - 2 : 0;
  const double m = 2.0 * static_cast<double>(n) - 1.0;
  const double root =
      (m - std::sqrt(std::max(0.0, m * m - 8.0 * static_cast<double>(rank)))) /
      2.0;
  std::uint64_t u = std::min(
      root > 0 ? static_cast<std::uint64_t>(root) : std::uint64_t{0},
      last_row);
  while (u > 0 && row_start(u) > rank) --u;
  while (u < last_row && row_start(u + 1) <= rank) ++u;
  return {static_cast<NodeId>(u),
          static_cast<NodeId>(u + 1 + rank - row_start(u))};
}

}  // namespace mrcost::graph
