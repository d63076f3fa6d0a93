#ifndef MRCOST_GRAPH_GENERATORS_H_
#define MRCOST_GRAPH_GENERATORS_H_

#include <cstdint>

#include "src/common/random.h"
#include "src/graph/graph.h"

namespace mrcost::graph {

/// K_n: all C(n,2) edges present — the model's worst-case instance
/// (Section 2.3: pretend all inputs are present).
Graph CompleteGraph(NodeId n);

/// Erdős–Rényi G(n, m): exactly m distinct edges sampled uniformly from the
/// C(n,2) possible ones. The random sparse instance of Section 4.2.
Graph RandomGnm(NodeId n, std::uint64_t m, std::uint64_t seed);

/// A cycle on n nodes (used for sample-graph tests).
Graph CycleGraph(NodeId n);

/// A path with `edges` edges (edges+1 nodes).
Graph PathGraph(NodeId edges);

/// A complete bipartite-free "social network"-like graph with a heavy
///-tailed degree distribution: preferential attachment, `attach` edges per
/// new node. Used by the examples as realistic sparse input.
Graph PreferentialAttachmentGraph(NodeId n, int attach, std::uint64_t seed);

/// A skewed random graph with directly tunable degree skew: up to m
/// distinct edges whose endpoints are drawn Zipf(`exponent`) over the n
/// nodes, so node 0 is a hub touching most edges at large exponents and
/// the graph degenerates to (loop-free) G(n, m)-like uniform sampling at
/// exponent 0. The skew-injection input for the graph family: hub nodes
/// concentrate reducer load exactly the way the paper's "curse of the
/// last reducer" citation describes. May return fewer than m edges when
/// the skew concentrates samples on few distinct pairs.
Graph ZipfGraph(NodeId n, std::uint64_t m, double exponent,
                std::uint64_t seed);

}  // namespace mrcost::graph

#endif  // MRCOST_GRAPH_GENERATORS_H_
