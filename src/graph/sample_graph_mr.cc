#include "src/graph/sample_graph_mr.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/status.h"
#include "src/graph/bucketing.h"
#include "src/graph/subgraph.h"

namespace mrcost::graph {
namespace {

/// Builds the local graph over exactly the nodes present in `edges`,
/// remapping node ids to a dense range; `local_to_global` gives the
/// inverse mapping.
Graph BuildLocalGraph(engine::GroupView<Edge> edges,
                      std::vector<NodeId>& local_to_global) {
  std::unordered_map<NodeId, NodeId> global_to_local;
  local_to_global.clear();
  auto local_id = [&](NodeId g) {
    auto [it, inserted] =
        global_to_local.try_emplace(g, local_to_global.size());
    if (inserted) local_to_global.push_back(g);
    return it->second;
  };
  std::vector<Edge> local_edges;
  local_edges.reserve(edges.size());
  for (const Edge& e : edges) {
    local_edges.emplace_back(local_id(e.u), local_id(e.v));
  }
  return Graph(static_cast<NodeId>(local_to_global.size()),
               std::move(local_edges));
}

/// Canonical identity of an instance: the sorted list of its (global)
/// edges, hashed. Two embeddings are the same instance iff they use the
/// same edge set.
std::uint64_t InstanceFingerprint(std::vector<Edge> instance_edges) {
  std::sort(instance_edges.begin(), instance_edges.end());
  std::uint64_t h = 0x51ed270b0a5f2c1dULL;
  for (const Edge& e : instance_edges) {
    h = common::Mix64(h ^ e.Hash());
  }
  return h;
}

}  // namespace

SampleGraphPlan BuildSampleGraphPlan(const Graph& data, const Graph& pattern,
                                     int k, std::uint64_t seed) {
  const int s = static_cast<int>(pattern.num_nodes());
  MRCOST_CHECK(s >= 3 && s <= 5);
  for (NodeId v = 0; v < pattern.num_nodes(); ++v) {
    MRCOST_CHECK(pattern.Degree(v) > 0);  // no isolated pattern nodes
  }
  const NodeBucketer bucketer(k, seed);

  // Key = rank of the size-s bucket multiset; value = edge. The closures
  // outlive this function (the plan is lazy), so the bucketer and the
  // (small) pattern graph are captured by value.
  auto map_fn = [bucketer, k, s](const Edge& e,
                                 engine::Emitter<std::uint64_t, Edge>&
                                     emitter) {
    const int a = bucketer.Bucket(e.u);
    const int b = bucketer.Bucket(e.v);
    std::vector<std::uint64_t> keys;
    // Every multiset of size s containing {a, b}: append any size-(s-2)
    // multiset over the k buckets.
    common::ForEachSubsetOfSize(k + s - 3, s - 2, [&](const std::vector<int>&
                                                          combo) {
      // Convert the combination back to a multiset over buckets.
      std::vector<int> rest(combo.size());
      for (std::size_t i = 0; i < combo.size(); ++i) {
        rest[i] = combo[i] - static_cast<int>(i);
      }
      std::vector<int> multiset = rest;
      multiset.push_back(a);
      multiset.push_back(b);
      std::sort(multiset.begin(), multiset.end());
      keys.push_back(common::MultisetRank(k, multiset));
    });
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    // One batched hand-off for the edge's whole reducer fan-out.
    static thread_local engine::Emitter<std::uint64_t, Edge>::Batch batch;
    for (std::uint64_t key : keys) batch.emplace_back(key, e);
    emitter.EmitBatch(batch);
  };

  auto reduce_fn = [bucketer, pattern, k, s](const std::uint64_t& key,
                                             engine::GroupView<Edge> edges,
                                             std::vector<std::uint64_t>& out) {
    const std::vector<int> owned = common::MultisetUnrank(k, s, key);
    std::vector<NodeId> local_to_global;
    const Graph local = BuildLocalGraph(edges, local_to_global);
    std::unordered_set<std::uint64_t> seen;
    std::uint64_t count = 0;
    ForEachEmbedding(pattern, local, [&](const std::vector<NodeId>& map) {
      // Ownership: the instance's node-bucket multiset must equal the
      // reducer's multiset, so exactly one reducer counts it.
      std::vector<int> buckets(s);
      for (int i = 0; i < s; ++i) {
        buckets[i] = bucketer.Bucket(local_to_global[map[i]]);
      }
      std::sort(buckets.begin(), buckets.end());
      if (buckets != owned) return;
      // Dedup the |Aut| embeddings of the same copy via its edge set.
      std::vector<Edge> instance_edges;
      instance_edges.reserve(pattern.num_edges());
      for (const Edge& pe : pattern.edges()) {
        instance_edges.emplace_back(local_to_global[map[pe.u]],
                                    local_to_global[map[pe.v]]);
      }
      if (seen.insert(InstanceFingerprint(std::move(instance_edges))).second) {
        ++count;
      }
    });
    if (count > 0) out.push_back(count);
  };

  engine::Plan plan;
  auto counts = plan.Source(data.edges(), "edges")
                    .Map<std::uint64_t, Edge>(map_fn, "bucket multisets")
                    .ReduceByKey<std::uint64_t>(reduce_fn);
  return SampleGraphPlan{std::move(plan), std::move(counts)};
}

SampleGraphJobResult MRSampleGraphInstances(const Graph& data,
                                            const Graph& pattern, int k,
                                            std::uint64_t seed,
                                            const engine::JobOptions& options) {
  auto plan = BuildSampleGraphPlan(data, pattern, k, seed);
  auto run = plan.counts.Execute(engine::ExecutionOptions(options));
  SampleGraphJobResult result;
  result.metrics = std::move(run.metrics.rounds[0]);
  for (std::uint64_t c : run.outputs) result.instance_count += c;
  return result;
}

}  // namespace mrcost::graph
