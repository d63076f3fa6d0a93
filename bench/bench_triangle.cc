// Regenerates the Section 4 analysis (E7, E8): triangle finding.
//   * Dense (all edges present): the partition algorithm's measured r vs
//     the n/sqrt(2q) lower bound across bucket counts k.
//   * Sparse G(n,m): measured r vs the sqrt(m/q) form after the Section
//     4.2 rescaling, plus the expected-vs-max reducer load concentration.
//   * Ablation: the multiset-ownership dedup rule (duplicates without it).

#include <cstdint>
#include <iostream>
#include <string>

#include "src/common/table.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"

namespace {

using mrcost::common::Table;
using mrcost::graph::CompleteGraph;
using mrcost::graph::MRTriangles;
using mrcost::graph::RandomGnm;

void DenseSweep() {
  const mrcost::graph::NodeId n = 80;
  const auto g = CompleteGraph(n);
  const std::uint64_t triangles = mrcost::graph::SerialTriangleCount(g);
  Table t({"k", "measured r", "measured max q", "bound n/sqrt(2q)",
           "r/bound", "triangles found"});
  for (int k : {2, 3, 4, 6, 8, 12}) {
    const auto result = MRTriangles(g, k, /*seed=*/9);
    if (result.triangles.size() != triangles) {
      std::cout << "ERROR: wrong triangle count at k=" << k << "\n";
      return;
    }
    const double q = static_cast<double>(result.metrics.max_reducer_input);
    const double bound = mrcost::graph::TriangleLowerBound(n, q);
    t.AddRow()
        .Add(k)
        .Add(result.metrics.replication_rate())
        .Add(result.metrics.max_reducer_input)
        .Add(bound)
        .Add(result.metrics.replication_rate() / bound)
        .Add(result.triangles.size());
  }
  t.Print(std::cout,
          "Section 4.1 (dense, K_80): partition algorithm vs n/sqrt(2q) — "
          "constant-factor match");
}

void SparseSweep() {
  const mrcost::graph::NodeId n = 400;
  Table t({"m", "k", "measured r", "mean q", "max q", "bound sqrt(m/q)",
           "r/bound", "triangles"});
  for (std::uint64_t m : {2000ull, 8000ull, 32000ull}) {
    const auto g = RandomGnm(n, m, /*seed=*/m);
    for (int k : {4, 8}) {
      const auto result = MRTriangles(g, k, /*seed=*/13);
      const double mean_q = result.metrics.reducer_sizes.mean();
      const double bound =
          mrcost::graph::SparseTriangleLowerBound(m, mean_q);
      t.AddRow()
          .Add(m)
          .Add(k)
          .Add(result.metrics.replication_rate())
          .Add(mean_q)
          .Add(result.metrics.max_reducer_input)
          .Add(bound)
          .Add(result.metrics.replication_rate() / bound)
          .Add(result.triangles.size());
    }
  }
  t.Print(std::cout,
          "Section 4.2 (sparse G(n,m), n=400): measured r vs sqrt(m/q) at "
          "the expected load q");
}

void OneVsTwoRounds() {
  // The 1-round partition algorithm vs the 2-round node-iterator of [21]
  // on a skewed (preferential-attachment) graph — the multi-round
  // comparison Section 7.1 invites, plus the skew sensitivity the paper
  // flags ("graphs with some nodes whose degree is higher than q ...
  // require alternative algorithms").
  const auto g = mrcost::graph::PreferentialAttachmentGraph(
      2000, /*attach=*/4, /*seed=*/33);
  Table t({"algorithm", "rounds", "total pairs", "max reducer input",
           "shard-load skew (max/mean)", "triangles"});
  // 16 hash shards: the skew column is the round's real
  // partition_skew_ratio over them.
  mrcost::engine::JobOptions options;
  options.num_shards = 16;
  options.shuffle.partitioner = mrcost::engine::PartitionerKind::kHash;

  const auto partition = MRTriangles(g, 6, /*seed=*/2, options);
  t.AddRow()
      .Add("partition k=6")
      .Add(1)
      .Add(partition.metrics.pairs_shuffled)
      .Add(partition.metrics.max_reducer_input)
      .Add(partition.metrics.partition_skew_ratio)
      .Add(partition.triangles.size());

  for (bool ordering : {true, false}) {
    const auto ni = mrcost::graph::MRTrianglesNodeIterator(g, ordering,
                                                           options);
    t.AddRow()
        .Add(ordering ? "node-iterator (deg-ordered)"
                      : "node-iterator (unordered)")
        .Add(2)
        .Add(ni.metrics.total_pairs())
        .Add(ni.metrics.max_reducer_input())
        .Add(ni.metrics.rounds[0].partition_skew_ratio)
        .Add(ni.triangles.size());
  }
  t.Print(std::cout,
          "1-round vs 2-round triangle algorithms on a power-law graph "
          "(n=2000): degree ordering defeats the 'curse of the last "
          "reducer'");
}

void DedupAblation() {
  const auto g = CompleteGraph(40);
  Table t({"k", "with ownership rule", "without (duplicates)",
           "duplication factor"});
  for (int k : {2, 4, 8}) {
    const auto with_rule = MRTriangles(g, k, 21, {}, /*dedup_rule=*/true);
    const auto without = MRTriangles(g, k, 21, {}, /*dedup_rule=*/false);
    t.AddRow()
        .Add(k)
        .Add(with_rule.triangles.size())
        .Add(without.triangles.size())
        .Add(static_cast<double>(without.triangles.size()) /
             static_cast<double>(with_rule.triangles.size()));
  }
  t.Print(std::cout,
          "Ablation: emission-ownership rule (each triangle produced by "
          "exactly one reducer)");
}

}  // namespace

int main() {
  std::cout << "=== bench_triangle: triangle finding (Section 4) ===\n";
  DenseSweep();
  SparseSweep();
  OneVsTwoRounds();
  DedupAblation();
  return 0;
}
