// Cluster-simulator sweeps: the paper charges every computation a
// replication rate r against a reducer capacity q, but placement alone
// says nothing about what skewed keys, heterogeneous machines, or
// stragglers do to the round's wall clock. Every sweep here runs a real
// round and then prices the placement it made: SimulateCluster treats
// each shard as one worker draining the rows the shuffle routed to it
// (JobMetrics::shard_pairs). The tables show
//   * load imbalance near 1.0 for uniform keys, growing with the Zipf
//     exponent (the hot key's shard owns the round),
//   * makespan stretching with the straggler slowdown,
//   * the realized q (max_reducer_input) outgrowing a q provisioned for
//     uniform keys as soon as the keys skew, and
//   * what the runtime's own defenses recover: sampled-range placement
//     and simulated speculative backups (the CI skew gate).
// A final table runs all four problem-family reproductions under skewed
// generators, next to their Section 2.4 lower bounds via
// CompareToLowerBound.
//
// Run: ./build/bench_simulator

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/engine/plan.h"
#include "src/engine/simulator.h"
#include "src/graph/alon.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/join/edge_cover.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/join/shares.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"

namespace {

using mrcost::common::Table;
namespace engine = mrcost::engine;

/// The synthetic workload every sweep uses: `n` inputs whose keys are
/// drawn Zipf(exponent) over `num_keys` (exponent 0 = uniform), counted
/// per key.
engine::ExecutionResult<std::pair<std::uint64_t, std::int64_t>> ZipfCountJob(
    std::size_t n, std::uint64_t num_keys, double exponent,
    const engine::JobOptions& options) {
  mrcost::common::SplitMix64 rng(7);
  const mrcost::common::ZipfDistribution zipf(num_keys, exponent);
  std::vector<std::uint64_t> inputs(n);
  for (auto& x : inputs) x = zipf.Sample(rng);
  auto map_fn = [](const std::uint64_t& x,
                   engine::Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn =
      [](const std::uint64_t& key, mrcost::engine::GroupView<int> values,
         std::vector<std::pair<std::uint64_t, std::int64_t>>& out) {
        out.emplace_back(key, static_cast<std::int64_t>(values.size()));
      };
  return engine::Plan()
      .Source(std::move(inputs))
      .Map<std::uint64_t, int>(map_fn)
      .ReduceByKey<std::pair<std::uint64_t, std::int64_t>>(reduce_fn)
      .Execute(engine::ExecutionOptions(options));
}

engine::JobOptions ShardedOptions(std::size_t shards,
                                  engine::PartitionerKind partitioner) {
  engine::JobOptions options;
  options.num_shards = shards;
  options.shuffle.strategy = engine::ShuffleStrategy::kSharded;
  options.shuffle.partitioner = partitioner;
  return options;
}

void SkewSweep() {
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  Table t({"workers", "zipf exponent", "makespan", "ideal", "imbalance",
           "makespan/ideal"});
  for (std::size_t workers : {4u, 16u, 64u}) {
    for (double exponent : {0.0, 0.5, 1.0, 1.5}) {
      const auto run = ZipfCountJob(
          n, num_keys, exponent,
          ShardedOptions(workers, engine::PartitionerKind::kHash));
      const auto report =
          engine::SimulateCluster(run.metrics.rounds[0].shard_pairs, {});
      t.AddRow()
          .Add(static_cast<std::uint64_t>(workers))
          .Add(exponent)
          .Add(report.makespan)
          .Add(report.ideal_makespan)
          .Add(report.load_imbalance)
          .Add(report.makespan / report.ideal_makespan);
    }
  }
  t.Print(std::cout,
          "Skew sweep (256k pairs, 4096 keys, one worker per hash shard): "
          "uniform keys stay near imbalance 1.0; Zipf skew hands one shard "
          "the hot key and the round with it");
}

void StragglerSweep() {
  const std::size_t n = 1 << 18;
  // One real round; the sweep only varies the machines it runs on.
  const auto run = ZipfCountJob(
      n, 4096, 0.0, ShardedOptions(16, engine::PartitionerKind::kHash));
  const std::vector<std::uint64_t>& shard_pairs =
      run.metrics.rounds[0].shard_pairs;
  Table t({"stragglers", "slowdown", "jitter", "makespan",
           "straggler impact", "imbalance"});
  for (double fraction : {0.0, 0.25}) {
    for (double slowdown : {1.0, 2.0, 4.0, 8.0}) {
      // One no-straggler baseline (fraction 0, slowdown 1); every other
      // (fraction, slowdown) pairing with either knob neutral duplicates
      // it exactly, since stragglers only bite when both are set.
      const bool baseline = fraction == 0.0 && slowdown == 1.0;
      const bool straggled = fraction > 0.0 && slowdown > 1.0;
      if (!baseline && !straggled) continue;
      for (double jitter : {0.0, 0.2}) {
        engine::SimulationOptions cluster;
        cluster.straggler_fraction = fraction;
        cluster.straggler_slowdown = slowdown;
        cluster.speed_jitter = jitter;
        cluster.seed = 13;
        const auto report = engine::SimulateCluster(shard_pairs, cluster);
        t.AddRow()
            .Add(fraction)
            .Add(slowdown)
            .Add(jitter)
            .Add(report.makespan)
            .Add(report.straggler_impact)
            .Add(report.load_imbalance);
      }
    }
  }
  t.Print(std::cout,
          "Straggler sweep (16 shards, uniform keys): load stays balanced "
          "— placement cannot see machine speed — but makespan stretches "
          "with the slowdown factor; jitter adds noise on top");
}

void CapacitySweep() {
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  // Provision q for the uniform case: 4x the mean group size.
  const double capacity_q = 4.0 * static_cast<double>(n) / num_keys;
  Table t({"zipf exponent", "provisioned q", "realized q (max group)",
           "realized/provisioned", "partition skew"});
  for (double exponent : {0.0, 0.5, 1.0, 1.5}) {
    const auto run = ZipfCountJob(
        n, num_keys, exponent,
        ShardedOptions(16, engine::PartitionerKind::kHash));
    const engine::JobMetrics& m = run.metrics.rounds[0];
    t.AddRow()
        .Add(exponent)
        .Add(capacity_q)
        .Add(m.max_reducer_input)
        .Add(static_cast<double>(m.max_reducer_input) / capacity_q)
        .Add(m.partition_skew_ratio);
  }
  t.Print(std::cout,
          "Capacity sweep: a q provisioned for uniform keys (4x mean) is "
          "outgrown by the realized q as soon as the key distribution "
          "skews — no placement moves a hot key's pairs off its reducer");
}

/// The straggler-ridden cluster the recovery gate and the family table
/// price their rounds on: a quarter of the workers 4x slow, mild jitter.
engine::SimulationOptions StragglerCluster() {
  engine::SimulationOptions cluster;
  cluster.straggler_fraction = 0.25;
  cluster.straggler_slowdown = 4.0;
  cluster.speed_jitter = 0.1;
  cluster.seed = 21;
  return cluster;
}

void MakespanRecovery() {
  // The skew gate: a Zipf-skewed count job at 16 shards on a straggler-
  // ridden cluster, undefended (hash placement) vs defended (the
  // runtime's sampled-range placement, plus simulated speculative backups
  // for the "on" rows). Outputs must stay byte-identical — placement
  // moves work, never changes it — while the simulated makespan of the
  // real placement is what moves. One BENCH_JSON line per case (metric:
  // recovery_pct; the raw makespans carry an _ms suffix so the comparator
  // treats them as timings, though they are simulated cost units).
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  constexpr std::size_t kWorkers = 16;
  Table t({"zipf exponent", "speculation", "makespan undefended",
           "makespan defended", "recovery %", "imbalance undef",
           "imbalance def", "backups won/launched"});
  for (double exponent : {1.2, 1.6}) {
    const auto hashed = ZipfCountJob(
        n, num_keys, exponent,
        ShardedOptions(kWorkers, engine::PartitionerKind::kHash));
    const auto ranged = ZipfCountJob(
        n, num_keys, exponent,
        ShardedOptions(kWorkers, engine::PartitionerKind::kSampledRange));
    // The in-process byte-identity smoke: placement must not change one
    // output bit.
    MRCOST_CHECK(ranged.outputs == hashed.outputs);
    const engine::SimulationReport undef = engine::SimulateCluster(
        hashed.metrics.rounds[0].shard_pairs, StragglerCluster());

    for (bool speculation : {false, true}) {
      engine::SimulationOptions cluster = StragglerCluster();
      cluster.speculation = speculation;
      cluster.speculation_slowdown_factor = 1.5;
      const engine::SimulationReport def = engine::SimulateCluster(
          ranged.metrics.rounds[0].shard_pairs, cluster);
      const double recovery_pct =
          undef.makespan > 0
              ? 100.0 * (undef.makespan - def.makespan) / undef.makespan
              : 0.0;
      t.AddRow()
          .Add(exponent)
          .Add(speculation ? "on" : "off")
          .Add(undef.makespan)
          .Add(def.makespan)
          .Add(recovery_pct)
          .Add(undef.load_imbalance)
          .Add(def.load_imbalance)
          .Add(std::to_string(def.speculative_won) + "/" +
               std::to_string(def.speculative_launched));
      std::printf(
          "BENCH_JSON {\"bench\":\"skew_recovery\",\"zipf\":%.1f,"
          "\"workers\":%zu,\"speculation\":\"%s\","
          "\"undefended_makespan_ms\":%.3f,\"defended_makespan_ms\":%.3f,"
          "\"recovery_pct\":%.3f}\n",
          exponent, kWorkers, speculation ? "on" : "off", undef.makespan,
          def.makespan, recovery_pct);
    }
  }
  t.Print(std::cout,
          "Makespan recovery (256k Zipf pairs, 16 shards, 25% stragglers "
          "at 4x): sampled-range placement evens out the hot key's "
          "neighbours, speculative backups rescue the stragglers; a hot key "
          "itself stays on one shard — outputs byte-identical throughout "
          "(checked in-process)");
}

void AddFamilyRow(Table& t, const std::string& name,
                  const std::string& instance,
                  const engine::JobMetrics& metrics,
                  const mrcost::core::Recipe& recipe) {
  const auto report = engine::CompareToLowerBound(metrics, recipe);
  const auto sim =
      engine::SimulateCluster(metrics.shard_pairs, StragglerCluster());
  t.AddRow()
      .Add(name)
      .Add(instance)
      .Add(report.realized_q)
      .Add(report.realized_r)
      .Add(report.lower_bound_r)
      .Add(report.optimality_ratio)
      .Add(sim.makespan)
      .Add(sim.load_imbalance)
      .Add(sim.straggler_impact);
}

void FamilyDriversUnderSkew() {
  Table t({"reproduction", "skewed instance", "q", "r", "bound @q",
           "r/bound", "makespan", "imbalance", "straggler impact"});
  // 16 shards, so 16 simulated workers.
  engine::JobOptions options;
  options.num_shards = 16;

  // Hamming: strings huddled around Zipf-popular hubs.
  {
    const int b = 16;
    const auto strings =
        mrcost::hamming::SkewedStrings(b, 4000, /*num_hubs=*/8,
                                       /*exponent=*/1.2, /*seed=*/3);
    auto result = mrcost::hamming::SplittingSimilarityJoin(strings, b,
                                                           /*k=*/4,
                                                           /*d=*/1, options);
    AddFamilyRow(t, "hamming splitting", "4000 hub-clustered 16-bit",
                 result->metrics, mrcost::hamming::Hamming1Recipe(b));
  }

  // Join: chain HyperCube over Zipf-valued relations.
  {
    const auto query = mrcost::join::ChainQuery(3);
    const mrcost::join::Value domain = 30;
    const auto rels = mrcost::join::ZipfRelationsForQuery(
        query, /*size_per_relation=*/400, domain, /*exponent=*/1.0,
        /*seed=*/17);
    std::vector<const mrcost::join::Relation*> ptrs;
    for (const auto& r : rels) ptrs.push_back(&r);
    auto shares =
        mrcost::join::OptimizeShares(query, {400, 400, 400}, 16);
    const auto rounded = mrcost::join::RoundShares(shares->shares, 16);
    auto result =
        mrcost::join::HyperCubeJoin(query, ptrs, rounded, /*seed=*/1,
                                    options);
    AddFamilyRow(t, "chain join hypercube", "N=3, zipf(1.0) values",
                 result->metrics,
                 mrcost::join::MultiwayJoinRecipe(domain, 4, /*rho=*/2.0));
  }

  // Matmul: the one family whose placement is purely structural (dense
  // tiles, value-independent) — its skew here is the simulated cluster
  // itself (stragglers + jitter); FillZipf only shapes the numerics.
  {
    const int n = 64;
    mrcost::common::SplitMix64 rng(9);
    mrcost::matmul::Matrix a(n, n), b_mat(n, n);
    a.FillZipf(rng, 1.0);
    b_mat.FillZipf(rng, 1.0);
    auto result = mrcost::matmul::MultiplyOnePhase(a, b_mat, /*tile=*/8,
                                                   options);
    AddFamilyRow(t, "matmul one-phase", "n=64, cluster skew only",
                 result->metrics, mrcost::matmul::MatMulRecipe(n));
  }

  // Graph: triangles on a Zipf-endpoint graph (hub nodes). The instance
  // is sparse, so it scores against the Section 5.3 edge-scaled recipe
  // (triangle = Alon-class sample graph with s=3, bound sqrt(m/q)) — the
  // dense-domain TriangleRecipe would undershoot the realized r.
  {
    const mrcost::graph::NodeId n = 300;
    const auto g = mrcost::graph::ZipfGraph(n, 2000, /*exponent=*/1.0,
                                            /*seed=*/23);
    const auto result =
        mrcost::graph::MRTriangles(g, /*k=*/4, /*seed=*/11, options);
    AddFamilyRow(t, "triangles partition",
                 "n=300, m=" + std::to_string(g.num_edges()) + " zipf(1.0)",
                 result.metrics,
                 mrcost::graph::AlonSampleEdgeRecipe(g.num_edges(), 3));
  }

  t.Print(std::cout,
          "All four reproductions under skewed generators, each round's "
          "16 shards priced on a simulated cluster (25% stragglers at 4x, "
          "10% jitter): realized q/r vs the Section 2.4 bound, plus what "
          "the skew costs in makespan");
}

}  // namespace

int main() {
  std::cout << "=== bench_simulator: real placements priced on simulated "
               "workers, skew injection, stragglers ===\n";
  SkewSweep();
  StragglerSweep();
  CapacitySweep();
  MakespanRecovery();
  FamilyDriversUnderSkew();
  return 0;
}
