// The randomized skew/fault harness (adaptive skew defense): Zipf-skewed
// synthetic jobs and all four problem-family reproductions run under
// straggler injection through every defense combination — {hash,
// sampled-range} partitioning x speculation on/off x hot-key splitting —
// asserting (1) the defended engine's outputs stay byte-identical to the
// undefended run for every thread/shard count, and (2) the sampled-range
// partitioner strictly improves the simulated load balance once the key
// distribution is genuinely skewed (zipf >= 1.2). The defenses may only
// move *where* and *when* work runs, never *what* it computes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/engine/partitioner.h"
#include "src/engine/plan.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/triangle.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/join/relation.h"
#include "src/join/shares.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"

namespace mrcost::engine {
namespace {

// ------------------------------------------------ synthetic zipf workload

/// Order-sensitive fold over Zipf-drawn keys: any deviation in grouping,
/// group order, or value order under a defense changes the output bytes.
struct ZipfJob {
  std::vector<std::uint64_t> inputs;

  ZipfJob(std::size_t n, std::uint64_t num_keys, double exponent,
          std::uint64_t seed) {
    common::SplitMix64 rng(seed);
    common::ZipfDistribution zipf(num_keys, exponent);
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) inputs.push_back(zipf.Sample(rng));
  }

  static void Map(const std::uint64_t& x,
                  Emitter<std::uint64_t, std::uint64_t>& emitter) {
    emitter.Emit(x, x * 2654435761ULL);
    emitter.Emit(x / 3 + 1, x + 1);
  }
  static void Reduce(const std::uint64_t& key,
                     GroupView<std::uint64_t> values,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                         out) {
    std::uint64_t acc = key;
    for (std::uint64_t v : values) acc = acc * 1099511628211ULL + v;
    out.emplace_back(key, acc);
  }

  ExecutionResult<std::pair<std::uint64_t, std::uint64_t>> Run(
      const JobOptions& options) const {
    return Plan()
        .Source(inputs)
        .Map<std::uint64_t, std::uint64_t>(&Map)
        .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(&Reduce)
        .Execute(ExecutionOptions(options));
  }
};

/// The straggler-injected simulated cluster every harness run executes
/// on: 16 workers, a quarter of them 4x slow, mild jitter.
SimulationOptions StragglerCluster(std::uint64_t seed) {
  SimulationOptions sim;
  sim.num_workers = 16;
  sim.straggler_fraction = 0.25;
  sim.straggler_slowdown = 4.0;
  sim.speed_jitter = 0.1;
  sim.seed = seed;
  return sim;
}

TEST(SkewHarness, DefensesPreserveOutputsAcrossZipfStragglersAndShards) {
  // The core property: for every zipf exponent x partitioner x
  // speculation x threads x shards combination, the defended run's
  // outputs are byte-identical to the undefended serial reference.
  const double exponents[] = {0.8, 1.2, 1.6};
  for (std::size_t e = 0; e < 3; ++e) {
    const ZipfJob job(20000, 512, exponents[e], /*seed=*/29 + e);
    JobOptions serial;
    serial.num_threads = 1;
    serial.shuffle.strategy = ShuffleStrategy::kSerial;
    const auto reference = job.Run(serial);

    for (PartitionerKind partitioner :
         {PartitionerKind::kHash, PartitionerKind::kSampledRange}) {
      for (bool speculation : {false, true}) {
        for (std::size_t threads : {1u, 4u}) {
          for (std::size_t shards : {1u, 3u, 8u}) {
            SCOPED_TRACE(std::string("zipf=") +
                         std::to_string(exponents[e]) + " partitioner=" +
                         ToString(partitioner) + " speculation=" +
                         (speculation ? "on" : "off") + " threads=" +
                         std::to_string(threads) + " shards=" +
                         std::to_string(shards));
            JobOptions options;
            options.num_threads = threads;
            options.num_shards = shards;
            options.shuffle.strategy = ShuffleStrategy::kSharded;
            options.shuffle.partitioner = partitioner;
            options.speculation.enabled = speculation;
            options.speculation.slowdown_factor = 1.5;  // fire eagerly
            options.speculation.min_completed = 1;
            options.speculation.min_task_ms = 0.0;
            options.simulation = StragglerCluster(/*seed=*/5);
            options.simulation.defense.partitioner = partitioner;
            options.simulation.defense.speculation = speculation;
            options.simulation.defense.hot_key_split_threshold = 2048;

            const auto run = job.Run(options);
            EXPECT_EQ(run.outputs, reference.outputs);
            EXPECT_EQ(run.metrics.rounds[0].pairs_shuffled,
                      reference.metrics.rounds[0].pairs_shuffled);
            EXPECT_EQ(run.metrics.rounds[0].num_reducers,
                      reference.metrics.rounds[0].num_reducers);
            EXPECT_GE(run.metrics.rounds[0].speculative_launched,
                      run.metrics.rounds[0].speculative_won);
          }
        }
      }
    }
  }
}

TEST(SkewHarness, SampledRangeStrictlyImprovesImbalanceUnderSkew) {
  // At zipf >= 1.2 the weighted range assignment must beat blind hashing
  // on simulated worker balance, for every seed tried. Hot-key splitting
  // is on for both sides (same threshold), so the comparison isolates
  // placement: hash still collides unrelated hot ranges onto one worker,
  // the sampled range plan packs by weight.
  for (double exponent : {1.2, 1.6}) {
    for (std::uint64_t seed : {3u, 11u, 27u}) {
      SCOPED_TRACE("zipf=" + std::to_string(exponent) +
                   " seed=" + std::to_string(seed));
      const ZipfJob job(30000, 2048, exponent, seed);
      auto imbalance_with = [&](PartitionerKind partitioner) {
        JobOptions options;
        options.num_threads = 4;
        options.simulation = StragglerCluster(seed);
        options.simulation.defense.partitioner = partitioner;
        options.simulation.defense.hot_key_split_threshold = 512;
        const auto run = job.Run(options);
        return run.metrics.rounds[0].load_imbalance;
      };
      const double hashed = imbalance_with(PartitionerKind::kHash);
      const double ranged = imbalance_with(PartitionerKind::kSampledRange);
      EXPECT_LT(ranged, hashed);
      EXPECT_GE(ranged, 1.0);  // still a valid imbalance ratio
    }
  }
}

TEST(SkewHarness, HotKeySplitRestoresCapacityCompliance) {
  // An all-hot workload blows the simulated capacity q; splitting at q
  // must remove the violations (each sub-group fits) while counting what
  // it split — and never change the engine outputs.
  const ZipfJob job(20000, 8, /*exponent=*/1.6, /*seed=*/41);
  JobOptions serial;
  serial.num_threads = 1;
  serial.shuffle.strategy = ShuffleStrategy::kSerial;
  const auto reference = job.Run(serial);

  JobOptions undefended;
  undefended.num_threads = 4;
  undefended.simulation = StragglerCluster(9);
  undefended.simulation.reducer_capacity_q = 1024;
  const auto broken = job.Run(undefended);
  ASSERT_GT(broken.metrics.rounds[0].capacity_violations, 0u);

  JobOptions defended = undefended;
  defended.simulation.defense.hot_key_split_threshold = 1024;
  const auto fixed = job.Run(defended);
  EXPECT_EQ(fixed.metrics.rounds[0].capacity_violations, 0u);
  EXPECT_GT(fixed.metrics.rounds[0].hot_keys_split, 0u);
  EXPECT_EQ(fixed.outputs, reference.outputs);
  EXPECT_EQ(broken.outputs, reference.outputs);
}

TEST(SkewHarness, SimulatedSpeculationRecoversMakespan) {
  // With stragglers holding hot queues, simulated backups must cut the
  // makespan (first-finisher semantics: effective finish is the min of
  // the original and the backup) and report what they launched.
  const ZipfJob job(30000, 512, /*exponent=*/1.4, /*seed=*/7);
  JobOptions undefended;
  undefended.num_threads = 4;
  undefended.simulation = StragglerCluster(21);
  const auto slow = job.Run(undefended);

  JobOptions defended = undefended;
  defended.simulation.defense.speculation = true;
  defended.simulation.defense.speculation_slowdown_factor = 1.5;
  const auto fast = job.Run(defended);
  EXPECT_GT(fast.metrics.rounds[0].speculative_launched, 0u);
  EXPECT_GE(fast.metrics.rounds[0].speculative_launched,
            fast.metrics.rounds[0].speculative_won);
  EXPECT_LT(fast.metrics.rounds[0].makespan, slow.metrics.rounds[0].makespan);
  EXPECT_EQ(fast.outputs, slow.outputs);
}

// ----------------------------------- the four families, defended vs not

/// Full defense: sampled-range shard placement, engine speculation, and
/// the simulated cluster's own defenses, on the straggler cluster.
JobOptions DefendedOptions(std::uint64_t seed) {
  JobOptions options;
  options.num_threads = 4;
  options.shuffle.partitioner = PartitionerKind::kSampledRange;
  options.speculation.enabled = true;
  options.speculation.slowdown_factor = 1.5;
  options.speculation.min_completed = 1;
  options.speculation.min_task_ms = 0.0;
  options.simulation = StragglerCluster(seed);
  options.simulation.defense.partitioner = PartitionerKind::kSampledRange;
  options.simulation.defense.speculation = true;
  options.simulation.defense.hot_key_split_threshold = 4096;
  return options;
}

JobOptions UndefendedOptions(std::uint64_t seed) {
  JobOptions options;
  options.num_threads = 4;
  options.simulation = StragglerCluster(seed);
  return options;
}

TEST(SkewFamilies, HammingByteIdenticalUnderDefense) {
  const int b = 16;
  const auto strings = hamming::SkewedStrings(b, 3000, /*num_hubs=*/8,
                                              /*exponent=*/1.2, /*seed=*/3);
  auto plain = hamming::SplittingSimilarityJoin(strings, b, /*k=*/4,
                                                /*d=*/1,
                                                UndefendedOptions(17));
  auto defended = hamming::SplittingSimilarityJoin(strings, b, 4, 1,
                                                   DefendedOptions(17));
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
  EXPECT_EQ(defended->pairs, plain->pairs);
  EXPECT_EQ(defended->metrics.pairs_shuffled, plain->metrics.pairs_shuffled);
}

// The full domain puts 64 strings in every (12,4,2) reducer, so the
// flip-mask probe branch and its thread-local set run under the full
// defense (sampled-range shards, speculative backups) and must still give
// the undefended run's pairs.
TEST(SkewFamilies, DenseHammingByteIdenticalUnderDefense) {
  const auto strings = hamming::AllStrings(12);
  auto plain = hamming::SplittingSimilarityJoin(strings, 12, /*k=*/4,
                                                /*d=*/2,
                                                UndefendedOptions(19));
  auto defended = hamming::SplittingSimilarityJoin(strings, 12, 4, 2,
                                                   DefendedOptions(19));
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
  EXPECT_GT(defended->metrics.speculative_launched, 0u);
  EXPECT_EQ(defended->pairs, plain->pairs);
  EXPECT_EQ(defended->metrics.pairs_shuffled, plain->metrics.pairs_shuffled);
}

TEST(SkewFamilies, JoinByteIdenticalUnderDefense) {
  const auto query = join::ChainQuery(3);
  const join::Value domain = 30;
  const auto rels = join::ZipfRelationsForQuery(
      query, /*size_per_relation=*/400, domain, /*exponent=*/1.0,
      /*seed=*/17);
  std::vector<const join::Relation*> ptrs;
  for (const auto& r : rels) ptrs.push_back(&r);
  auto shares = join::OptimizeShares(query, {400, 400, 400}, 16);
  ASSERT_TRUE(shares.ok());
  const auto rounded = join::RoundShares(shares->shares, 16);
  auto plain = join::HyperCubeJoin(query, ptrs, rounded, /*seed=*/1,
                                   UndefendedOptions(23));
  auto defended = join::HyperCubeJoin(query, ptrs, rounded, 1,
                                      DefendedOptions(23));
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
  EXPECT_EQ(defended->results, plain->results);
  EXPECT_EQ(defended->metrics.pairs_shuffled, plain->metrics.pairs_shuffled);
}

TEST(SkewFamilies, MatmulByteIdenticalUnderDefense) {
  const int n = 48;
  common::SplitMix64 rng(9);
  matmul::Matrix a(n, n), b(n, n);
  a.FillZipf(rng, 1.0);
  b.FillZipf(rng, 1.0);
  auto plain = matmul::MultiplyOnePhase(a, b, /*tile=*/8,
                                        UndefendedOptions(31));
  auto defended = matmul::MultiplyOnePhase(a, b, 8, DefendedOptions(31));
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
  EXPECT_EQ(defended->product.MaxAbsDiff(plain->product), 0.0);
  EXPECT_EQ(defended->metrics.pairs_shuffled, plain->metrics.pairs_shuffled);
}

TEST(SkewFamilies, TrianglesByteIdenticalUnderDefense) {
  const auto g = graph::ZipfGraph(/*n=*/300, /*m=*/2000, /*exponent=*/1.0,
                                  /*seed=*/23);
  const auto plain = graph::MRTriangles(g, /*k=*/4, /*seed=*/11,
                                        UndefendedOptions(37));
  const auto defended = graph::MRTriangles(g, 4, 11, DefendedOptions(37));
  EXPECT_EQ(defended.triangles, plain.triangles);
  EXPECT_EQ(defended.metrics.pairs_shuffled, plain.metrics.pairs_shuffled);
  EXPECT_EQ(defended.metrics.num_reducers, plain.metrics.num_reducers);
}

}  // namespace
}  // namespace mrcost::engine
