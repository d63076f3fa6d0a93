// The randomized skew harness: Zipf-skewed synthetic jobs and all four
// problem-family reproductions run through every runtime defense
// combination — {hash, sampled-range} placement x speculative backups
// on/off — asserting (1) the defended engine's outputs stay byte-identical
// to the undefended run for every thread/shard count, (2) sampled-range
// placement never leaves a real round's shards more skewed than hash
// placement, and (3) the cluster simulator, priced on a real round's
// shard loads, shows simulated speculation rescuing stragglers. The
// defenses may only move *where* and *when* work runs, never *what* it
// computes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/engine/partitioner.h"
#include "src/engine/plan.h"
#include "src/engine/simulator.h"
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

TEST(SkewHarness, DefensesPreserveOutputsAcrossZipfAndShards) {
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

/// The skew gate's workload (bench_simulator): 2^18 inputs whose keys are
/// drawn Zipf(exponent) over 4096 keys with seed 7, one pair per input,
/// counted per key on `shards` shards under `partitioner`.
JobMetrics CountRound(double exponent, std::size_t shards,
                      PartitionerKind partitioner) {
  common::SplitMix64 rng(7);
  const common::ZipfDistribution zipf(4096, exponent);
  std::vector<std::uint64_t> inputs(std::size_t{1} << 18);
  for (auto& x : inputs) x = zipf.Sample(rng);
  JobOptions options;
  options.num_shards = shards;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.shuffle.partitioner = partitioner;
  auto run =
      Plan()
          .Source(std::move(inputs))
          .Map<std::uint64_t, int>(
              [](const std::uint64_t& x, Emitter<std::uint64_t, int>& e) {
                e.Emit(x, 1);
              })
          .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
              [](const std::uint64_t& key, GroupView<int> values,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
                out.emplace_back(key, values.size());
              })
          .Execute(ExecutionOptions(options));
  return std::move(run.metrics.rounds[0]);
}

TEST(SkewHarness, SampledRangeNoMoreSkewedThanHashOnTheRealRound) {
  // Measured on the round that runs: at every exponent, sampled-range
  // placement leaves the 16 shards no more skewed than hash placement.
  // At zipf 1.6 one key holds more than 1/16 of the pairs; range placement
  // must give it a shard of its own rather than leave its lighter
  // neighbours on its shard.
  for (double exponent : {0.0, 0.8, 1.2, 1.6}) {
    SCOPED_TRACE("zipf=" + std::to_string(exponent));
    const JobMetrics hashed = CountRound(exponent, 16, PartitionerKind::kHash);
    const JobMetrics ranged =
        CountRound(exponent, 16, PartitionerKind::kSampledRange);
    EXPECT_EQ(ranged.pairs_shuffled, hashed.pairs_shuffled);
    EXPECT_GE(ranged.partition_skew_ratio, 1.0);
    EXPECT_LE(ranged.partition_skew_ratio, hashed.partition_skew_ratio);
  }
}

TEST(SkewHarness, SimulatedSpeculationRecoversMakespan) {
  // Priced on a real round's even shard loads, a quarter of them held by
  // 4x stragglers, simulated backups must cut the makespan (first-finisher
  // semantics: effective finish is the min of the original and the
  // backup) and report what they launched.
  const JobMetrics round = CountRound(0.0, 16, PartitionerKind::kHash);
  SimulationOptions cluster;
  cluster.straggler_fraction = 0.25;
  cluster.straggler_slowdown = 4.0;
  cluster.speed_jitter = 0.1;
  cluster.seed = 21;
  const SimulationReport slow = SimulateCluster(round.shard_pairs, cluster);
  cluster.speculation = true;
  cluster.speculation_slowdown_factor = 1.5;
  const SimulationReport fast = SimulateCluster(round.shard_pairs, cluster);
  EXPECT_GT(fast.speculative_launched, 0u);
  EXPECT_GE(fast.speculative_launched, fast.speculative_won);
  EXPECT_LT(fast.makespan, slow.makespan);
  EXPECT_EQ(slow.speculative_launched, 0u);
}

// ----------------------------------- the four families, defended vs not

/// Full defense: sampled-range shard placement and engine speculation.
JobOptions DefendedOptions() {
  JobOptions options;
  options.num_threads = 4;
  options.shuffle.partitioner = PartitionerKind::kSampledRange;
  options.speculation.enabled = true;
  options.speculation.slowdown_factor = 1.5;
  options.speculation.min_completed = 1;
  options.speculation.min_task_ms = 0.0;
  return options;
}

JobOptions UndefendedOptions() {
  JobOptions options;
  options.num_threads = 4;
  options.shuffle.partitioner = PartitionerKind::kHash;
  return options;
}

TEST(SkewFamilies, HammingByteIdenticalUnderDefense) {
  const int b = 16;
  const auto strings = hamming::SkewedStrings(b, 3000, /*num_hubs=*/8,
                                              /*exponent=*/1.2, /*seed=*/3);
  auto plain = hamming::SplittingSimilarityJoin(strings, b, /*k=*/4,
                                                /*d=*/1,
                                                UndefendedOptions());
  auto defended = hamming::SplittingSimilarityJoin(strings, b, 4, 1,
                                                   DefendedOptions());
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
                                                UndefendedOptions());
  auto defended = hamming::SplittingSimilarityJoin(strings, 12, 4, 2,
                                                   DefendedOptions());
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
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
                                   UndefendedOptions());
  auto defended = join::HyperCubeJoin(query, ptrs, rounded, 1,
                                      DefendedOptions());
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
                                        UndefendedOptions());
  auto defended = matmul::MultiplyOnePhase(a, b, 8, DefendedOptions());
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(defended.ok()) << defended.status();
  EXPECT_EQ(defended->product.MaxAbsDiff(plain->product), 0.0);
  EXPECT_EQ(defended->metrics.pairs_shuffled, plain->metrics.pairs_shuffled);
}

TEST(SkewFamilies, TrianglesByteIdenticalUnderDefense) {
  const auto g = graph::ZipfGraph(/*n=*/300, /*m=*/2000, /*exponent=*/1.0,
                                  /*seed=*/23);
  const auto plain = graph::MRTriangles(g, /*k=*/4, /*seed=*/11,
                                        UndefendedOptions());
  const auto defended = graph::MRTriangles(g, 4, 11, DefendedOptions());
  EXPECT_EQ(defended.triangles, plain.triangles);
  EXPECT_EQ(defended.metrics.pairs_shuffled, plain.metrics.pairs_shuffled);
  EXPECT_EQ(defended.metrics.num_reducers, plain.metrics.num_reducers);
}

}  // namespace
}  // namespace mrcost::engine
