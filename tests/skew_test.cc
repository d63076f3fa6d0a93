// The randomized skew harness: Zipf-skewed synthetic jobs and all four
// problem-family reproductions run through every runtime defense
// combination — {hash, sampled-range} placement x speculative backups
// on/off — asserting (1) the defended engine's outputs stay byte-identical
// to the undefended run for every thread/shard count, (2) sampled-range
// placement never leaves a real round's shards more skewed than hash
// placement, and (3) the skew gate: on the gate's Zipf count round at 16
// shards, both placements' shard loads are pinned and sampled-range
// placement is strictly less skewed than hash placement at zipf 1.2 and
// 1.6, with byte-identical outputs. The defenses may only move *where*
// and *when* work runs, never *what* it computes.

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

TEST(SkewHarness, DefensesPreserveOutputsAcrossZipfAndShards) {
  // The core property: for every zipf exponent x partitioner x
  // speculation x threads x shards combination, the defended run's
  // outputs are byte-identical to the undefended serial reference.
  const double exponents[] = {0.8, 1.2, 1.6};
  for (std::size_t e = 0; e < 3; ++e) {
    const ZipfJob job(20000, 512, exponents[e], /*seed=*/29 + e);
    JobOptions serial;
    serial.num_threads = 1;
    serial.num_shards = 1;
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

using CountOutputs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The skew gate's workload: 2^18 inputs whose keys are drawn
/// Zipf(exponent) over 4096 keys with seed 7, one pair per input, counted
/// per key on `shards` shards under `partitioner`.
ExecutionResult<CountOutputs::value_type> CountRound(
    double exponent, std::size_t shards, PartitionerKind partitioner) {
  common::SplitMix64 rng(7);
  const common::ZipfDistribution zipf(4096, exponent);
  std::vector<std::uint64_t> inputs(std::size_t{1} << 18);
  for (auto& x : inputs) x = zipf.Sample(rng);
  JobOptions options;
  options.num_shards = shards;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.shuffle.partitioner = partitioner;
  return Plan()
      .Source(std::move(inputs))
      .Map<std::uint64_t, int>(
          [](const std::uint64_t& x, Emitter<std::uint64_t, int>& e) {
            e.Emit(x, 1);
          })
      .ReduceByKey<CountOutputs::value_type>(
          [](const std::uint64_t& key, GroupView<int> values,
             CountOutputs& out) { out.emplace_back(key, values.size()); })
      .Execute(ExecutionOptions(options));
}

/// The gate's pinned placements at 16 shards: the shard loads each
/// partitioner really produces on CountRound. Any change to hashing, the
/// placement sample or the range cuts shows up here.
struct PinnedPlacement {
  double exponent;
  std::vector<std::uint64_t> hashed;
  std::vector<std::uint64_t> ranged;
};

const PinnedPlacement kPinnedPlacements[] = {
    {1.2,
     {6480, 14491, 63999, 6173, 5533, 8009, 32221, 16065, 8769, 10871, 5014,
      14548, 12261, 32028, 13761, 11921},
     {16790, 6821, 56207, 1962, 16617, 22335, 11571, 17923, 13337, 17950,
      15079, 9952, 24792, 14299, 16509, 0}},
    {1.6,
     {2091, 10830, 117486, 2049, 1456, 2963, 34326, 10982, 2934, 5809, 1873,
      8556, 6939, 40668, 7493, 5689},
     {13706, 115189, 2687, 5468, 19546, 12813, 11784, 17275, 10297, 37991,
      15388, 0, 0, 0, 0, 0}},
};

TEST(SkewHarness, SampledRangeNoMoreSkewedThanHashOnTheRealRound) {
  // Measured on the round that runs: at every exponent, sampled-range
  // placement leaves the 16 shards no more skewed than hash placement.
  // At zipf 1.6 one key holds more than 1/16 of the pairs; range placement
  // must give it a shard of its own rather than leave its lighter
  // neighbours on its shard.
  for (double exponent : {0.0, 0.8}) {
    SCOPED_TRACE("zipf=" + std::to_string(exponent));
    const JobMetrics hashed =
        CountRound(exponent, 16, PartitionerKind::kHash).metrics.rounds[0];
    const JobMetrics ranged =
        CountRound(exponent, 16, PartitionerKind::kSampledRange)
            .metrics.rounds[0];
    EXPECT_EQ(ranged.pairs_shuffled, hashed.pairs_shuffled);
    EXPECT_GE(ranged.partition_skew_ratio, 1.0);
    EXPECT_LE(ranged.partition_skew_ratio, hashed.partition_skew_ratio);
  }
  // The skew gate: where the keys are skewed, the placement the round
  // decides is pinned, sampled-range placement is strictly less skewed,
  // and the outputs do not move.
  for (const PinnedPlacement& pinned : kPinnedPlacements) {
    SCOPED_TRACE("zipf=" + std::to_string(pinned.exponent));
    const auto hashed = CountRound(pinned.exponent, 16, PartitionerKind::kHash);
    const auto ranged =
        CountRound(pinned.exponent, 16, PartitionerKind::kSampledRange);
    EXPECT_EQ(ranged.outputs, hashed.outputs);
    const JobMetrics& h = hashed.metrics.rounds[0];
    const JobMetrics& r = ranged.metrics.rounds[0];
    EXPECT_EQ(h.shard_pairs, pinned.hashed);
    EXPECT_EQ(r.shard_pairs, pinned.ranged);
    EXPECT_LT(r.partition_skew_ratio, h.partition_skew_ratio);
  }
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
