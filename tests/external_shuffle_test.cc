// Engine- and driver-level coverage of ShuffleStrategy::kExternal: the
// spill-to-disk shuffle must be byte-identical to the in-memory shuffles
// at every budget, report its spill counters through JobMetrics /
// PipelineMetrics / RoundCostReport, and carry all four problem-family
// drivers end-to-end with a memory budget far below the intermediate data
// size — the capacity-q regime the paper reasons about, actually enforced
// instead of only reported.

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/engine/executor.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/sample_graph_mr.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/query.h"
#include "src/join/relation.h"
#include "src/join/two_round.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "tests/shuffle_inputs.h"

namespace mrcost::engine {
namespace {

TEST(ShuffleStrategyResolution, AutoFollowsBudget) {
  JobOptions options;
  EXPECT_EQ(options.shuffle.Resolved(), ShuffleStrategy::kSharded);
  options.shuffle.memory_budget_bytes = 1 << 16;
  EXPECT_EQ(options.shuffle.Resolved(), ShuffleStrategy::kExternal);
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  EXPECT_EQ(options.shuffle.Resolved(), ShuffleStrategy::kSharded);
  options.shuffle.strategy = ShuffleStrategy::kExternal;
  options.shuffle.memory_budget_bytes = 0;
  EXPECT_EQ(options.shuffle.Resolved(), ShuffleStrategy::kExternal);
  EXPECT_STREQ(ToString(ShuffleStrategy::kExternal), "external");
}

TEST(ShuffleConfigResolution, FieldWiseMergeOrder) {
  // The documented resolution order: explicit per-round fields win, unset
  // fields inherit the fallback, and a still-kAuto strategy follows the
  // (merged) budget.
  ShuffleConfig fallback;
  fallback.strategy = ShuffleStrategy::kSharded;
  fallback.memory_budget_bytes = 1 << 20;
  fallback.spill_dir = "/tmp/fallback";
  fallback.partitioner = PartitionerKind::kSampledRange;

  ShuffleConfig round;  // everything unset
  EXPECT_FALSE(round.configured());
  ShuffleConfig merged = round.MergedOver(fallback);
  EXPECT_EQ(merged.strategy, ShuffleStrategy::kSharded);
  EXPECT_EQ(merged.memory_budget_bytes, std::uint64_t{1} << 20);
  EXPECT_EQ(merged.spill_dir, "/tmp/fallback");
  EXPECT_EQ(merged.partitioner, PartitionerKind::kSampledRange);

  round.strategy = ShuffleStrategy::kExternal;
  round.spill_dir = "/tmp/round";
  merged = round.MergedOver(fallback);
  EXPECT_EQ(merged.strategy, ShuffleStrategy::kExternal);  // round wins
  EXPECT_EQ(merged.spill_dir, "/tmp/round");               // round wins
  EXPECT_EQ(merged.memory_budget_bytes,
            std::uint64_t{1} << 20);  // inherited field-wise
  EXPECT_EQ(merged.partitioner, PartitionerKind::kSampledRange);

  // kAuto resolution after the merge: budget => external.
  ShuffleConfig auto_config;
  EXPECT_EQ(auto_config.Resolved(), ShuffleStrategy::kSharded);
  auto_config.memory_budget_bytes = 1;
  EXPECT_EQ(auto_config.Resolved(), ShuffleStrategy::kExternal);
}

/// The fanout workload of the sharded-shuffle determinism tests: colliding
/// keys, order-sensitive reduce fold.
ExecutionResult<std::pair<int, std::uint64_t>> FanoutJob(
    const JobOptions& options) {
  std::vector<int> inputs(3000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x % 97, x);
    emitter.Emit(x % 251, x + 1);
    emitter.Emit(x % 599, x + 2);
  };
  auto reduce_fn = [](const int& key, GroupView<int> values,
                      std::vector<std::pair<int, std::uint64_t>>& out) {
    auto acc = static_cast<std::uint64_t>(key);
    for (int v : values) acc = acc * 31 + static_cast<std::uint64_t>(v);
    out.emplace_back(key, acc);
  };
  return Plan()
      .Source(std::move(inputs))
      .Map<int, int>(map_fn)
      .ReduceByKey<std::pair<int, std::uint64_t>>(reduce_fn)
      .Execute(ExecutionOptions(options));
}

TEST(ExternalShuffleJob, IdenticalToInMemoryAcrossBudgetsAndThreads) {
  JobOptions baseline;
  baseline.num_threads = 1;
  baseline.num_shards = 1;
  const auto reference = FanoutJob(baseline);
  const JobMetrics& want = reference.metrics.rounds[0];
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1} << 10,
                                 std::uint64_t{1} << 14,
                                 std::uint64_t{1} << 30}) {
      JobOptions options;
      options.num_threads = threads;
      options.shuffle.strategy = ShuffleStrategy::kExternal;
      options.shuffle.memory_budget_bytes = budget;
      const auto run = FanoutJob(options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      EXPECT_EQ(run.outputs, reference.outputs);
      const JobMetrics& m = run.metrics.rounds[0];
      EXPECT_EQ(m.pairs_shuffled, want.pairs_shuffled);
      EXPECT_EQ(m.bytes_shuffled, want.bytes_shuffled);
      EXPECT_EQ(m.num_reducers, want.num_reducers);
      EXPECT_EQ(m.max_reducer_input, want.max_reducer_input);
      EXPECT_TRUE(m.external_shuffle());
      EXPECT_GE(m.merge_passes, 1u);
      if (budget < (std::uint64_t{1} << 14)) {
        EXPECT_GT(m.spill_runs, 0u);
        EXPECT_GT(m.spill_bytes_written, 0u);
      }
    }
  }
  // The in-memory strategies report no spill activity.
  EXPECT_FALSE(want.external_shuffle());
  EXPECT_EQ(want.spill_runs, 0u);
}

// ----------------------------- round-trip property vs SerialShuffle

using testutil::kAllKeyDists;
using testutil::KeyDist;
using testutil::Name;
using testutil::RandomChunks;

template <typename Key, typename Value>
using Grouped = std::vector<std::pair<Key, std::vector<Value>>>;

/// SerialShuffle over `chunks`, as (key, group) rows in first-seen order.
template <typename Key, typename Value>
Grouped<Key, Value> SerialGroups(
    std::vector<std::vector<std::pair<Key, Value>>> chunks) {
  auto serial = SerialShuffle(chunks);
  Grouped<Key, Value> rows;
  for (std::size_t i = 0; i < serial.keys.size(); ++i) {
    rows.emplace_back(std::move(serial.keys[i]), std::move(serial.groups[i]));
  }
  return rows;
}

/// The same pairs through a full one-round plan: the map re-emits each
/// pair (inputs in scan order), the reduce emits its key and group as-is.
template <typename Key, typename Value>
ExecutionResult<std::pair<Key, std::vector<Value>>> GroupJob(
    const std::vector<std::vector<std::pair<Key, Value>>>& chunks,
    const JobOptions& options) {
  std::vector<std::pair<Key, Value>> inputs;
  for (const auto& chunk : chunks) {
    inputs.insert(inputs.end(), chunk.begin(), chunk.end());
  }
  auto map_fn = [](const std::pair<Key, Value>& kv,
                   Emitter<Key, Value>& emitter) {
    emitter.Emit(kv.first, kv.second);
  };
  auto reduce_fn = [](const Key& key, GroupView<Value> values,
                      Grouped<Key, Value>& out) {
    out.emplace_back(key,
                     std::vector<Value>(values.begin(), values.end()));
  };
  return Plan()
      .Source(std::move(inputs))
      .template Map<Key, Value>(map_fn)
      .template ReduceByKey<std::pair<Key, std::vector<Value>>>(reduce_fn)
      .Execute(ExecutionOptions(options));
}

TEST(ExternalShuffleJob, MatchesSerialShuffleAcrossDistributionsAndBudgets) {
  // For every distribution, seed, and budget (from spill-everything to
  // spill-nothing): keys, group contents, and global first-seen order must
  // match the serial in-memory reference exactly.
  for (KeyDist dist : kAllKeyDists) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto chunks = RandomChunks(dist, seed);
      const auto serial = SerialGroups(chunks);
      for (std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{256},
                                   std::uint64_t{4096},
                                   std::uint64_t{1} << 30}) {
        JobOptions options;
        options.num_threads = 4;
        options.shuffle.strategy = ShuffleStrategy::kExternal;
        options.shuffle.memory_budget_bytes = budget;
        const auto run = GroupJob(chunks, options);
        SCOPED_TRACE(std::string(Name(dist)) +
                     " seed=" + std::to_string(seed) +
                     " budget=" + std::to_string(budget));
        ASSERT_EQ(run.outputs, serial);
        const JobMetrics& m = run.metrics.rounds[0];
        EXPECT_TRUE(m.external_shuffle());
        EXPECT_GE(m.merge_passes, 1u);
        if (budget == 0 && !serial.empty()) {
          EXPECT_GT(m.spill_runs, 0u);
        }
      }
    }
  }
}

/// One external round staged straight onto the executor with an explicit
/// shape — the resolver gives external rounds two shards per thread, so
/// this is how a test picks an odd shard count. Its reducer emits each
/// key's group as-is.
template <typename CombineFn>
JobResult<std::pair<std::uint64_t, std::vector<int>>> ExternalRound(
    const std::vector<std::pair<std::uint64_t, int>>& inputs,
    std::size_t chunks, std::size_t shards, std::uint64_t share,
    CombineFn combine) {
  using In = std::pair<std::uint64_t, int>;
  using Out = std::pair<std::uint64_t, std::vector<int>>;
  common::ThreadPool pool(2);
  StageGraphExecutor exec(pool);
  JobOptions options;
  options.pool = &pool;
  options.shuffle.strategy = ShuffleStrategy::kExternal;
  options.shuffle.memory_budget_bytes = share * chunks;
  PhysicalRound physical;
  physical.chunks = chunks;
  physical.shards = shards;
  physical.strategy = ShuffleStrategy::kExternal;
  auto map_fn = [](const In& kv, Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(kv.first, kv.second);
  };
  auto reduce_fn = [](const std::uint64_t& key, GroupView<int> values,
                      std::vector<Out>& out) {
    out.emplace_back(key, std::vector<int>(values.begin(), values.end()));
  };
  using Round =
      internal::StagedRound<In, std::uint64_t, int, Out, CombineFn>;
  auto round = Round::StageMaterialized(exec, 0, inputs, nullptr, map_fn,
                                        combine, reduce_fn, options,
                                        physical);
  round->StageFinalize();
  exec.Wait();
  return round->TakeResult();
}

TEST(ExternalShuffleJob, ManyOverflowsPerChunkAcrossShardCounts) {
  // A share of a few rows per chunk overflows each map chunk dozens of
  // times, every overflow spilling one run per shard. Each shard must
  // still read its runs in position order: outputs byte-identical to
  // SerialShuffle over the rows that cross the shuffle — the raw pairs
  // for a plain round, each chunk's pairs folded per key in first-seen
  // order for a combined one.
  constexpr std::size_t kChunks = 3;
  const std::function<int(int, int)> sum = [](int a, int b) { return a + b; };
  for (KeyDist dist : {KeyDist::kUniform, KeyDist::kZipf,
                       KeyDist::kAllDistinct}) {
    for (std::uint64_t seed : {1u, 2u}) {
      std::vector<std::pair<std::uint64_t, int>> inputs;
      for (const auto& chunk : RandomChunks(dist, seed)) {
        inputs.insert(inputs.end(), chunk.begin(), chunk.end());
      }
      std::vector<std::vector<std::pair<std::uint64_t, int>>> raw(kChunks);
      std::vector<std::vector<std::pair<std::uint64_t, int>>> folded(
          kChunks);
      PhysicalRound shape;
      shape.chunks = kChunks;
      for (std::size_t c = 0; c < kChunks; ++c) {
        const auto [lo, hi] = shape.ChunkRange(c, inputs.size());
        std::unordered_map<std::uint64_t, std::size_t> at;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& [key, value] = inputs[i];
          raw[c].emplace_back(key, value);
          const auto [it, fresh] = at.try_emplace(key, folded[c].size());
          if (fresh) {
            folded[c].emplace_back(key, value);
          } else {
            folded[c][it->second].second += value;
          }
        }
      }
      const auto plain_want = SerialGroups(raw);
      const auto combined_want = SerialGroups(folded);
      for (std::size_t shards : {1u, 2u, 4u, 7u}) {
        SCOPED_TRACE(std::string(Name(dist)) + " seed=" +
                     std::to_string(seed) +
                     " shards=" + std::to_string(shards));
        const auto plain = ExternalRound(inputs, kChunks, shards,
                                         /*share=*/48, internal::NoCombine{});
        EXPECT_EQ(plain.outputs, plain_want);
        EXPECT_GT(plain.metrics.spill_runs, kChunks);
        EXPECT_EQ(plain.metrics.merge_passes, 1u);
        const auto combined =
            ExternalRound(inputs, kChunks, shards, /*share=*/24, sum);
        EXPECT_EQ(combined.outputs, combined_want);
        EXPECT_GT(combined.metrics.spill_runs, kChunks);
        EXPECT_EQ(combined.metrics.pairs_shuffled,
                  folded[0].size() + folded[1].size() + folded[2].size());
      }
    }
  }
}

TEST(ExternalShuffleJob, StringKeysAndValues) {
  // Variable-length keys exercise the key-byte comparison path.
  std::vector<std::vector<std::pair<std::string, std::string>>> chunks(3);
  common::SplitMix64 rng(21);
  for (auto& chunk : chunks) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t k = rng.UniformBelow(37);
      chunk.emplace_back("key-" + std::string(k % 5, 'x') +
                             std::to_string(k),
                         "value-" + std::to_string(i));
    }
  }
  JobOptions options;
  options.num_threads = 2;
  options.shuffle.strategy = ShuffleStrategy::kExternal;
  options.shuffle.memory_budget_bytes = 2048;
  const auto run = GroupJob(chunks, options);
  EXPECT_EQ(run.outputs, SerialGroups(chunks));
  EXPECT_GT(run.metrics.rounds[0].spill_runs, 0u);
}

TEST(ExternalShuffleJob, CombinedRoundMatchesInMemory) {
  std::vector<int> inputs(8000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 613);
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, x);
    emitter.Emit(x + 1000, 2 * x);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key, GroupView<std::int64_t> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto run = [&](const JobOptions& options) {
    return Plan()
        .Source(inputs)
        .Map<int, std::int64_t>(map_fn)
        .CombineByKey(combine_fn)
        .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
        .Execute(ExecutionOptions(options));
  };
  JobOptions plain;
  plain.num_threads = 2;
  const auto reference = run(plain);
  JobOptions external = plain;
  external.shuffle.memory_budget_bytes = 1 << 10;
  const auto spilled = run(external);
  EXPECT_EQ(spilled.outputs, reference.outputs);
  const JobMetrics& m = spilled.metrics.rounds[0];
  const JobMetrics& want = reference.metrics.rounds[0];
  EXPECT_EQ(m.pairs_shuffled, want.pairs_shuffled);
  EXPECT_EQ(m.pairs_before_combine, want.pairs_before_combine);
  EXPECT_TRUE(m.external_shuffle());
  EXPECT_GT(m.spill_runs, 0u);
}

TEST(ExternalShuffleJob, SpilledRoundPlacesLikeTheInMemoryRound) {
  // An external round routes its spilled and in-memory runs by the same
  // hash placement as an in-memory round at its shard count, so both
  // report the same shard loads.
  JobOptions options;
  options.shuffle.memory_budget_bytes = 1 << 10;
  const auto run = FanoutJob(options);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_TRUE(m.external_shuffle());
  EXPECT_GT(m.spill_runs, 0u);

  JobOptions sharded;
  sharded.num_shards = m.shard_pairs.size();
  sharded.shuffle.strategy = ShuffleStrategy::kSharded;
  sharded.shuffle.partitioner = PartitionerKind::kHash;
  const auto reference = FanoutJob(sharded);
  EXPECT_EQ(run.outputs, reference.outputs);
  EXPECT_EQ(m.shard_pairs, reference.metrics.rounds[0].shard_pairs);
  EXPECT_EQ(m.partition_skew_ratio,
            reference.metrics.rounds[0].partition_skew_ratio);
}

TEST(ExternalShufflePipeline, BackstopReachesEveryRoundAndReports) {
  // The execution-wide budget reaches both rounds of a plan; each round's
  // estimated intermediate exceeds it, so both spill.
  ExecutionOptions options;
  options.pipeline.shuffle.memory_budget_bytes = 1 << 10;
  std::vector<int> inputs(4000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto sum = [](const int& key, auto values,
                std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (auto v : values) total += v;
    out.emplace_back(key, total);
  };
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, int>(
              [](const int& x, Emitter<int, int>& e) { e.Emit(x % 100, x); })
          .ReduceByKey<std::pair<int, std::int64_t>>(sum)
          .Map<int, std::int64_t>([](const std::pair<int, std::int64_t>& p,
                                     Emitter<int, std::int64_t>& e) {
            e.Emit(p.first % 2, p.second);
          })
          .ReduceByKey<std::pair<int, std::int64_t>>(sum)
          .Execute(options);
  ASSERT_EQ(run.outputs.size(), 2u);

  const PipelineMetrics& m = run.metrics;
  ASSERT_EQ(m.rounds.size(), 2u);
  EXPECT_EQ(m.rounds[1].num_inputs, 100u);
  EXPECT_TRUE(m.rounds[0].external_shuffle());
  EXPECT_TRUE(m.rounds[1].external_shuffle());
  EXPECT_GT(m.rounds[0].spill_runs, 0u);
  EXPECT_GT(m.total_spill_runs(), 0u);
  EXPECT_GT(m.total_spill_bytes(), 0u);
  EXPECT_GE(m.total_merge_passes(), 2u);
  EXPECT_NE(m.ToString().find("spill runs="), std::string::npos);

  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q; };
  recipe.num_inputs = 4000;
  recipe.num_outputs = 100;
  const auto reports = CompareToLowerBound(m, recipe);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].metrics.external_shuffle());
  EXPECT_EQ(reports[0].metrics.spill_runs, m.rounds[0].spill_runs);
  EXPECT_EQ(reports[0].metrics.spill_bytes_written,
            m.rounds[0].spill_bytes_written);
  EXPECT_NE(ToString(reports).find("spill_runs="), std::string::npos);
}

// ------------------------------------------ family drivers end to end

TEST(ExternalShuffleEndToEnd, HammingSimilarityJoinUnderTightBudget) {
  // The acceptance bar: the hamming driver completes with a budget below
  // 25% of the intermediate data size, produces byte-identical results to
  // the in-memory sharded shuffle, and reports nonzero spill counters.
  const int b = 12, k = 4, d = 1;
  const auto strings = hamming::AllStrings(b);
  const auto in_memory =
      hamming::SplittingSimilarityJoin(strings, b, k, d, {});
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  JobOptions options;
  options.shuffle.memory_budget_bytes = in_memory->metrics.bytes_shuffled / 5;
  ASSERT_GT(options.shuffle.memory_budget_bytes, 0u);
  const auto external =
      hamming::SplittingSimilarityJoin(strings, b, k, d, options);
  ASSERT_TRUE(external.ok()) << external.status();

  EXPECT_EQ(external->pairs, in_memory->pairs);
  EXPECT_EQ(external->metrics.pairs_shuffled,
            in_memory->metrics.pairs_shuffled);
  EXPECT_EQ(external->metrics.bytes_shuffled,
            in_memory->metrics.bytes_shuffled);
  EXPECT_EQ(external->metrics.num_reducers, in_memory->metrics.num_reducers);
  EXPECT_EQ(external->metrics.max_reducer_input,
            in_memory->metrics.max_reducer_input);
  EXPECT_TRUE(external->metrics.external_shuffle());
  EXPECT_GT(external->metrics.spill_runs, 0u);
  EXPECT_GT(external->metrics.spill_bytes_written, 0u);
  // The budget really was <25% of what crossed the shuffle.
  EXPECT_LT(4 * options.shuffle.memory_budget_bytes,
            in_memory->metrics.bytes_shuffled);
}

TEST(ExternalShuffleEndToEnd, JoinAggregateUnderTightBudget) {
  const join::Query query = join::ChainQuery(2);
  const auto relations = join::ZipfRelationsForQuery(
      query, /*size=*/800, /*domain=*/40, /*exponent=*/0.8, /*seed=*/5);
  std::vector<const join::Relation*> ptrs;
  for (const auto& r : relations) ptrs.push_back(&r);
  const std::vector<int> shares{1, 4, 1};

  const auto in_memory = join::HyperCubeJoinAggregate(
      query, ptrs, shares, /*group_attr=*/0, /*sum_attr=*/2,
      /*pre_aggregate=*/false, /*seed=*/3, {});
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  JobOptions options;
  options.shuffle.memory_budget_bytes = in_memory->metrics.total_bytes() / 5;
  ASSERT_GT(options.shuffle.memory_budget_bytes, 0u);
  const auto external = join::HyperCubeJoinAggregate(
      query, ptrs, shares, 0, 2, false, 3, options);
  ASSERT_TRUE(external.ok()) << external.status();

  EXPECT_EQ(external->sums, in_memory->sums);
  EXPECT_EQ(external->metrics.total_pairs(), in_memory->metrics.total_pairs());
  EXPECT_EQ(external->metrics.total_bytes(), in_memory->metrics.total_bytes());
  EXPECT_GT(external->metrics.total_spill_runs(), 0u);
  EXPECT_GT(external->metrics.total_spill_bytes(), 0u);
  EXPECT_LT(4 * options.shuffle.memory_budget_bytes,
            in_memory->metrics.total_bytes());
}

TEST(ExternalShuffleEndToEnd, MatmulOnePhaseUnderBudget) {
  const int n = 24, tile = 6;
  matmul::Matrix r(n, n), s(n, n);
  common::SplitMix64 rng(11);
  r.FillRandom(rng);
  s.FillRandom(rng);
  const auto in_memory = matmul::MultiplyOnePhase(r, s, tile, {});
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  JobOptions options;
  options.shuffle.memory_budget_bytes = in_memory->metrics.bytes_shuffled / 5;
  const auto external = matmul::MultiplyOnePhase(r, s, tile, options);
  ASSERT_TRUE(external.ok()) << external.status();
  EXPECT_EQ(external->product.MaxAbsDiff(in_memory->product), 0.0);
  EXPECT_EQ(external->metrics.pairs_shuffled,
            in_memory->metrics.pairs_shuffled);
  EXPECT_GT(external->metrics.spill_runs, 0u);
}

TEST(ExternalShuffleEndToEnd, SampleGraphUnderBudget) {
  const graph::Graph data = graph::ZipfGraph(/*n=*/300, /*m=*/1500,
                                             /*exponent=*/0.7, /*seed=*/17);
  const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});  // triangle
  const auto in_memory =
      graph::MRSampleGraphInstances(data, pattern, /*k=*/6, /*seed=*/2, {});

  JobOptions options;
  options.shuffle.memory_budget_bytes = in_memory.metrics.bytes_shuffled / 5;
  const auto external =
      graph::MRSampleGraphInstances(data, pattern, 6, 2, options);
  EXPECT_EQ(external.instance_count, in_memory.instance_count);
  EXPECT_EQ(external.metrics.pairs_shuffled,
            in_memory.metrics.pairs_shuffled);
  EXPECT_GT(external.metrics.spill_runs, 0u);
}

}  // namespace
}  // namespace mrcost::engine
