// The lazy typed dataflow Plan API (src/engine/plan.h): building is free
// of execution, Estimate prices rounds against the Section 2.4 recipe
// before any data moves, Explain narrates the physical plan, and Execute
// is byte-identical for every shuffle strategy — verified here on a
// synthetic round (each strategy vs a one-shard run, metrics compared
// field by field) and on all four problem-family drivers across
// {one shard, sharded, external} x seeds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/schema_stats.h"
#include "src/dist/registry.h"
#include "src/engine/plan.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/sample_graph_mr.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/schemas.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/query.h"
#include "src/join/relation.h"
#include "src/join/two_round.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"
#include "src/storage/serde.h"

namespace mrcost::engine {
namespace {

/// A synthetic recipe accepting any (q, r); only the bound math matters.
core::Recipe SyntheticRecipe(double num_inputs, double num_outputs) {
  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q * q; };
  recipe.num_inputs = num_inputs;
  recipe.num_outputs = num_outputs;
  return recipe;
}

/// The round's communication geometry, which no strategy may change.
void ExpectSameShuffle(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.pairs_shuffled, b.pairs_shuffled);
  EXPECT_EQ(a.pairs_before_combine, b.pairs_before_combine);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.num_reducers, b.num_reducers);
  EXPECT_EQ(a.max_reducer_input, b.max_reducer_input);
  EXPECT_EQ(a.num_outputs, b.num_outputs);
}

void ExpectSameMetrics(const JobMetrics& a, const JobMetrics& b) {
  ExpectSameShuffle(a, b);
  EXPECT_EQ(a.spill_runs, b.spill_runs);
  EXPECT_EQ(a.spill_bytes_written, b.spill_bytes_written);
  EXPECT_EQ(a.merge_passes, b.merge_passes);
}

// --------------------------------------------------------------- laziness

TEST(Plan, BuildingRunsNothing) {
  static std::atomic<int> map_calls{0};
  map_calls = 0;
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  Plan plan;
  auto counts =
      plan.Source(std::move(inputs))
          .Map<int, int>([](const int& x, Emitter<int, int>& emitter) {
            ++map_calls;
            emitter.Emit(x % 10, x);
          })
          .ReduceByKey<std::pair<int, std::size_t>>(
              [](const int& key, GroupView<int> values,
                 std::vector<std::pair<int, std::size_t>>& out) {
                out.emplace_back(key, values.size());
              });
  EXPECT_EQ(map_calls.load(), 0);  // nothing ran
  EXPECT_EQ(plan.num_rounds(), 1u);

  // Estimate with fully declared hints (r and reducer count) prices the
  // round without executing the map function at all.
  StageEstimate hint;
  hint.replication = 1;
  hint.num_reducers = 10;
  Plan hinted;
  std::vector<int> inputs2(100);
  std::iota(inputs2.begin(), inputs2.end(), 0);
  auto hinted_ds =
      hinted.Source(std::move(inputs2))
          .Map<int, int>([](const int& x, Emitter<int, int>& e) {
            ++map_calls;
            e.Emit(x % 10, x);
          })
          .WithEstimate(hint)
          .ReduceByKey<std::pair<int, std::size_t>>(
              [](const int& key, GroupView<int> values,
                 std::vector<std::pair<int, std::size_t>>& out) {
                out.emplace_back(key, values.size());
              });
  (void)hinted_ds;
  const auto hinted_estimate =
      hinted.Estimate(SyntheticRecipe(100, 10));
  EXPECT_EQ(map_calls.load(), 0);  // declared stages are never sampled
  ASSERT_EQ(hinted_estimate.rounds.size(), 1u);
  EXPECT_EQ(hinted_estimate.rounds[0].source, PredictionSource::kDeclared);
  EXPECT_DOUBLE_EQ(hinted_estimate.rounds[0].predicted_q, 10.0);

  auto run = counts.Execute();
  // The strategy chooser samples the map function before the round runs,
  // so the map executes at least once per input (sampling included).
  EXPECT_GE(map_calls.load(), 100);
  EXPECT_EQ(run.outputs.size(), 10u);
  ASSERT_EQ(run.metrics.rounds.size(), 1u);
  EXPECT_EQ(run.metrics.rounds[0].pairs_shuffled, 100u);
  ASSERT_EQ(run.physical_rounds.size(), 1u);
}

// --------------------------------------- strategy equivalence vs serial

/// The shared synthetic workload: colliding keys, order-sensitive fold.
struct SyntheticJob {
  std::vector<int> inputs;
  SyntheticJob() : inputs(5000) {
    std::iota(inputs.begin(), inputs.end(), 0);
  }
  static void MapFn(const int& x, Emitter<int, std::uint64_t>& emitter) {
    emitter.Emit(x % 97, static_cast<std::uint64_t>(x));
    emitter.Emit(x % 251, static_cast<std::uint64_t>(x) + 1);
  }
  static void ReduceFn(const int& key,
                       GroupView<std::uint64_t> values,
                       std::vector<std::pair<int, std::uint64_t>>& out) {
    std::uint64_t acc = static_cast<std::uint64_t>(key);
    for (std::uint64_t v : values) acc = acc * 31 + v;
    out.emplace_back(key, acc);
  }
  /// The job as a one-round plan executed under `options`.
  ExecutionResult<std::pair<int, std::uint64_t>> Run(
      const JobOptions& options) const {
    return Plan()
        .Source(inputs)
        .Map<int, std::uint64_t>(MapFn)
        .ReduceByKey<std::pair<int, std::uint64_t>>(ReduceFn)
        .Execute(ExecutionOptions(options));
  }
};

/// Two threads forcing `strategy` over `shards` shards (0 = auto), with a
/// budget small enough to spill when the strategy is external.
JobOptions ForcedStrategy(ShuffleStrategy strategy, std::size_t shards = 0) {
  JobOptions options;
  options.num_threads = 2;
  options.num_shards = shards;
  options.shuffle.strategy = strategy;
  if (strategy == ShuffleStrategy::kExternal) {
    options.shuffle.memory_budget_bytes = 1 << 12;
  }
  return options;
}

TEST(Plan, EveryStrategyMatchesOneShard) {
  SyntheticJob job;
  const auto serial = job.Run(ForcedStrategy(ShuffleStrategy::kSharded, 1));
  ASSERT_EQ(serial.physical_rounds.size(), 1u);
  EXPECT_EQ(serial.physical_rounds[0].shards, 1u);
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSharded, ShuffleStrategy::kExternal}) {
    SCOPED_TRACE(ToString(strategy));
    const auto run = job.Run(ForcedStrategy(strategy));
    EXPECT_EQ(run.outputs, serial.outputs);  // byte-identical
    ASSERT_EQ(run.metrics.rounds.size(), 1u);
    ExpectSameShuffle(run.metrics.rounds[0], serial.metrics.rounds[0]);
    ASSERT_EQ(run.physical_rounds.size(), 1u);
    EXPECT_EQ(run.physical_rounds[0].strategy, strategy);
    EXPECT_EQ(run.metrics.rounds[0].external_shuffle(),
              strategy == ShuffleStrategy::kExternal);
  }
}

TEST(Plan, CombinedRoundMatchesOneShard) {
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
  auto run_with = [&](ShuffleStrategy strategy, std::size_t shards = 0) {
    Plan plan;
    return plan.Source(inputs)
        .Map<int, std::int64_t>(map_fn)
        .CombineByKey(combine_fn)
        .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
        .Execute(ExecutionOptions(ForcedStrategy(strategy, shards)));
  };
  const auto serial = run_with(ShuffleStrategy::kSharded, 1);
  ASSERT_EQ(serial.metrics.rounds.size(), 1u);
  EXPECT_LT(serial.metrics.rounds[0].pairs_shuffled,
            serial.metrics.rounds[0].pairs_before_combine);
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSharded, ShuffleStrategy::kExternal}) {
    SCOPED_TRACE(ToString(strategy));
    const auto run = run_with(strategy);
    EXPECT_EQ(run.outputs, serial.outputs);
    ASSERT_EQ(run.metrics.rounds.size(), 1u);
    ExpectSameShuffle(run.metrics.rounds[0], serial.metrics.rounds[0]);
  }
}

TEST(Plan, IntermediateDatasetExecutesOnlyItsAncestry) {
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  Plan plan;
  auto round1 = plan.Source(std::move(inputs))
                    .Map<int, int>([](const int& x, Emitter<int, int>& e) {
                      e.Emit(x % 50, x);
                    })
                    .ReduceByKey<std::pair<int, std::int64_t>>(
                        [](const int& key, GroupView<int> values,
                           std::vector<std::pair<int, std::int64_t>>& out) {
                          std::int64_t sum = 0;
                          for (int v : values) sum += v;
                          out.emplace_back(key, sum);
                        });
  auto round2 =
      round1
          .Map<int, std::int64_t>(
              [](const std::pair<int, std::int64_t>& p,
                 Emitter<int, std::int64_t>& e) { e.Emit(p.first % 5, p.second); })
          .ReduceByKey<std::pair<int, std::int64_t>>(
              [](const int& key, GroupView<std::int64_t> values,
                 std::vector<std::pair<int, std::int64_t>>& out) {
                std::int64_t sum = 0;
                for (std::int64_t v : values) sum += v;
                out.emplace_back(key, sum);
              });
  EXPECT_EQ(plan.num_rounds(), 2u);

  auto first = round1.Execute();
  EXPECT_EQ(first.metrics.rounds.size(), 1u);  // round 2 did not run
  EXPECT_EQ(first.outputs.size(), 50u);

  auto both = round2.Execute();
  EXPECT_EQ(both.metrics.rounds.size(), 2u);
  EXPECT_EQ(both.outputs.size(), 5u);
}

// ------------------------------------------------ per-round strategy chooser

TEST(Plan, ChooserSkipsSpillWhenRoundFitsBudget) {
  // A budget alone does not force the external shuffle: the chooser only
  // goes external when the round's estimated intermediate bytes exceed
  // it — same outputs, no spill metrics.
  SyntheticJob job;
  JobOptions options;
  options.shuffle.memory_budget_bytes = 1 << 30;  // far above the data

  const auto run = job.Run(options);
  JobOptions serial;
  serial.num_shards = 1;
  EXPECT_EQ(run.outputs, job.Run(serial).outputs);
  EXPECT_FALSE(run.metrics.rounds[0].external_shuffle());
  EXPECT_EQ(run.metrics.rounds[0].spill_runs, 0u);
  ASSERT_EQ(run.physical_rounds.size(), 1u);
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
}

TEST(Plan, ChooserDecidesPerRoundNotPerPipeline) {
  // A two-round plan whose round 1 is far over budget and whose round 2 is
  // far under it: only round 1 pays the spill path.
  std::vector<int> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);
  PipelineOptions pipeline_options;
  // Round 1's intermediate is ~940 KiB, round 2's ~64 KiB; the budget sits
  // between them with room for the chooser's 2x in-memory headroom.
  pipeline_options.shuffle.memory_budget_bytes = 384 << 10;

  Plan plan;
  auto round1 = plan.Source(std::move(inputs))
                    .Map<std::uint64_t, std::uint64_t>(
                        [](const int& x,
                           Emitter<std::uint64_t, std::uint64_t>& e) {
                          const auto v = static_cast<std::uint64_t>(x);
                          e.Emit(v % 4096, v);
                          e.Emit((v * 31) % 4096, v + 1);
                          e.Emit((v * 131) % 4096, v + 2);
                        },
                        "big fan-out")
                    .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
                        [](const std::uint64_t& key,
                           GroupView<std::uint64_t> values,
                           std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>>& out) {
                          std::uint64_t sum = 0;
                          for (std::uint64_t v : values) sum += v;
                          out.emplace_back(key, sum);
                        });
  auto round2 =
      round1
          .Map<std::uint64_t, std::uint64_t>(
              [](const std::pair<std::uint64_t, std::uint64_t>& p,
                 Emitter<std::uint64_t, std::uint64_t>& e) {
                e.Emit(p.first % 8, p.second);
              },
              "tiny regroup")
          .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
              [](const std::uint64_t& key,
                 GroupView<std::uint64_t> values,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
                std::uint64_t sum = 0;
                for (std::uint64_t v : values) sum += v;
                out.emplace_back(key, sum);
              });

  auto run = round2.Execute(ExecutionOptions(pipeline_options));
  ASSERT_EQ(run.metrics.rounds.size(), 2u);
  EXPECT_TRUE(run.metrics.rounds[0].external_shuffle());
  EXPECT_GT(run.metrics.rounds[0].spill_runs, 0u);
  EXPECT_FALSE(run.metrics.rounds[1].external_shuffle());
  ASSERT_EQ(run.physical_rounds.size(), 2u);
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kExternal);
  EXPECT_NE(run.physical_rounds[1].strategy, ShuffleStrategy::kExternal);

  // Byte-identical to the no-budget run.
  auto reference = round2.Execute();
  EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(Plan, SmallRoundRunsOneShardUnlessShardsRequested) {
  // A tiny round is sharded like any other, and the shard count gives it
  // one shard; an explicit num_shards request gets its shards, with the
  // same outputs.
  std::vector<int> inputs(200);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto build = [&](Plan& plan) {
    return plan.Source(inputs)
        .Map<int, int>([](const int& x, Emitter<int, int>& e) {
          e.Emit(x % 10, x);
        })
        .ReduceByKey<std::pair<int, std::size_t>>(
            [](const int& key, GroupView<int> values,
               std::vector<std::pair<int, std::size_t>>& out) {
              out.emplace_back(key, values.size());
            });
  };
  JobOptions four_threads;
  four_threads.num_threads = 4;
  Plan tiny;
  auto serial_run = build(tiny).Execute(ExecutionOptions(four_threads));
  ASSERT_EQ(serial_run.physical_rounds.size(), 1u);
  EXPECT_EQ(serial_run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
  EXPECT_EQ(serial_run.physical_rounds[0].shards, 1u);

  JobOptions options = four_threads;
  options.num_shards = 4;
  Plan sharded;
  auto sharded_run = build(sharded).Execute(ExecutionOptions(options));
  ASSERT_EQ(sharded_run.physical_rounds.size(), 1u);
  EXPECT_EQ(sharded_run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
  EXPECT_EQ(sharded_run.physical_rounds[0].shards, 4u);
  EXPECT_EQ(sharded_run.outputs, serial_run.outputs);
}

TEST(Plan, SpeculativeBackupRaceStaysByteIdentical) {
  // One hot key's reducer blocks until a second call of it arrives, which
  // only a speculative backup of its shard task can make; the backup and
  // the original then race, and the plan's outputs must equal the run
  // without speculation.
  std::vector<std::uint64_t> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);
  using Out = std::pair<std::uint64_t, std::uint64_t>;
  auto map_fn = [](const std::uint64_t& x,
                   Emitter<std::uint64_t, std::uint64_t>& emitter) {
    emitter.Emit(x % 193, x);
    emitter.Emit(x % 677, x * 3 + 1);
  };
  auto fold = [](const std::uint64_t& key, GroupView<std::uint64_t> values,
                 std::vector<Out>& out) {
    std::uint64_t acc = key;
    for (std::uint64_t v : values) acc = acc * 1099511628211ULL + v;
    out.emplace_back(key, acc);
  };
  constexpr std::uint64_t kHot = 5;
  std::atomic<int> hot_calls{0};
  auto blocking = [&](const std::uint64_t& key,
                      GroupView<std::uint64_t> values, std::vector<Out>& out) {
    if (key == kHot) {
      const int call = hot_calls.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (call == 0 && hot_calls.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    fold(key, values, out);
  };

  ExecutionOptions options;
  options.pipeline.num_threads = 4;
  options.pipeline.round_defaults.num_shards = 8;
  const auto reference = Plan()
                             .Source(inputs)
                             .Map<std::uint64_t, std::uint64_t>(map_fn)
                             .ReduceByKey<Out>(fold)
                             .Execute(options);

  SpeculationConfig& speculation = options.pipeline.round_defaults.speculation;
  speculation.enabled = true;
  speculation.slowdown_factor = 1.0;
  speculation.min_completed = 1;
  speculation.min_task_ms = 0.0;
  const auto run = Plan()
                       .Source(inputs)
                       .Map<std::uint64_t, std::uint64_t>(map_fn)
                       .ReduceByKey<Out>(blocking)
                       .Execute(options);
  ASSERT_EQ(run.metrics.rounds.size(), 1u);
  EXPECT_GT(run.metrics.rounds[0].speculative_launched, 0u);
  EXPECT_EQ(hot_calls.load(), 2);
  EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(Plan, ExplicitStrategyBypassesChooser) {
  SyntheticJob job;
  JobOptions options;
  options.shuffle.strategy = ShuffleStrategy::kExternal;
  options.shuffle.memory_budget_bytes = 1 << 30;  // would fit in memory
  const auto run = job.Run(options);
  EXPECT_TRUE(run.metrics.rounds[0].external_shuffle());
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kExternal);
}

// --------------------------------------------------------- Estimate/Explain

TEST(Plan, EstimateBeforeExecutionAndPropagation) {
  // Two-phase matmul: round 1's estimate is fully declared, round 2's
  // input count must be propagated (inputs_known == false) before
  // execution and read off the materialized intermediate after.
  const int n = 12, s_rows = 4, t_js = 2;
  matmul::Matrix r(n, n), s(n, n);
  common::SplitMix64 rng(7);
  r.FillRandom(rng);
  s.FillRandom(rng);
  auto plan = matmul::BuildMultiplyTwoPhasePlan(r, s, s_rows, t_js);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const core::Recipe recipe = matmul::MatMulRecipe(n);
  const auto before = plan->plan.Estimate(recipe);
  ASSERT_EQ(before.rounds.size(), 2u);
  EXPECT_TRUE(before.rounds[0].inputs_known);
  EXPECT_DOUBLE_EQ(before.rounds[0].num_inputs, 2.0 * n * n);
  // Section 6.3: r = n/s, q = 2st.
  EXPECT_DOUBLE_EQ(before.rounds[0].predicted_r, double(n) / s_rows);
  EXPECT_DOUBLE_EQ(before.rounds[0].predicted_q, 2.0 * s_rows * t_js);
  EXPECT_GE(before.rounds[0].lower_bound_r, 0.0);
  // Round 2: propagated input count n^3/t, one pair each, q = n/t.
  EXPECT_FALSE(before.rounds[1].inputs_known);
  EXPECT_DOUBLE_EQ(before.rounds[1].num_inputs,
                   double(n) * n * n / t_js);
  EXPECT_DOUBLE_EQ(before.rounds[1].predicted_q, double(n) / t_js);
  EXPECT_NE(before.ToString().find("propagated"), std::string::npos);
  EXPECT_GT(before.total_predicted_pairs(), 0.0);

  // Execute, then re-estimate: round 2's input is now materialized.
  auto run = plan->sums.Execute();
  const auto after = plan->plan.Estimate(recipe);
  EXPECT_TRUE(after.rounds[1].inputs_known);
  EXPECT_DOUBLE_EQ(after.rounds[1].num_inputs,
                   static_cast<double>(run.metrics.rounds[1].num_inputs));
}

TEST(Plan, EstimateAgreesWithRealizedOnTableWorkloads) {
  // The acceptance bar: Estimate's predicted (r, q) matches the realized
  // JobMetrics on the paper-table workloads, before execution.

  // Hamming splitting (Tables 1/2 geometry): b = 12, k = 3, d = 1 on the
  // full domain — r = C(3,1) = 3, q = 2^4 = 16, exactly on the bound.
  {
    const int b = 12, k = 3, d = 1;
    auto plan = hamming::BuildSplittingSimilarityJoinPlan(
        hamming::AllStrings(b), b, k, d);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const auto estimate = plan->plan.Estimate(hamming::Hamming1Recipe(b));
    ASSERT_EQ(estimate.rounds.size(), 1u);
    const auto run = plan->pairs.Execute();
    const JobMetrics& realized = run.metrics.rounds[0];
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_r,
                     realized.replication_rate());
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_q,
                     static_cast<double>(realized.max_reducer_input));
    // The splitting algorithm is exactly optimal at its q, and its fully
    // declared geometry is priced without sampling the map function.
    EXPECT_NEAR(estimate.rounds[0].optimality_ratio, 1.0, 1e-9);
    EXPECT_EQ(estimate.rounds[0].source, PredictionSource::kDeclared);
  }

  // One-phase matmul (Section 6.2): r = n/s, q = 2sn.
  {
    const int n = 24, tile = 6;
    matmul::Matrix r(n, n), s(n, n);
    common::SplitMix64 rng(3);
    r.FillRandom(rng);
    s.FillRandom(rng);
    auto plan = matmul::BuildMultiplyOnePhasePlan(r, s, tile);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const auto estimate = plan->plan.Estimate(matmul::MatMulRecipe(n));
    const auto run = plan->cells.Execute();
    const JobMetrics& realized = run.metrics.rounds[0];
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_r,
                     realized.replication_rate());
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_q,
                     static_cast<double>(realized.max_reducer_input));
  }

  // HyperCube join: the Shares schema's weighted fan-out.
  {
    const join::Query query = join::ChainQuery(2);
    const auto relations = join::ZipfRelationsForQuery(
        query, /*size=*/500, /*domain=*/40, /*exponent=*/0.5, /*seed=*/9);
    std::vector<const join::Relation*> ptrs;
    for (const auto& rel : relations) ptrs.push_back(&rel);
    const std::vector<int> shares{2, 4, 2};
    auto plan = join::BuildHyperCubeJoinAggregatePlan(
        query, ptrs, shares, /*group_attr=*/0, /*sum_attr=*/2,
        /*pre_aggregate=*/false, /*seed=*/3);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const auto estimate =
        plan->plan.Estimate(SyntheticRecipe(1000, 100));
    ASSERT_EQ(estimate.rounds.size(), 2u);
    const auto run = plan->sums.Execute();
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_r,
                     run.metrics.rounds[0].replication_rate());
  }

  // Sample-graph enumeration: no declared hints — the 1024-input sample
  // covers all 500 edges, and an exhaustive sample of the map function
  // reproduces the realized r and q exactly.
  {
    const graph::Graph data =
        graph::ZipfGraph(/*n=*/120, /*m=*/500, /*exponent=*/0.6, /*seed=*/4);
    const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});
    auto plan = graph::BuildSampleGraphPlan(data, pattern, /*k=*/5,
                                            /*seed=*/11);
    const auto estimate =
        plan.plan.Estimate(SyntheticRecipe(data.num_edges(), 1));
    ASSERT_EQ(estimate.rounds.size(), 1u);
    EXPECT_EQ(estimate.rounds[0].source, PredictionSource::kSampled);
    const auto run = plan.counts.Execute();
    const JobMetrics& realized = run.metrics.rounds[0];
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_r,
                     realized.replication_rate());
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_q,
                     static_cast<double>(realized.max_reducer_input));
    EXPECT_DOUBLE_EQ(estimate.rounds[0].predicted_reducers,
                     static_cast<double>(realized.num_reducers));
  }
}

// ------------------------------------------------------ schema rounds

/// A schema's declarations against its own full input domain [0,
/// num_inputs): replication() and num_reducers() match ComputeSchemaStats,
/// a MapBySchema round over every input id realizes the stats' r, q and
/// reducer count, and Estimate predicts them without sampling. `uniform`
/// schemas load every reducer equally, so the predicted mean load is the
/// max; otherwise it is the stats' mean.
void ExpectSchemaRoundExact(std::shared_ptr<const core::MappingSchema> schema,
                            std::uint64_t num_inputs, bool uniform) {
  SCOPED_TRACE(schema->name());
  const core::SchemaStats stats = core::ComputeSchemaStats(*schema, num_inputs);
  EXPECT_EQ(schema->replication(), stats.replication_rate);
  EXPECT_EQ(schema->num_reducers(), stats.nonempty_reducers);

  std::vector<core::InputId> ids(num_inputs);
  std::iota(ids.begin(), ids.end(), 0);
  Plan plan;
  auto sizes = plan.Source(std::move(ids), "input ids")
                   .MapBySchema<std::uint64_t>(
                       schema, [](const core::InputId& id) { return id; },
                       "schema round")
                   .ReduceByKey<std::size_t>(
                       [](const std::uint64_t&, GroupView<core::InputId> group,
                          std::vector<std::size_t>& out) {
                         out.push_back(group.size());
                       });
  const auto estimate =
      plan.Estimate(SyntheticRecipe(static_cast<double>(num_inputs), 1));
  const auto run = sizes.Execute();
  const JobMetrics& realized = run.metrics.rounds[0];
  EXPECT_EQ(realized.replication_rate(), stats.replication_rate);
  EXPECT_EQ(realized.max_reducer_input, stats.max_reducer_load);
  EXPECT_EQ(realized.num_reducers, stats.nonempty_reducers);

  ASSERT_EQ(estimate.rounds.size(), 1u);
  const RoundEstimate& predicted = estimate.rounds[0];
  EXPECT_EQ(predicted.source, PredictionSource::kDeclared);
  EXPECT_EQ(predicted.predicted_r, stats.replication_rate);
  EXPECT_EQ(predicted.predicted_reducers,
            static_cast<double>(stats.nonempty_reducers));
  EXPECT_EQ(predicted.predicted_q,
            uniform ? static_cast<double>(stats.max_reducer_load)
                    : static_cast<double>(stats.total_assignments) /
                          static_cast<double>(stats.num_reducers));
}

TEST(PlanSchemaRound, DeclaringSchemasAreExactOnTheirFullDomain) {
  for (const auto& [b, k, d] : {std::tuple{8, 4, 2}, std::tuple{9, 3, 1}}) {
    auto splitting = hamming::SplittingDistanceDSchema::Make(b, k, d);
    ASSERT_TRUE(splitting.ok()) << splitting.status();
    ExpectSchemaRoundExact(
        std::make_shared<hamming::SplittingDistanceDSchema>(*splitting),
        std::uint64_t{1} << b, /*uniform=*/true);
  }
  const int n = 8;
  auto one_phase = matmul::OnePhaseSchema::Make(n, 2);
  ASSERT_TRUE(one_phase.ok());
  ExpectSchemaRoundExact(
      std::make_shared<matmul::OnePhaseSchema>(*one_phase), 2 * n * n,
      /*uniform=*/true);
  auto cube = matmul::TwoPhaseCubeSchema::Make(n, 4, 2);
  ASSERT_TRUE(cube.ok());
  ExpectSchemaRoundExact(std::make_shared<matmul::TwoPhaseCubeSchema>(*cube),
                         2 * n * n, /*uniform=*/true);
  // Ball-2 over all 2^b strings: each center holds itself and its b
  // neighbors.
  const int ball_b = 8;
  ExpectSchemaRoundExact(
      std::make_shared<hamming::BallSchema>(ball_b, /*include_center=*/true),
      std::uint64_t{1} << ball_b, /*uniform=*/true);
  // Graph schemas over the complete graph's C(n,2) edges. Triangle
  // reducers hold different edge counts ({i,i,i} only edges inside bucket
  // i), and so do two-path bucket reducers (bucket sizes differ), so their
  // estimated q is the mean load; every node reducer holds n-1 edges.
  const graph::NodeId nodes = 30;
  const std::uint64_t edges = std::uint64_t{nodes} * (nodes - 1) / 2;
  const graph::NodeBucketer bucketer(3, 5);
  ExpectSchemaRoundExact(
      std::make_shared<graph::TrianglePartitionSchema>(nodes, bucketer),
      edges, /*uniform=*/false);
  ExpectSchemaRoundExact(std::make_shared<graph::TwoPathNodeSchema>(nodes),
                         edges, /*uniform=*/true);
  ExpectSchemaRoundExact(
      std::make_shared<graph::TwoPathBucketSchema>(nodes, bucketer), edges,
      /*uniform=*/false);
}

TEST(Plan, EstimatePropagatesPerProducerOnBranchedPlans) {
  // Two rounds consuming the same intermediate: each must read its own
  // producer's predicted output count, not whatever round was estimated
  // last (the single-carried-scalar failure mode).
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& e) { e.Emit(x, x); };
  auto reduce_fn = [](const int& key, GroupView<int>,
                      std::vector<int>& out) { out.push_back(key); };

  StageEstimate hint_a;
  hint_a.replication = 2;
  hint_a.num_reducers = 10;
  hint_a.outputs_per_reducer = 3;  // a predicts 30 outputs
  StageEstimate hint_big;
  hint_big.replication = 1;
  hint_big.num_reducers = 5;
  hint_big.outputs_per_reducer = 100;  // c predicts 500 outputs

  Plan plan;
  auto a = plan.Source(std::move(inputs))
               .Map<int, int>(map_fn, "a")
               .WithEstimate(hint_a)
               .ReduceByKey<int>(reduce_fn);
  auto c = a.Map<int, int>(map_fn, "c")
               .WithEstimate(hint_big)
               .ReduceByKey<int>(reduce_fn);
  auto d = a.Map<int, int>(map_fn, "d")
               .WithEstimate(hint_a)
               .ReduceByKey<int>(reduce_fn);
  (void)c;
  (void)d;

  const auto estimate = plan.Estimate(SyntheticRecipe(100, 10));
  ASSERT_EQ(estimate.rounds.size(), 3u);
  // Both branches read a's predicted 30 outputs, d unaffected by c.
  EXPECT_DOUBLE_EQ(estimate.rounds[1].num_inputs, 30.0);
  EXPECT_DOUBLE_EQ(estimate.rounds[2].num_inputs, 30.0);
}

TEST(Plan, PlannedStrategyMatchesExecuteChooser) {
  // A fully declared stage with a budget: the planned_strategy annotation
  // must apply the same bytes-vs-budget rule the Execute chooser does
  // (sampling for bytes when none are declared), not blanket-report
  // external just because a budget is set.
  const int b = 12, k = 3, d = 1;
  auto plan = hamming::BuildSplittingSimilarityJoinPlan(
      hamming::AllStrings(b), b, k, d);
  ASSERT_TRUE(plan.ok());

  ExecutionOptions roomy;
  roomy.pipeline.shuffle.memory_budget_bytes = 1 << 30;  // far above ~192 KiB
  const auto fits = plan->plan.Estimate(hamming::Hamming1Recipe(b), roomy);
  EXPECT_EQ(fits.rounds[0].planned_strategy, ShuffleStrategy::kSharded);

  ExecutionOptions tight;
  tight.pipeline.shuffle.memory_budget_bytes = 1 << 10;  // far below
  const auto spills = plan->plan.Estimate(hamming::Hamming1Recipe(b), tight);
  EXPECT_EQ(spills.rounds[0].planned_strategy, ShuffleStrategy::kExternal);

  // And Execute agrees with the roomy annotation: no spill.
  auto run = plan->pairs.Execute(roomy);
  ASSERT_EQ(run.physical_rounds.size(), 1u);
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
}

TEST(Plan, EstimatePlansTheStrategyExecuteRuns) {
  // Estimate resolves each round with the options Execute runs it under:
  // round defaults (an explicit shard count) and the execution-wide
  // shuffle budget reach the planned strategy as they reach the physical
  // one.
  const int b = 10, k = 2, d = 1;
  std::vector<std::pair<std::string, ExecutionOptions>> settings(2);
  settings[0].first = "num_shards=4";
  settings[0].second.pipeline.round_defaults.num_shards = 4;
  settings[1].first = "1 KiB pipeline budget";
  settings[1].second.pipeline.shuffle.memory_budget_bytes = 1 << 10;
  for (auto& [name, options] : settings) {
    SCOPED_TRACE(name);
    options.pipeline.num_threads = 4;
    auto plan = hamming::BuildSplittingSimilarityJoinPlan(
        hamming::AllStrings(b), b, k, d);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const PlanEstimate estimate =
        plan->plan.Estimate(hamming::Hamming1Recipe(b), options);
    const auto run = plan->pairs.Execute(options);
    ASSERT_EQ(estimate.rounds.size(), 1u);
    ASSERT_EQ(run.physical_rounds.size(), 1u);
    EXPECT_EQ(estimate.rounds[0].planned_strategy,
              run.physical_rounds[0].strategy);
  }
}

TEST(Plan, EstimateLabelsWhereEachPredictionCameFrom) {
  // A declared round, a round sampled over its materialized input, and a
  // round over an unmaterialized input that declares nothing: its r = 1
  // and one reducer per input are assumptions, and ToString says so.
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& e) { e.Emit(x % 7, x); };
  auto reduce_fn = [](const int& key, GroupView<int>, std::vector<int>& out) {
    out.push_back(key);
  };
  StageEstimate hint;
  hint.replication = 1;
  hint.num_reducers = 7;
  Plan plan;
  auto source = plan.Source(std::move(inputs));
  auto declared = source.Map<int, int>(map_fn, "declared")
                      .WithEstimate(hint)
                      .ReduceByKey<int>(reduce_fn);
  auto assumed =
      declared.Map<int, int>(map_fn, "assumed").ReduceByKey<int>(reduce_fn);
  auto sampled =
      source.Map<int, int>(map_fn, "sampled").ReduceByKey<int>(reduce_fn);
  (void)assumed;
  (void)sampled;

  const PlanEstimate estimate = plan.Estimate(SyntheticRecipe(100, 7));
  ASSERT_EQ(estimate.rounds.size(), 3u);
  EXPECT_EQ(estimate.rounds[0].source, PredictionSource::kDeclared);
  EXPECT_EQ(estimate.rounds[1].source, PredictionSource::kAssumed);
  EXPECT_EQ(estimate.rounds[1].predicted_r, 1.0);
  EXPECT_EQ(estimate.rounds[1].predicted_reducers,
            estimate.rounds[1].num_inputs);
  EXPECT_EQ(estimate.rounds[2].source, PredictionSource::kSampled);
  std::vector<std::string> lines;
  std::istringstream text(estimate.ToString());
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("'declared'"), std::string::npos);
  EXPECT_NE(lines[0].find("(declared)"), std::string::npos);
  EXPECT_NE(lines[1].find("(assumed)"), std::string::npos);
  EXPECT_NE(lines[2].find("(sampled)"), std::string::npos);
}

TEST(Plan, ExplainNarratesThePhysicalPlan) {
  const int n = 12;
  matmul::Matrix r(n, n), s(n, n);
  common::SplitMix64 rng(5);
  r.FillRandom(rng);
  s.FillRandom(rng);
  auto plan = matmul::BuildMultiplyTwoPhasePlan(r, s, 4, 2);
  ASSERT_TRUE(plan.ok());

  ExecutionOptions options;
  options.pipeline.shuffle.memory_budget_bytes = 1 << 10;
  const std::string text = plan->plan.Explain(options);
  EXPECT_NE(text.find("source 'matrix elements'"), std::string::npos);
  EXPECT_NE(text.find("round 1 'two-phase cubes'"), std::string::npos);
  EXPECT_NE(text.find("round 2"), std::string::npos);
  EXPECT_NE(text.find("external"), std::string::npos);  // over tiny budget
  EXPECT_NE(text.find("memory budget"), std::string::npos);
  // Round 2's input is unmaterialized before execution.
  EXPECT_NE(text.find("chooser decides at run time"), std::string::npos);

  // Explicit strategies are reported as such.
  ExecutionOptions explicit_options;
  explicit_options.pipeline.round_defaults.shuffle.strategy =
      ShuffleStrategy::kSharded;
  const std::string explicit_text = plan->plan.Explain(explicit_options);
  EXPECT_NE(explicit_text.find("sharded (explicit)"), std::string::npos);

  // Explain equals trace: every round Explain resolves prints the
  // physical fields its Round span then carries, on both backends. A
  // round whose input is not materialized yet resolves when it runs.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() /
       "mrcost_plan_test_explain_trace.json")
          .string();
  const std::vector<std::pair<std::string, std::string>> families = {
      {"hamming_splitting", "b=10,k=5,d=1"},
      {"matmul_two_phase", "n=16,s_rows=4,t_js=4,seed=11"},
      {"join_triangle", "tuples=500,domain=32,exponent=0.3,share=2,seed=7"},
      {"graph_sample", "nodes=60,edges=200,k=4,seed=5"}};
  for (const auto& [recipe, args] : families) {
    for (const ExecutionBackend backend :
         {ExecutionBackend::kInProcess, ExecutionBackend::kMultiProcess}) {
      SCOPED_TRACE(recipe + (backend == ExecutionBackend::kMultiProcess
                                 ? " multi_process"
                                 : " in_process"));
      auto family = dist::PlanRegistry::Global().Build(recipe, args);
      ASSERT_TRUE(family.ok()) << family.status();
      ExecutionOptions run_options;
      run_options.backend = backend;
      run_options.pipeline.num_threads = 2;
      std::vector<std::string> explained;
      std::istringstream lines(family->Explain(run_options));
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  physical: ", 0) == 0) {
          explained.push_back(line.substr(12));
        }
      }
      std::remove(trace_path.c_str());
      run_options.trace_out = trace_path;
      family->Execute(run_options);
      std::ifstream in(trace_path);
      std::stringstream buf;
      buf << in.rdbuf();
      auto events = obs::ParseChromeTrace(buf.str());
      ASSERT_TRUE(events.ok()) << events.status();
      std::vector<const obs::TraceEvent*> rounds;
      for (const obs::TraceEvent& e : *events) {
        if (e.name == "Round") rounds.push_back(&e);
      }
      std::sort(rounds.begin(), rounds.end(), [](const auto* a, const auto* b) {
        return a->round < b->round;
      });
      ASSERT_EQ(rounds.size(), explained.size());
      std::size_t resolved = 0;
      for (std::size_t i = 0; i < rounds.size(); ++i) {
        if (explained[i].rfind("chunks=", 0) != 0) continue;
        std::string traced;
        for (const char* key : {"chunks", "shards", "strategy", "partitioner",
                                "fetch_credits"}) {
          for (const obs::TraceArg& arg : rounds[i]->args) {
            if (arg.key != key) continue;
            traced += (traced.empty() ? "" : " ") + arg.key + "=" + arg.value;
          }
        }
        EXPECT_EQ(explained[i], traced) << "round " << i + 1;
        ++resolved;
      }
      EXPECT_GE(resolved, 1u);
    }
  }
  std::remove(trace_path.c_str());
}

// --------------------------------------- family drivers across strategies

/// Per-strategy JobOptions for the family sweeps; tight budget so external
/// really spills.
JobOptions StrategyOptions(ShuffleStrategy strategy) {
  JobOptions options;
  options.shuffle.strategy = strategy;
  if (strategy == ShuffleStrategy::kExternal) {
    options.shuffle.memory_budget_bytes = 1 << 12;
  }
  return options;
}

/// The family sweeps' settings: one shard (every key grouped in one
/// table), then the sharded and external strategies.
std::vector<std::pair<std::string, JobOptions>> StrategySweep() {
  JobOptions one_shard;
  one_shard.num_shards = 1;
  return {{"one shard", one_shard},
          {"sharded", StrategyOptions(ShuffleStrategy::kSharded)},
          {"external", StrategyOptions(ShuffleStrategy::kExternal)}};
}

TEST(PlanFamilies, HammingAcrossStrategiesAndSeeds) {
  for (std::uint64_t seed : {1u, 2u}) {
    const auto strings = hamming::SkewedStrings(
        /*b=*/12, /*n=*/600, /*num_hubs=*/8, /*exponent=*/0.8, seed);
    const auto serial_pairs = hamming::SerialSimilarityJoin(strings, 1);
    const auto reference =
        hamming::SplittingSimilarityJoin(strings, 12, 3, 1, {});
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(reference->pairs, serial_pairs);
    for (const auto& [name, options] : StrategySweep()) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const auto run =
          hamming::SplittingSimilarityJoin(strings, 12, 3, 1, options);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->pairs, reference->pairs);
      EXPECT_EQ(run->metrics.pairs_shuffled,
                reference->metrics.pairs_shuffled);
      EXPECT_EQ(run->metrics.bytes_shuffled,
                reference->metrics.bytes_shuffled);
      EXPECT_EQ(run->metrics.num_reducers, reference->metrics.num_reducers);
      EXPECT_EQ(run->metrics.max_reducer_input,
                reference->metrics.max_reducer_input);
    }
  }
}

TEST(PlanFamilies, JoinAggregateAcrossStrategiesAndSeeds) {
  const join::Query query = join::ChainQuery(2);
  for (std::uint64_t seed : {5u, 6u}) {
    const auto relations = join::ZipfRelationsForQuery(
        query, /*size=*/600, /*domain=*/30, /*exponent=*/0.8, seed);
    std::vector<const join::Relation*> ptrs;
    for (const auto& rel : relations) ptrs.push_back(&rel);
    const std::vector<int> shares{1, 4, 1};
    const auto serial =
        join::SerialJoinAggregate(query, ptrs, /*group_attr=*/0,
                                  /*sum_attr=*/2);
    const auto reference = join::HyperCubeJoinAggregate(
        query, ptrs, shares, 0, 2, /*pre_aggregate=*/false, /*seed=*/3, {});
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(reference->sums, serial);
    for (const auto& [name, options] : StrategySweep()) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const auto run = join::HyperCubeJoinAggregate(query, ptrs, shares, 0,
                                                    2, false, 3, options);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->sums, reference->sums);
      EXPECT_EQ(run->metrics.total_pairs(),
                reference->metrics.total_pairs());
      EXPECT_EQ(run->metrics.total_bytes(),
                reference->metrics.total_bytes());
    }
  }
}

TEST(PlanFamilies, MatmulTwoPhaseAcrossStrategies) {
  const int n = 16;
  matmul::Matrix r(n, n), s(n, n);
  common::SplitMix64 rng(21);
  r.FillRandom(rng);
  s.FillRandom(rng);
  const matmul::Matrix expected = matmul::SerialMultiply(r, s);
  const auto reference = matmul::MultiplyTwoPhase(r, s, 4, 2, {});
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_LT(reference->product.MaxAbsDiff(expected), 1e-9);
  for (const auto& [name, options] : StrategySweep()) {
    SCOPED_TRACE(name);
    const auto run = matmul::MultiplyTwoPhase(r, s, 4, 2, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->product.MaxAbsDiff(reference->product), 0.0);
    EXPECT_EQ(run->metrics.total_pairs(), reference->metrics.total_pairs());
    EXPECT_EQ(run->metrics.total_bytes(), reference->metrics.total_bytes());
  }
}

TEST(PlanFamilies, TwoRoundPlansByteIdenticalToOneShardAcrossStrategiesAndSeeds) {
  // Round 2 of both two-round families maps over the outputs round 1
  // materialized. Under every strategy and seed, the plan's outputs (in
  // first-seen order, unsorted) and each round's shuffle geometry equal
  // the one-shard run's.
  const std::vector<ShuffleStrategy> strategies = {
      ShuffleStrategy::kSharded, ShuffleStrategy::kExternal};
  const auto options = [](ShuffleStrategy strategy) {
    return ExecutionOptions(StrategyOptions(strategy));
  };
  JobOptions one_shard;
  one_shard.num_shards = 1;

  for (std::uint64_t seed : {31u, 32u}) {
    const int n = 16;
    matmul::Matrix r(n, n), s(n, n);
    common::SplitMix64 rng(seed);
    r.FillRandom(rng);
    s.FillRandom(rng);
    auto plan = matmul::BuildMultiplyTwoPhasePlan(r, s, 4, 2);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const auto serial = plan->sums.Execute(ExecutionOptions(one_shard));
    ASSERT_EQ(serial.metrics.rounds.size(), 2u);
    for (ShuffleStrategy strategy : strategies) {
      SCOPED_TRACE(std::string("matmul ") + ToString(strategy) +
                   " seed=" + std::to_string(seed));
      const auto run = plan->sums.Execute(options(strategy));
      EXPECT_EQ(run.outputs, serial.outputs);
      ASSERT_EQ(run.metrics.rounds.size(), 2u);
      for (std::size_t i = 0; i < 2; ++i) {
        ExpectSameShuffle(run.metrics.rounds[i], serial.metrics.rounds[i]);
      }
    }
  }

  const join::Query query = join::ChainQuery(2);
  for (std::uint64_t seed : {41u, 42u}) {
    const auto relations = join::ZipfRelationsForQuery(
        query, /*size=*/500, /*domain=*/30, /*exponent=*/0.7, seed);
    std::vector<const join::Relation*> ptrs;
    for (const auto& rel : relations) ptrs.push_back(&rel);
    const std::vector<int> shares{1, 4, 1};
    auto plan = join::BuildHyperCubeJoinAggregatePlan(
        query, ptrs, shares, /*group_attr=*/0, /*sum_attr=*/2,
        /*pre_aggregate=*/false, /*seed=*/3);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const auto serial = plan->sums.Execute(ExecutionOptions(one_shard));
    ASSERT_EQ(serial.metrics.rounds.size(), 2u);
    for (ShuffleStrategy strategy : strategies) {
      SCOPED_TRACE(std::string("join ") + ToString(strategy) +
                   " seed=" + std::to_string(seed));
      const auto run = plan->sums.Execute(options(strategy));
      EXPECT_EQ(run.outputs, serial.outputs);
      ASSERT_EQ(run.metrics.rounds.size(), 2u);
      for (std::size_t i = 0; i < 2; ++i) {
        ExpectSameShuffle(run.metrics.rounds[i], serial.metrics.rounds[i]);
      }
    }
  }
}

TEST(PlanTrace, TwoPhaseMatmulRoundSpansCarryPredictionAndPageFaults) {
  // Two-phase matmul's round 2 is priced on the partial sums round 1
  // materialized, so its Round span reads a predicted q equal to the
  // realized one on both backends, and both backends resolve the same
  // physical rounds. Every traced in-process attempt carries its minor
  // page faults, and each in-process Round span at least the sum over its
  // map, group and reduce attempts.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() /
       "mrcost_plan_test_two_phase_prediction.json")
          .string();
  const auto numeric_arg = [](const obs::TraceEvent& e, const char* key) {
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == key) return std::optional<double>(std::stod(arg.value));
    }
    return std::optional<double>();
  };
  std::vector<std::vector<PhysicalRound>> physical;
  for (const ExecutionBackend backend :
       {ExecutionBackend::kInProcess, ExecutionBackend::kMultiProcess}) {
    const bool in_process = backend == ExecutionBackend::kInProcess;
    SCOPED_TRACE(in_process ? "in_process" : "multi_process");
    auto family = dist::PlanRegistry::Global().Build(
        "matmul_two_phase", "n=16,s_rows=4,t_js=4,seed=11");
    ASSERT_TRUE(family.ok()) << family.status();
    ExecutionOptions run_options;
    run_options.backend = backend;
    run_options.pipeline.num_threads = 2;
    run_options.trace_out = trace_path;
    std::remove(trace_path.c_str());
    family->Execute(run_options);
    physical.push_back(family->last_physical_rounds());
    std::ifstream in(trace_path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto events = obs::ParseChromeTrace(buf.str());
    ASSERT_TRUE(events.ok()) << events.status();
    std::vector<const obs::TraceEvent*> rounds;
    for (const obs::TraceEvent& e : *events) {
      if (e.name == "Round") rounds.push_back(&e);
    }
    std::sort(rounds.begin(), rounds.end(), [](const auto* a, const auto* b) {
      return a->round < b->round;
    });
    ASSERT_EQ(rounds.size(), 2u);
    EXPECT_EQ(numeric_arg(*rounds[1], "predicted_q"), 4.0);
    EXPECT_EQ(numeric_arg(*rounds[1], "realized_q"), 4.0);
    if (!in_process) continue;
    for (const obs::TraceEvent* round : rounds) {
      double attempts = 0;
      for (const obs::TraceEvent& e : *events) {
        if (e.round != round->round || e.task_id == 0) continue;
        const auto faults = numeric_arg(e, "minor_faults");
        ASSERT_TRUE(faults.has_value()) << e.name;
        if (e.name != "Finalize") attempts += *faults;
      }
      const auto total = numeric_arg(*round, "minor_faults");
      ASSERT_TRUE(total.has_value());
      EXPECT_GE(*total, attempts) << "round " << round->round;
    }
  }
  std::remove(trace_path.c_str());
  ASSERT_EQ(physical.size(), 2u);
  ASSERT_EQ(physical[0].size(), 2u);
  ASSERT_EQ(physical[1].size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(physical[0][i].chunks, physical[1][i].chunks);
    EXPECT_EQ(physical[0][i].shards, physical[1][i].shards);
    EXPECT_EQ(physical[0][i].strategy, physical[1][i].strategy);
    EXPECT_EQ(physical[0][i].partitioner, physical[1][i].partitioner);
    EXPECT_EQ(physical[0][i].fetch_credits, physical[1][i].fetch_credits);
    EXPECT_EQ(physical[0][i].reason, physical[1][i].reason);
  }
}

TEST(PlanFamilies, SampleGraphAcrossStrategiesAndSeeds) {
  const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});  // triangle
  for (std::uint64_t seed : {13u, 14u}) {
    const graph::Graph data =
        graph::ZipfGraph(/*n=*/200, /*m=*/800, /*exponent=*/0.7, seed);
    const auto reference =
        graph::MRSampleGraphInstances(data, pattern, /*k=*/5, /*seed=*/2, {});
    for (const auto& [name, options] : StrategySweep()) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const auto run =
          graph::MRSampleGraphInstances(data, pattern, 5, 2, options);
      EXPECT_EQ(run.instance_count, reference.instance_count);
      EXPECT_EQ(run.metrics.pairs_shuffled, reference.metrics.pairs_shuffled);
      EXPECT_EQ(run.metrics.bytes_shuffled, reference.metrics.bytes_shuffled);
      EXPECT_EQ(run.metrics.num_reducers, reference.metrics.num_reducers);
    }
  }
}

// --------------------------------- skew defense: the chooser

TEST(PlanChooser, PartitionerFollowsSampledSkew) {
  // ResolvePhysicalRound reads skew off the map sample of a round with
  // shards to place onto.
  JobOptions options;  // partitioner left kAuto
  options.num_shards = 4;
  internal::MapSample sample;
  sample.valid = true;
  sample.sampled_inputs = 100;
  sample.pairs_per_input = 10.0;  // 1000 sampled pairs
  sample.distinct_keys = 100;     // mean group = 10
  internal::RoundFacts facts;
  facts.num_threads = 4;
  facts.num_inputs = 100000;
  facts.sample = [&sample] { return sample; };
  const auto partitioner = [&] {
    return internal::ResolvePhysicalRound(options, facts).partitioner;
  };

  sample.max_group = 100;  // hottest key 10x the mean: skewed
  EXPECT_EQ(partitioner(), PartitionerKind::kSampledRange);
  sample.max_group = 20;  // 2x the mean: even enough for hashing
  EXPECT_EQ(partitioner(), PartitionerKind::kHash);

  // An explicit partitioner always wins over the sample.
  options.shuffle.partitioner = PartitionerKind::kHash;
  sample.max_group = 100;
  EXPECT_EQ(partitioner(), PartitionerKind::kHash);
  options.shuffle.partitioner = PartitionerKind::kSampledRange;
  sample.max_group = 20;
  EXPECT_EQ(partitioner(), PartitionerKind::kSampledRange);

  // No sample to read: fall back to hashing.
  options.shuffle.partitioner = PartitionerKind::kAuto;
  sample.valid = false;
  EXPECT_EQ(partitioner(), PartitionerKind::kHash);

  // Worker processes place by hash, however skewed the sample.
  sample.valid = true;
  sample.max_group = 100;
  facts.multi_process = true;
  EXPECT_EQ(partitioner(), PartitionerKind::kHash);
}

TEST(PlanChooser, OneShardRoundTakesNoPlacementSample) {
  // A round with one shard has nothing to place, and a declared r and
  // reducer count leave the prediction nothing to sample: the map runs
  // once per input and never for a sample.
  constexpr int kInputs = 1000;
  std::vector<int> inputs(kInputs);
  std::iota(inputs.begin(), inputs.end(), 0);
  StageEstimate hint;
  hint.replication = 1;
  hint.num_reducers = 10;
  std::atomic<int> map_calls{0};
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, int>([&map_calls](const int& x, Emitter<int, int>& e) {
            ++map_calls;
            e.Emit(x % 10, x);
          })
          .WithEstimate(hint)
          .ReduceByKey<std::pair<int, std::size_t>>(
              [](const int& key, GroupView<int> values,
                 std::vector<std::pair<int, std::size_t>>& out) {
                out.emplace_back(key, values.size());
              })
          .Execute();
  ASSERT_EQ(run.physical_rounds.size(), 1u);
  EXPECT_EQ(run.physical_rounds[0].shards, 1u);
  EXPECT_EQ(run.outputs.size(), 10u);
  EXPECT_EQ(map_calls.load(), kInputs);
}

TEST(PlanChooser, SampledRangeExecutionStaysByteIdentical) {
  SyntheticJob job;
  JobOptions serial;
  serial.num_threads = 1;
  serial.num_shards = 1;
  const auto reference = job.Run(serial);

  JobOptions options;
  options.num_threads = 4;
  options.num_shards = 8;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.shuffle.partitioner = PartitionerKind::kSampledRange;
  const auto run = job.Run(options);
  EXPECT_EQ(run.outputs, reference.outputs);
  ExpectSameMetrics(run.metrics.rounds[0], reference.metrics.rounds[0]);
  // The placement is reported.
  EXPECT_GT(run.metrics.rounds[0].partition_skew_ratio, 0.0);
}

}  // namespace
}  // namespace mrcost::engine
