// The lazy typed dataflow Plan API (src/engine/plan.h): building is free
// of execution, Estimate prices rounds against the Section 2.4 recipe
// before any data moves, Explain narrates the physical plan, and Execute
// lowers onto the eager Pipeline machinery byte-identically for every
// shuffle strategy — verified here on a synthetic round (plan vs eager,
// metrics compared field by field) and on all four problem-family drivers
// across {serial, sharded, external} x seeds.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/dist/registry.h"
#include "src/engine/job.h"
#include "src/engine/partitioner.h"
#include "src/engine/plan.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/sample_graph_mr.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/query.h"
#include "src/join/relation.h"
#include "src/join/two_round.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"

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

void ExpectSameMetrics(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.pairs_shuffled, b.pairs_shuffled);
  EXPECT_EQ(a.pairs_before_combine, b.pairs_before_combine);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.num_reducers, b.num_reducers);
  EXPECT_EQ(a.max_reducer_input, b.max_reducer_input);
  EXPECT_EQ(a.num_outputs, b.num_outputs);
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
  EXPECT_FALSE(hinted_estimate.rounds[0].sampled);
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

// ----------------------------------------------- plan-vs-eager equivalence

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
};

TEST(Plan, ExecuteMatchesEagerPipelineForEveryStrategy) {
  SyntheticJob job;
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
        ShuffleStrategy::kExternal}) {
    SCOPED_TRACE(ToString(strategy));
    JobOptions options;
    options.num_threads = 2;
    options.shuffle.strategy = strategy;
    if (strategy == ShuffleStrategy::kExternal) {
      options.shuffle.memory_budget_bytes = 1 << 12;
    }

    // Eager path: the Pipeline the plan lowers onto.
    Pipeline pipeline(options);
    auto eager =
        pipeline.AddRound<int, int, std::uint64_t,
                          std::pair<int, std::uint64_t>>(
            job.inputs, SyntheticJob::MapFn, SyntheticJob::ReduceFn);
    const PipelineMetrics eager_metrics = pipeline.TakeMetrics();

    // Lazy path, same options.
    Plan plan;
    auto ds = plan.Source(job.inputs)
                  .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                  .ReduceByKey<std::pair<int, std::uint64_t>>(
                      SyntheticJob::ReduceFn);
    auto run = ds.Execute(ExecutionOptions(options));

    EXPECT_EQ(run.outputs, eager);  // byte-identical
    ASSERT_EQ(run.metrics.rounds.size(), 1u);
    ExpectSameMetrics(run.metrics.rounds[0], eager_metrics.rounds[0]);
    ASSERT_EQ(run.physical_rounds.size(), 1u);
    EXPECT_EQ(run.physical_rounds[0].strategy, strategy);
  }
}

TEST(Plan, CombinedRoundMatchesEager) {
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
  JobOptions options;
  options.num_threads = 2;

  Pipeline pipeline(options);
  auto eager = pipeline.AddCombinedRound<int, int, std::int64_t,
                                         std::pair<int, std::int64_t>>(
      inputs, map_fn, combine_fn, reduce_fn);
  const PipelineMetrics eager_metrics = pipeline.TakeMetrics();

  Plan plan;
  auto run = plan.Source(inputs)
                 .Map<int, std::int64_t>(map_fn)
                 .CombineByKey(combine_fn)
                 .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
                 .Execute(ExecutionOptions(options));
  EXPECT_EQ(run.outputs, eager);
  ASSERT_EQ(run.metrics.rounds.size(), 1u);
  ExpectSameMetrics(run.metrics.rounds[0], eager_metrics.rounds[0]);
  EXPECT_LT(run.metrics.rounds[0].pairs_shuffled,
            run.metrics.rounds[0].pairs_before_combine);
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

TEST(Plan, ExecuteAsyncMatchesSync) {
  SyntheticJob job;
  JobOptions options;
  options.num_threads = 2;
  Plan plan;
  auto ds = plan.Source(job.inputs)
                .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                .ReduceByKey<std::pair<int, std::uint64_t>>(
                    SyntheticJob::ReduceFn);
  auto sync = ds.Execute(ExecutionOptions(options));
  auto future = ds.ExecuteAsync(ExecutionOptions(options));
  auto async = future.get();
  EXPECT_EQ(async.outputs, sync.outputs);
  ExpectSameMetrics(async.metrics.rounds[0], sync.metrics.rounds[0]);
}

// ------------------------------------------------ per-round strategy chooser

TEST(Plan, ChooserSkipsSpillWhenRoundFitsBudget) {
  // Eager rule: any budget forces the external shuffle. The plan chooser
  // only goes external when the round's estimated intermediate bytes
  // exceed the budget — same outputs, no spill metrics.
  SyntheticJob job;
  JobOptions options;
  options.shuffle.memory_budget_bytes = 1 << 30;  // far above the data

  auto eager = RunMapReduce<int, int, std::uint64_t,
                            std::pair<int, std::uint64_t>>(
      job.inputs, SyntheticJob::MapFn, SyntheticJob::ReduceFn, options);
  EXPECT_TRUE(eager.metrics.external_shuffle());

  Plan plan;
  auto run = plan.Source(job.inputs)
                 .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                 .ReduceByKey<std::pair<int, std::uint64_t>>(
                     SyntheticJob::ReduceFn)
                 .Execute(ExecutionOptions(options));
  EXPECT_EQ(run.outputs, eager.outputs);
  EXPECT_FALSE(run.metrics.rounds[0].external_shuffle());
  ASSERT_EQ(run.physical_rounds.size(), 1u);
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
}

TEST(Plan, ChooserDecidesPerRoundNotPerPipeline) {
  // A two-round plan whose round 1 is far over budget and whose round 2 is
  // far under it: only round 1 pays the spill path. (The eager pipeline
  // backstop would run both rounds externally.)
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

TEST(Plan, ExplicitShardRequestSuppressesSerialDowngrade) {
  // A tiny round would be downgraded to the serial shuffle by the
  // chooser, but an explicit num_shards request asks for the sharded
  // code path and must keep it.
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
  Plan tiny;
  auto serial_run = build(tiny).Execute();
  ASSERT_EQ(serial_run.physical_rounds.size(), 1u);
  EXPECT_EQ(serial_run.physical_rounds[0].strategy, ShuffleStrategy::kSerial);

  JobOptions options;
  options.num_shards = 4;
  Plan sharded;
  auto sharded_run = build(sharded).Execute(ExecutionOptions(options));
  ASSERT_EQ(sharded_run.physical_rounds.size(), 1u);
  EXPECT_EQ(sharded_run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
  EXPECT_EQ(sharded_run.outputs, serial_run.outputs);
}

TEST(Plan, ExplicitStrategyBypassesChooser) {
  SyntheticJob job;
  JobOptions options;
  options.shuffle.strategy = ShuffleStrategy::kExternal;
  options.shuffle.memory_budget_bytes = 1 << 30;  // would fit in memory
  Plan plan;
  auto run = plan.Source(job.inputs)
                 .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                 .ReduceByKey<std::pair<int, std::uint64_t>>(
                     SyntheticJob::ReduceFn)
                 .Execute(ExecutionOptions(options));
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
    EXPECT_FALSE(estimate.rounds[0].sampled);
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

  // Sample-graph enumeration: no declared hints — an exhaustive sample of
  // the map function reproduces the realized r and q exactly.
  {
    const graph::Graph data =
        graph::ZipfGraph(/*n=*/120, /*m=*/500, /*exponent=*/0.6, /*seed=*/4);
    const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});
    auto plan = graph::BuildSampleGraphPlan(data, pattern, /*k=*/5,
                                            /*seed=*/11);
    EstimateOptions exhaustive;
    exhaustive.max_sample_inputs = 0;  // sample every input
    const auto estimate = plan.plan.Estimate(
        SyntheticRecipe(data.num_edges(), 1), exhaustive);
    ASSERT_EQ(estimate.rounds.size(), 1u);
    EXPECT_TRUE(estimate.rounds[0].sampled);
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

  EstimateOptions roomy;
  roomy.shuffle.memory_budget_bytes = 1 << 30;  // far above ~192 KiB
  const auto fits = plan->plan.Estimate(hamming::Hamming1Recipe(b), roomy);
  EXPECT_EQ(fits.rounds[0].planned_strategy, ShuffleStrategy::kSharded);

  EstimateOptions tight;
  tight.shuffle.memory_budget_bytes = 1 << 10;  // far below
  const auto spills = plan->plan.Estimate(hamming::Hamming1Recipe(b), tight);
  EXPECT_EQ(spills.rounds[0].planned_strategy, ShuffleStrategy::kExternal);

  // And Execute agrees with the roomy annotation: no spill.
  JobOptions options;
  options.shuffle.memory_budget_bytes = 1 << 30;
  auto run = plan->pairs.Execute(ExecutionOptions(options));
  ASSERT_EQ(run.physical_rounds.size(), 1u);
  EXPECT_EQ(run.physical_rounds[0].strategy, ShuffleStrategy::kSharded);
}

TEST(Plan, PipelineWideSimulationReachesEveryRound) {
  // ExecutionOptions::pipeline.simulation must simulate every round the
  // plan executes (the backstop Pipeline::Resolve applies), not just be
  // narrated by Explain — executed and explained plans have to agree.
  SyntheticJob job;
  Plan plan;
  auto ds = plan.Source(job.inputs)
                .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                .ReduceByKey<std::pair<int, std::uint64_t>>(
                    SyntheticJob::ReduceFn);
  ExecutionOptions options;
  options.pipeline.simulation.num_workers = 8;
  auto run = ds.Execute(options);
  ASSERT_EQ(run.metrics.rounds.size(), 1u);
  EXPECT_TRUE(run.metrics.rounds[0].simulated());
  EXPECT_EQ(run.metrics.rounds[0].worker_loads.count(), 8);
  EXPECT_GT(run.metrics.rounds[0].makespan, 0.0);
  // A round's own simulation still wins whole over the backstop.
  Plan own;
  JobOptions round_options;
  round_options.simulation.num_workers = 3;
  auto own_run = own.Source(job.inputs)
                     .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                     .WithOptions(round_options)
                     .ReduceByKey<std::pair<int, std::uint64_t>>(
                         SyntheticJob::ReduceFn)
                     .Execute(options);
  EXPECT_EQ(own_run.metrics.rounds[0].worker_loads.count(), 3);
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
  options.pipeline.simulation.num_workers = 8;
  const std::string text = plan->plan.Explain(options);
  EXPECT_NE(text.find("source 'matrix elements'"), std::string::npos);
  EXPECT_NE(text.find("round 1 'two-phase cubes'"), std::string::npos);
  EXPECT_NE(text.find("round 2"), std::string::npos);
  EXPECT_NE(text.find("external"), std::string::npos);  // over tiny budget
  EXPECT_NE(text.find("memory budget"), std::string::npos);
  EXPECT_NE(text.find("8 workers"), std::string::npos);
  // Round 2's input is unmaterialized before execution.
  EXPECT_NE(text.find("chooser decides at run time"), std::string::npos);

  // Explicit strategies are reported as such.
  ExecutionOptions explicit_options;
  explicit_options.pipeline.round_defaults.shuffle.strategy =
      ShuffleStrategy::kSerial;
  const std::string explicit_text = plan->plan.Explain(explicit_options);
  EXPECT_NE(explicit_text.find("serial (explicit)"), std::string::npos);

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

TEST(PlanFamilies, HammingAcrossStrategiesAndSeeds) {
  for (std::uint64_t seed : {1u, 2u}) {
    const auto strings = hamming::SkewedStrings(
        /*b=*/12, /*n=*/600, /*num_hubs=*/8, /*exponent=*/0.8, seed);
    const auto serial_pairs = hamming::SerialSimilarityJoin(strings, 1);
    const auto reference =
        hamming::SplittingSimilarityJoin(strings, 12, 3, 1, {});
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(reference->pairs, serial_pairs);
    for (ShuffleStrategy strategy :
         {ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
          ShuffleStrategy::kExternal}) {
      SCOPED_TRACE(std::string(ToString(strategy)) +
                   " seed=" + std::to_string(seed));
      const auto run = hamming::SplittingSimilarityJoin(
          strings, 12, 3, 1, StrategyOptions(strategy));
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
    for (ShuffleStrategy strategy :
         {ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
          ShuffleStrategy::kExternal}) {
      SCOPED_TRACE(std::string(ToString(strategy)) +
                   " seed=" + std::to_string(seed));
      const auto run = join::HyperCubeJoinAggregate(
          query, ptrs, shares, 0, 2, false, 3, StrategyOptions(strategy));
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
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
        ShuffleStrategy::kExternal}) {
    SCOPED_TRACE(ToString(strategy));
    const auto run =
        matmul::MultiplyTwoPhase(r, s, 4, 2, StrategyOptions(strategy));
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->product.MaxAbsDiff(reference->product), 0.0);
    EXPECT_EQ(run->metrics.total_pairs(), reference->metrics.total_pairs());
    EXPECT_EQ(run->metrics.total_bytes(), reference->metrics.total_bytes());
  }
}

// ---------------------------------------------- streaming vs barrier

/// Execution options for the streaming comparisons: explicit strategy
/// (tight budget when external) and the streaming switch.
ExecutionOptions StreamingOptions(ShuffleStrategy strategy, bool streaming) {
  ExecutionOptions options(StrategyOptions(strategy));
  options.streaming = streaming;
  return options;
}

TEST(PlanStreaming, StreamedRoundOverlapsProducerReduce) {
  // Round 1: many keys with a deliberately heavy reduce, spread over
  // several shards; round 2: a cheap per-key regroup. With streaming on,
  // round 2's map for shard s starts the moment shard s finishes
  // reducing, while later shards still reduce — so the streamed edge has
  // wall-clock overlap, and outputs stay byte-identical to the barrier
  // schedule.
  std::vector<int> inputs(60000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto build = [&](Plan& plan) {
    auto round1 =
        plan.Source(inputs)
            .Map<std::uint64_t, std::uint64_t>(
                [](const int& x, Emitter<std::uint64_t, std::uint64_t>& e) {
                  const auto v = static_cast<std::uint64_t>(x);
                  e.Emit(v % 1024, v);
                },
                "fan-in")
            .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
                [](const std::uint64_t& key,
                   GroupView<std::uint64_t> values,
                   std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                       out) {
                  std::uint64_t acc = key;
                  for (int pass = 0; pass < 200; ++pass) {
                    for (std::uint64_t v : values) acc = acc * 31 + v;
                  }
                  out.emplace_back(key, acc);
                });
    return round1
        .Map<std::uint64_t, std::uint64_t>(
            [](const std::pair<std::uint64_t, std::uint64_t>& p,
               Emitter<std::uint64_t, std::uint64_t>& e) {
              e.Emit(p.first % 16, p.second);
            },
            "regroup")
        .WithPerKeyInput()
        .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
            [](const std::uint64_t& key,
               GroupView<std::uint64_t> values,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
              std::uint64_t acc = key;
              for (std::uint64_t v : values) acc = acc * 131 + v;
              out.emplace_back(key, acc);
            });
  };
  Plan plan;
  auto target = build(plan);
  ExecutionOptions streaming;
  streaming.pipeline.num_threads = 4;
  streaming.pipeline.round_defaults.num_shards = 8;
  ExecutionOptions barrier = streaming;
  barrier.streaming = false;

  auto streamed_run = target.Execute(streaming);
  auto barrier_run = target.Execute(barrier);

  EXPECT_EQ(streamed_run.outputs, barrier_run.outputs);
  ASSERT_EQ(streamed_run.metrics.rounds.size(), 2u);
  EXPECT_EQ(streamed_run.metrics.streamed_rounds, 1u);
  EXPECT_EQ(barrier_run.metrics.streamed_rounds, 0u);
  EXPECT_GT(streamed_run.metrics.exec_span_ms, 0.0);
  // The acceptance bar: the streamed edge overlapped in wall clock.
  EXPECT_GT(streamed_run.metrics.streamed_overlap_ms, 0.0);
  EXPECT_GT(streamed_run.metrics.overlap_fraction(), 0.0);
  // Non-timing metrics are schedule-independent.
  for (std::size_t i = 0; i < 2; ++i) {
    ExpectSameMetrics(streamed_run.metrics.rounds[i],
                      barrier_run.metrics.rounds[i]);
  }
}

TEST(PlanStreaming, InterleavedUpstreamBlocksKeepSerialValueOrder) {
  // Every downstream key collects values from all eight upstream shards,
  // so a consumer shard's rows arrive interleaved across upstream blocks:
  // its CSR group slices are filled out of tag order and must be restored.
  // The reducer returns each group verbatim; keys and value lists must
  // equal SerialShuffle over the barrier-ordered round-1 outputs.
  std::vector<int> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  using Group = std::pair<std::uint64_t, std::vector<std::uint64_t>>;
  const auto regroup = [](const Pair& p,
                          Emitter<std::uint64_t, std::uint64_t>& e) {
    e.Emit(p.first % 5, p.second);
    e.Emit(100 + p.second % 3, p.first);
  };
  Plan plan;
  auto round1 =
      plan.Source(inputs)
          .Map<std::uint64_t, std::uint64_t>(
              [](const int& x, Emitter<std::uint64_t, std::uint64_t>& e) {
                e.Emit(static_cast<std::uint64_t>(x) % 997,
                       static_cast<std::uint64_t>(x));
              },
              "fan-in")
          .ReduceByKey<Pair>([](const std::uint64_t& key,
                                GroupView<std::uint64_t> values,
                                std::vector<Pair>& out) {
            std::uint64_t acc = key;
            for (std::uint64_t v : values) acc = acc * 31 + v;
            out.emplace_back(key, acc);
          });
  auto round2 =
      round1.Map<std::uint64_t, std::uint64_t>(regroup, "regroup")
          .WithPerKeyInput()
          .ReduceByKey<Group>([](const std::uint64_t& key,
                                 GroupView<std::uint64_t> values,
                                 std::vector<Group>& out) {
            out.emplace_back(key, std::vector<std::uint64_t>(values.begin(),
                                                             values.end()));
          });
  ExecutionOptions streaming;
  streaming.pipeline.num_threads = 4;
  streaming.pipeline.round_defaults.num_shards = 8;
  streaming.pipeline.round_defaults.shuffle.strategy =
      ShuffleStrategy::kSharded;
  auto streamed = round2.Execute(streaming);
  ASSERT_EQ(streamed.metrics.streamed_rounds, 1u);

  ExecutionOptions barrier = streaming;
  barrier.streaming = false;
  const std::vector<Pair> upstream = round1.Execute(barrier).outputs;
  std::vector<std::vector<Pair>> chunks(1);
  Emitter<std::uint64_t, std::uint64_t> emitter;
  for (const Pair& p : upstream) regroup(p, emitter);
  for (std::size_t r = 0; r < emitter.block().rows(); ++r) {
    chunks[0].emplace_back(emitter.block().KeyAt(r),
                           emitter.block().value(r));
  }
  const auto serial = SerialShuffle(chunks);
  ASSERT_EQ(streamed.outputs.size(), serial.keys.size());
  for (std::size_t i = 0; i < serial.keys.size(); ++i) {
    EXPECT_EQ(streamed.outputs[i].first, serial.keys[i]) << i;
    EXPECT_EQ(streamed.outputs[i].second, serial.groups[i]) << i;
  }
}

TEST(PlanStreaming, FallsBackWhenStreamingDoesNotApply) {
  std::vector<int> inputs(3000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map1 = [](const int& x, Emitter<int, std::int64_t>& e) {
    e.Emit(x % 100, x);
  };
  auto sum_reduce = [](const int& key,
                       GroupView<std::int64_t> values,
                       std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto map2 = [](const std::pair<int, std::int64_t>& p,
                 Emitter<int, std::int64_t>& e) {
    e.Emit(p.first % 10, p.second);
  };

  // External consumer strategy: spilling wants the whole input on hand,
  // so the per-key hint is ignored and the rounds run with a barrier.
  {
    Plan plan;
    auto target = plan.Source(inputs)
                      .Map<int, std::int64_t>(map1)
                      .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce)
                      .Map<int, std::int64_t>(map2)
                      .WithPerKeyInput()
                      .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce);
    auto run = target.Execute(
        StreamingOptions(ShuffleStrategy::kExternal, /*streaming=*/true));
    EXPECT_EQ(run.metrics.streamed_rounds, 0u);
    EXPECT_EQ(run.outputs.size(), 10u);
  }

  // Combined consumer: the chunk-local combine is chunking-dependent, so
  // a combined round never streams its input.
  {
    Plan plan;
    auto target = plan.Source(inputs)
                      .Map<int, std::int64_t>(map1)
                      .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce)
                      .Map<int, std::int64_t>(map2)
                      .CombineByKey([](std::int64_t a, std::int64_t b) {
                        return a + b;
                      })
                      .WithPerKeyInput()
                      .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce);
    auto run = target.Execute();
    EXPECT_EQ(run.metrics.streamed_rounds, 0u);
    EXPECT_EQ(run.outputs.size(), 10u);
  }

  // Branched consumers: finalize may only chase one streamed reader, so
  // a producer with two needed consumers runs with a barrier.
  {
    Plan plan;
    auto round1 = plan.Source(inputs)
                      .Map<int, std::int64_t>(map1)
                      .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce);
    auto left = round1.Map<int, std::int64_t>(map2)
                    .WithPerKeyInput()
                    .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce);
    auto right = round1.Map<int, std::int64_t>(map2)
                     .WithPerKeyInput()
                     .ReduceByKey<std::pair<int, std::int64_t>>(sum_reduce);
    (void)left;
    auto metrics = plan.Execute();
    EXPECT_EQ(metrics.streamed_rounds, 0u);
    auto run = right.Execute();
    EXPECT_EQ(run.outputs.size(), 10u);
  }
}

TEST(PlanStreaming, FamiliesByteIdenticalToBarrierAcrossStrategiesAndSeeds) {
  // The acceptance matrix: streaming == barrier, byte for byte, for all
  // four families x {serial, sharded, external} x seeds. The multi-round
  // families (matmul two-phase, join-aggregate) actually stream; the
  // one-round families pin the degenerate case.
  const std::vector<ShuffleStrategy> strategies = {
      ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
      ShuffleStrategy::kExternal};

  // Two-phase matmul: round 2 declares the per-key hint.
  for (std::uint64_t seed : {31u, 32u}) {
    const int n = 16;
    matmul::Matrix r(n, n), s(n, n);
    common::SplitMix64 rng(seed);
    r.FillRandom(rng);
    s.FillRandom(rng);
    auto plan = matmul::BuildMultiplyTwoPhasePlan(r, s, 4, 2);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (ShuffleStrategy strategy : strategies) {
      SCOPED_TRACE(std::string("matmul ") + ToString(strategy) +
                   " seed=" + std::to_string(seed));
      auto streamed = plan->sums.Execute(StreamingOptions(strategy, true));
      auto barrier = plan->sums.Execute(StreamingOptions(strategy, false));
      EXPECT_EQ(streamed.outputs, barrier.outputs);
      ASSERT_EQ(streamed.metrics.rounds.size(), 2u);
      for (std::size_t i = 0; i < 2; ++i) {
        ExpectSameMetrics(streamed.metrics.rounds[i],
                          barrier.metrics.rounds[i]);
      }
      EXPECT_EQ(barrier.metrics.streamed_rounds, 0u);
      if (strategy != ShuffleStrategy::kExternal) {
        EXPECT_EQ(streamed.metrics.streamed_rounds, 1u);
      }
    }
  }

  // HyperCube join + aggregate: round 2 declares the per-key hint.
  {
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
      for (ShuffleStrategy strategy : strategies) {
        SCOPED_TRACE(std::string("join ") + ToString(strategy) +
                     " seed=" + std::to_string(seed));
        auto streamed = plan->sums.Execute(StreamingOptions(strategy, true));
        auto barrier = plan->sums.Execute(StreamingOptions(strategy, false));
        EXPECT_EQ(streamed.outputs, barrier.outputs);
        ASSERT_EQ(streamed.metrics.rounds.size(), 2u);
        for (std::size_t i = 0; i < 2; ++i) {
          ExpectSameMetrics(streamed.metrics.rounds[i],
                            barrier.metrics.rounds[i]);
        }
      }
    }
  }

  // Hamming splitting join (one round: the degenerate streaming case).
  for (std::uint64_t seed : {51u, 52u}) {
    const auto strings = hamming::SkewedStrings(
        /*b=*/12, /*n=*/400, /*num_hubs=*/8, /*exponent=*/0.8, seed);
    auto plan = hamming::BuildSplittingSimilarityJoinPlan(strings, 12, 3, 1);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (ShuffleStrategy strategy : strategies) {
      SCOPED_TRACE(std::string("hamming ") + ToString(strategy) +
                   " seed=" + std::to_string(seed));
      auto streamed = plan->pairs.Execute(StreamingOptions(strategy, true));
      auto barrier = plan->pairs.Execute(StreamingOptions(strategy, false));
      EXPECT_EQ(streamed.outputs, barrier.outputs);
      ExpectSameMetrics(streamed.metrics.rounds[0],
                        barrier.metrics.rounds[0]);
    }
  }

  // Sample-graph enumeration (one round).
  for (std::uint64_t seed : {61u, 62u}) {
    const graph::Graph data =
        graph::ZipfGraph(/*n=*/150, /*m=*/600, /*exponent=*/0.6, seed);
    const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});
    auto plan = graph::BuildSampleGraphPlan(data, pattern, /*k=*/5,
                                            /*seed=*/7);
    for (ShuffleStrategy strategy : strategies) {
      SCOPED_TRACE(std::string("graph ") + ToString(strategy) +
                   " seed=" + std::to_string(seed));
      auto streamed = plan.counts.Execute(StreamingOptions(strategy, true));
      auto barrier = plan.counts.Execute(StreamingOptions(strategy, false));
      EXPECT_EQ(streamed.outputs, barrier.outputs);
      ExpectSameMetrics(streamed.metrics.rounds[0],
                        barrier.metrics.rounds[0]);
    }
  }
}

TEST(PlanFamilies, SampleGraphAcrossStrategiesAndSeeds) {
  const graph::Graph pattern(3, {{0, 1}, {1, 2}, {0, 2}});  // triangle
  for (std::uint64_t seed : {13u, 14u}) {
    const graph::Graph data =
        graph::ZipfGraph(/*n=*/200, /*m=*/800, /*exponent=*/0.7, seed);
    const auto reference =
        graph::MRSampleGraphInstances(data, pattern, /*k=*/5, /*seed=*/2, {});
    for (ShuffleStrategy strategy :
         {ShuffleStrategy::kSerial, ShuffleStrategy::kSharded,
          ShuffleStrategy::kExternal}) {
      SCOPED_TRACE(std::string(ToString(strategy)) +
                   " seed=" + std::to_string(seed));
      const auto run = graph::MRSampleGraphInstances(
          data, pattern, 5, 2, StrategyOptions(strategy));
      EXPECT_EQ(run.instance_count, reference.instance_count);
      EXPECT_EQ(run.metrics.pairs_shuffled, reference.metrics.pairs_shuffled);
      EXPECT_EQ(run.metrics.bytes_shuffled, reference.metrics.bytes_shuffled);
      EXPECT_EQ(run.metrics.num_reducers, reference.metrics.num_reducers);
    }
  }
}

// ------------------------------------- skew defense: hot-key splitting

using U64Shuffle = ShuffleResult<std::uint64_t, std::uint64_t>;

U64Shuffle CopyShuffle(const U64Shuffle& result) {
  return result;
}

TEST(HotKeySplit, SingleKeyHoldingEveryPairSplitsToCapacity) {
  // The degenerate extreme: one key owns 100% of the pairs. The split
  // must produce ceil(size / q) sub-groups, every one within q, all under
  // the replicated key, and the merge must restore the original exactly.
  U64Shuffle result;
  result.keys.push_back(7);
  result.groups.emplace_back(1000);
  std::iota(result.groups[0].begin(), result.groups[0].end(), 0ull);
  const U64Shuffle original = CopyShuffle(result);

  auto split = SplitHotGroups(std::move(result), /*threshold=*/100);
  EXPECT_EQ(split.stats.hot_keys_split, 1u);
  EXPECT_EQ(split.stats.sub_groups, 10u);
  EXPECT_EQ(split.stats.extra_replicas(), 9u);
  ASSERT_EQ(split.shuffled.keys.size(), 10u);
  for (std::size_t i = 0; i < split.shuffled.keys.size(); ++i) {
    EXPECT_EQ(split.shuffled.keys[i], 7u);       // key replicated
    EXPECT_LE(split.shuffled.groups[i].size(), 100u);  // within q
    EXPECT_EQ(split.origin[i], 0u);
  }
  const auto merged = MergeSplitGroups(std::move(split));
  EXPECT_EQ(merged.keys, original.keys);
  EXPECT_EQ(merged.groups, original.groups);
}

TEST(HotKeySplit, GroupExactlyAtCapacityIsNotSplit) {
  // The boundary case: a group of exactly q pairs already fits and must
  // not pay any replication; q + 1 pairs must split (into two parts).
  U64Shuffle result;
  result.keys = {1, 2};
  result.groups.emplace_back(64);   // exactly at threshold
  result.groups.emplace_back(65);   // one over
  std::iota(result.groups[0].begin(), result.groups[0].end(), 0ull);
  std::iota(result.groups[1].begin(), result.groups[1].end(), 100ull);
  const U64Shuffle original = CopyShuffle(result);

  auto split = SplitHotGroups(std::move(result), /*threshold=*/64);
  EXPECT_EQ(split.stats.hot_keys_split, 1u);  // only the 65-pair group
  EXPECT_EQ(split.stats.sub_groups, 2u);
  ASSERT_EQ(split.shuffled.keys.size(), 3u);
  EXPECT_EQ(split.shuffled.groups[0].size(), 64u);  // untouched
  EXPECT_EQ(split.shuffled.groups[1].size(), 33u);  // 65 -> 33 + 32
  EXPECT_EQ(split.shuffled.groups[2].size(), 32u);
  const auto merged = MergeSplitGroups(std::move(split));
  EXPECT_EQ(merged.keys, original.keys);
  EXPECT_EQ(merged.groups, original.groups);
}

TEST(HotKeySplit, ZeroThresholdDisablesSplitting) {
  U64Shuffle result;
  result.keys = {1};
  result.groups.emplace_back(5000, 9ull);
  const U64Shuffle original = CopyShuffle(result);
  auto split = SplitHotGroups(std::move(result), /*threshold=*/0);
  EXPECT_EQ(split.stats.hot_keys_split, 0u);
  EXPECT_EQ(split.stats.sub_groups, 0u);
  EXPECT_EQ(split.shuffled.keys, original.keys);
  EXPECT_EQ(split.shuffled.groups, original.groups);
}

TEST(HotKeySplit, SplitThenMergeIsIdentityAcrossKeyDistributions) {
  // Split-then-merge must be the identity on the SerialShuffle result of
  // every PR-2 key distribution — uniform, zipf, all-same, all-distinct —
  // which is the invariant that keeps defended outputs byte-identical.
  enum class Dist { kUniform, kZipf, kAllSame, kAllDistinct };
  for (Dist dist :
       {Dist::kUniform, Dist::kZipf, Dist::kAllSame, Dist::kAllDistinct}) {
    SCOPED_TRACE(static_cast<int>(dist));
    common::SplitMix64 rng(17 + static_cast<std::uint64_t>(dist));
    common::ZipfDistribution zipf(400, 1.3);
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> chunks(
        3);
    std::uint64_t serial = 0;
    for (auto& chunk : chunks) {
      for (int i = 0; i < 2000; ++i, ++serial) {
        std::uint64_t key = 0;
        switch (dist) {
          case Dist::kUniform: key = rng.UniformBelow(300); break;
          case Dist::kZipf: key = zipf.Sample(rng); break;
          case Dist::kAllSame: key = 42; break;
          case Dist::kAllDistinct: key = serial; break;
        }
        chunk.emplace_back(key, serial);
      }
    }
    U64Shuffle reference = SerialShuffle(chunks);
    const U64Shuffle original = CopyShuffle(reference);
    for (std::uint64_t threshold : {1u, 16u, 1000u, 100000u}) {
      auto split = SplitHotGroups(CopyShuffle(original), threshold);
      for (const auto& group : split.shuffled.groups) {
        EXPECT_LE(group.size(), threshold);
      }
      const auto merged = MergeSplitGroups(std::move(split));
      EXPECT_EQ(merged.keys, original.keys) << "threshold=" << threshold;
      EXPECT_EQ(merged.groups, original.groups) << "threshold=" << threshold;
    }
  }
}

// --------------------------------- skew defense: chooser and calibration

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
  facts.sample = &sample;
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

TEST(PlanChooser, SampledRangeExecutionStaysByteIdentical) {
  SyntheticJob job;
  JobOptions serial;
  serial.num_threads = 1;
  serial.shuffle.strategy = ShuffleStrategy::kSerial;
  const auto reference =
      RunMapReduce<int, int, std::uint64_t, std::pair<int, std::uint64_t>>(
          job.inputs, SyntheticJob::MapFn, SyntheticJob::ReduceFn, serial);

  JobOptions options;
  options.num_threads = 4;
  options.num_shards = 8;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.shuffle.partitioner = PartitionerKind::kSampledRange;
  const auto run =
      RunMapReduce<int, int, std::uint64_t, std::pair<int, std::uint64_t>>(
          job.inputs, SyntheticJob::MapFn, SyntheticJob::ReduceFn, options);
  EXPECT_EQ(run.outputs, reference.outputs);
  ExpectSameMetrics(run.metrics, reference.metrics);
  EXPECT_GT(run.metrics.partition_skew_ratio, 0.0);  // placement reported
}

TEST(RuntimeCalibration, LearnsSkewByEwmaAndClampsAtOne) {
  core::RuntimeCalibration calibration;
  EXPECT_EQ(calibration.observations(), 0u);
  EXPECT_DOUBLE_EQ(calibration.skew_factor(), 1.0);  // neutral until fed
  calibration.Observe(/*load_imbalance=*/2.0, /*straggler_impact=*/1.5);
  EXPECT_DOUBLE_EQ(calibration.skew_factor(), 3.0);  // first obs taken whole
  calibration.Observe(1.0, 1.0);  // a perfectly balanced round
  EXPECT_NEAR(calibration.skew_factor(), 0.7 * 3.0 + 0.3 * 1.0, 1e-12);

  // Ratios below 1 clamp to 1: a lucky round cannot promise speedups.
  core::RuntimeCalibration clamped;
  clamped.Observe(0.5, 0.0);
  EXPECT_DOUBLE_EQ(clamped.skew_factor(), 1.0);
}

TEST(RuntimeCalibration, ExecutionFeedbackInflatesEstimate) {
  // A skewed simulated execution observes its realized imbalance into the
  // calibration; a later Estimate holding the same object prices the
  // wall-clock terms higher than the uncalibrated estimate.
  SyntheticJob job;
  Plan plan;
  auto ds = plan.Source(job.inputs)
                .Map<int, std::uint64_t>(SyntheticJob::MapFn)
                .ReduceByKey<std::pair<int, std::uint64_t>>(
                    SyntheticJob::ReduceFn);
  core::RuntimeCalibration calibration;
  ExecutionOptions options;
  options.pipeline.simulation.num_workers = 8;
  options.pipeline.simulation.straggler_fraction = 0.25;
  options.pipeline.simulation.straggler_slowdown = 4.0;
  options.pipeline.simulation.seed = 11;
  options.calibration = &calibration;
  ds.Execute(options);
  ASSERT_GE(calibration.observations(), 1u);
  EXPECT_GT(calibration.skew_factor(), 1.0);

  EstimateOptions estimate_options;
  estimate_options.cost_model.communication_weight = 1.0;
  estimate_options.cost_model.processing_weight = 1.0;
  estimate_options.cost_model.wallclock_weight = 0.1;
  const auto recipe = SyntheticRecipe(job.inputs.size(), 251);
  const double baseline =
      plan.Estimate(recipe, estimate_options).total_cost();
  estimate_options.calibration = &calibration;
  const double calibrated =
      plan.Estimate(recipe, estimate_options).total_cost();
  EXPECT_GT(calibrated, baseline);
}

}  // namespace
}  // namespace mrcost::engine
