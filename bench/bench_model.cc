// Regenerates the Section 2 model-level results and the repository's
// exploratory extensions:
//   * Examples 2.1/2.4/2.5 as model problems: the canonical schemas have
//     r = 1 (no tradeoff — embarrassingly parallel / plain hash join).
//   * Section 2.3's presence model: realized reducer loads concentrate at
//     x * q_t, justifying the q_t = q/x rescaling.
//   * Section 3.6 open problem probe: empirical g(q) for Hamming
//     distances 1 and 2 by exact search — d=1 matches Lemma 3.1 exactly
//     at powers of two; d=2 grows quadratically (the Ball-2 obstruction).
//   * Combiners (footnote 1): map-side combining slashes communication
//     for aggregation-shaped jobs and does nothing for join-shaped ones.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/core/presence.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/engine/plan.h"
#include "src/hamming/bounds.h"
#include "src/hamming/coverage.h"
#include "src/hamming/schemas.h"
#include "src/join/problem.h"

namespace {

using mrcost::common::Table;

void ExampleProblems() {
  Table t({"problem", "|I|", "|O|", "schema", "valid", "r", "max q"});
  {
    const mrcost::join::NaturalJoinProblem p(16, 32, 16);
    const mrcost::join::HashJoinSchema schema(p);
    const auto status = mrcost::core::ValidateSchema(p, schema, 32);
    const auto stats =
        mrcost::core::ComputeSchemaStats(schema, p.num_inputs());
    t.AddRow()
        .Add("Ex 2.1 natural join")
        .Add(p.num_inputs())
        .Add(p.num_outputs())
        .Add(schema.name())
        .Add(status.ok() ? "yes" : status.ToString())
        .Add(stats.replication_rate)
        .Add(stats.max_reducer_load);
  }
  {
    const mrcost::join::GroupByProblem p(64, 128);
    const mrcost::join::GroupBySchema schema(p, 128);
    const auto status = mrcost::core::ValidateSchema(p, schema, 128);
    const auto stats =
        mrcost::core::ComputeSchemaStats(schema, p.num_inputs());
    t.AddRow()
        .Add("Ex 2.4 group-by-sum")
        .Add(p.num_inputs())
        .Add(p.num_outputs())
        .Add(schema.name())
        .Add(status.ok() ? "yes" : status.ToString())
        .Add(stats.replication_rate)
        .Add(stats.max_reducer_load);
  }
  t.Print(std::cout,
          "Examples 2.1 / 2.4: canonical schemas validate with r = 1 — "
          "no replication/parallelism tradeoff (Ex 2.5 word count is "
          "measured in bench_table2)");
}

void PresenceConcentration() {
  // The Splitting schema's reducers all hold q_t = 2^{b/c} potential
  // strings; sample instances at several presence probabilities.
  const int b = 16, c = 2;
  auto schema = mrcost::hamming::SplittingSchema::Make(b, c);
  Table t({"x", "q_t", "expected x*q_t", "realized max load (mean)",
           "mean relative deviation"});
  for (double x : {0.5, 0.25, 0.05}) {
    const auto stats = mrcost::core::SimulatePresence(
        *schema, std::uint64_t{1} << b, x, /*trials=*/10, /*seed=*/77);
    t.AddRow()
        .Add(x)
        .Add(stats.target_q)
        .Add(stats.expected_load)
        .Add(stats.realized_max_load.mean())
        .Add(stats.relative_deviation.mean());
  }
  t.Print(std::cout,
          "Section 2.3: realized reducer loads concentrate at x*q_t "
          "(Splitting, b=16, c=2, 256 reducers)");
}

void EmpiricalCoverage() {
  Table t({"b", "q", "exact g(q), d=1", "Lemma 3.1 (q/2)log2 q",
           "exact g(q), d=2", "C(q,2) (quadratic ref)"});
  const int b = 5;
  for (int q : {2, 3, 4, 5, 6, 8}) {
    t.AddRow()
        .Add(b)
        .Add(q)
        .Add(mrcost::hamming::ExactMaxCoverage(b, 1, q))
        .Add(mrcost::hamming::Hamming1CoverBound(q))
        .Add(mrcost::hamming::ExactMaxCoverage(b, 2, q))
        .Add(static_cast<double>(q) * (q - 1) / 2.0);
  }
  t.Print(std::cout,
          "Section 3.6 probe: exact max outputs coverable by q inputs "
          "(d=1 respects Lemma 3.1, tight at powers of 2; d=2 tracks the "
          "quadratic shape that blocks the recipe)");
}

void CombinerEffect() {
  // Aggregation-shaped job: 100k occurrences of 100 distinct words.
  std::vector<int> inputs(100000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 100);
  }
  auto map_fn = [](const int& x,
                   mrcost::engine::Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, 1);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      mrcost::engine::GroupView<std::int64_t> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  using Out = std::pair<int, std::int64_t>;
  const auto keyed = mrcost::engine::Plan()
                         .Source(std::move(inputs))
                         .Map<int, std::int64_t>(map_fn);
  const auto plain =
      keyed.ReduceByKey<Out>(reduce_fn).Execute().metrics.rounds[0];
  const auto combined = keyed.CombineByKey(combine_fn)
                            .ReduceByKey<Out>(reduce_fn)
                            .Execute()
                            .metrics.rounds[0];
  Table t({"variant", "map-emitted pairs", "pairs shuffled",
           "max reducer input"});
  t.AddRow()
      .Add("no combiner")
      .Add(plain.pairs_before_combine)
      .Add(plain.pairs_shuffled)
      .Add(plain.max_reducer_input);
  t.AddRow()
      .Add("with combiner")
      .Add(combined.pairs_before_combine)
      .Add(combined.pairs_shuffled)
      .Add(combined.max_reducer_input);
  t.Print(std::cout,
          "Footnote 1, executable: combining folds mapper-side computation "
          "into less communication for aggregations (100k occurrences, "
          "100 words)");
}

}  // namespace

int main() {
  std::cout << "=== bench_model: the Section 2 model, presence "
               "concentration, and exploratory extensions ===\n";
  ExampleProblems();
  PresenceConcentration();
  EmpiricalCoverage();
  CombinerEffect();
  return 0;
}
