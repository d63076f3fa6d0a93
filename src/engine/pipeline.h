#ifndef MRCOST_ENGINE_PIPELINE_H_
#define MRCOST_ENGINE_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/lower_bound.h"
#include "src/engine/executor.h"
#include "src/engine/metrics.h"

namespace mrcost::engine {

/// Thread sizing and round configuration shared by every round of one
/// plan execution (ExecutionOptions::pipeline).
struct PipelineOptions {
  /// Pool size when the execution owns its pool. 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Optional external pool; when set the execution does not construct one.
  common::ThreadPool* pool = nullptr;
  /// Defaults applied to every round (num_shards, shuffle config,
  /// simulation knobs). A round's own JobOptions (WithOptions) is merged
  /// over these defaults field-wise (MergedJobOptions): fields the round
  /// leaves unset inherit the default — a round overriding only
  /// `num_shards` still runs under the defaults' memory budget and
  /// simulated cluster. The pool field is always the execution's pool.
  JobOptions round_defaults;
  /// Execution-wide shuffle backstop: any shuffle field a round (and the
  /// round defaults) leaves unset inherits this config field-wise, so one
  /// setting runs every round of a multi-round computation under the same
  /// memory budget. See ShuffleConfig's comment for the full resolution
  /// order.
  ShuffleConfig shuffle;
};

/// The pool-sizing JobOptions internal::PoolRef expects: the execution's
/// thread count or pool.
JobOptions PoolSizing(const PipelineOptions& options);

/// Realized-vs-bound accounting for one round of a pipeline, in the
/// paper's coordinates: the realized reducer load q (max input-list
/// length), the realized replication rate r = pairs_shuffled / num_inputs,
/// and the Section 2.4 recipe lower bound on r at that q (clamped at the
/// trivial r >= 1).
struct RoundCostReport {
  std::size_t round = 0;  // 1-based, matching PipelineMetrics::ToString
  double realized_q = 0;
  double realized_r = 0;
  double lower_bound_r = 0;
  /// realized_r / lower_bound_r. For a round that solves the recipe's
  /// problem outright this is >= 1 (Equation 4), and close to 1 means the
  /// schema is communication-optimal at its q. A ratio below 1 is not a
  /// bound violation — it is the signature of a round that only computes
  /// partial results (e.g. round 1 of Section 6.3's two-phase matmul),
  /// quantifying exactly how much the multi-round computation evades the
  /// single-round tradeoff.
  double optimality_ratio = 0;

  /// Cluster-simulation results for the round, copied from JobMetrics when
  /// the round was simulated (see src/engine/simulator.h): how the paper's
  /// q/r point actually behaved on the simulated cluster.
  bool simulated = false;
  double makespan = 0;
  double load_imbalance = 0;
  double straggler_impact = 0;
  std::uint64_t capacity_violations = 0;

  /// Skew-defense counters for the round, copied from JobMetrics (all
  /// zero when no defense ran): speculative backups launched/won, hot
  /// keys split, and the shard-placement skew the partitioner realized.
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;
  std::uint64_t hot_keys_split = 0;
  double partition_skew_ratio = 0;

  /// External-shuffle spill counters for the round, copied from JobMetrics
  /// when the round shuffled externally (see src/storage/): how much of
  /// the round's communication had to move through disk to fit the memory
  /// budget.
  bool external_shuffle = false;
  std::uint64_t spill_runs = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t merge_passes = 0;
  /// Raw/encoded ratio over the round's spilled blocks (0 = no spill).
  double compression_ratio = 0;

  /// Columnar-block counters for the round, copied from JobMetrics:
  /// blocks the map stage handed downstream, and the bytes physically
  /// copied into them (vs bytes_shuffled crossing the shuffle).
  std::uint64_t blocks_emitted = 0;
  std::uint64_t bytes_copied = 0;

  /// Stage-graph timings for the round, copied from JobMetrics when the
  /// round ran timed (see src/engine/executor.h): where the round's wall
  /// clock went, what the stage barriers cost, and how much adjacent
  /// stages overlapped — the execution-side cost the paper's per-round
  /// (q, r) pricing abstracts away.
  bool timed = false;
  double map_ms = 0;
  double shuffle_ms = 0;
  double reduce_ms = 0;
  double barrier_wait_ms = 0;
  double overlap_fraction = 0;
};

/// Evaluates every round of `metrics` against `recipe`'s lower bound.
std::vector<RoundCostReport> CompareToLowerBound(
    const PipelineMetrics& metrics, const core::Recipe& recipe);

/// Single-round convenience: evaluates one JobMetrics (a one-round job or
/// schema-stat synthesis) against `recipe` — what the bench tables call.
RoundCostReport CompareToLowerBound(const JobMetrics& metrics,
                                    const core::Recipe& recipe);

std::string ToString(const std::vector<RoundCostReport>& reports);

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_PIPELINE_H_
