#ifndef MRCOST_ENGINE_SIMULATOR_H_
#define MRCOST_ENGINE_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mrcost::engine {

/// Knobs for the cluster simulator. The paper charges a computation a
/// replication rate r against a reducer capacity q; the simulator prices
/// what a round's real placement costs on machines of unequal speed. Each
/// shard of a finished round is one simulated worker that drains the rows
/// the shuffle routed to it (JobMetrics::shard_pairs), so skewed keys,
/// heterogeneous machines and stragglers show up as makespan instead of
/// staying invisible behind placement counts. The worker count is the
/// round's shard count: set it with JobOptions::num_shards.
struct SimulationOptions {
  /// Fraction of workers (rounded down, chosen by `seed`) that straggle.
  double straggler_fraction = 0;
  /// Stragglers process their queue this factor slower. Must be >= 1.
  double straggler_slowdown = 1.0;
  /// Relative uniform jitter on every worker's speed: each worker's speed
  /// is drawn from [1 - jitter, 1 + jitter]. Models mildly heterogeneous
  /// machines; 0 = identical workers.
  double speed_jitter = 0;
  /// Seeds the speed jitter and the straggler choice. Jitter and straggler
  /// selection draw from independent streams derived from this seed, so
  /// each axis is reproducible on its own: changing the jitter knob never
  /// changes *which* workers straggle, and vice versa.
  std::uint64_t seed = 0;

  /// Virtual-time speculative backups: a worker whose finish time exceeds
  /// speculation_slowdown_factor x the median busy-worker finish gets its
  /// queue re-issued on the fastest worker at the trigger time; the
  /// earlier finisher wins. Models the executor's first-finisher-wins
  /// backups (JobOptions::speculation) on a cluster with stragglers.
  bool speculation = false;
  double speculation_slowdown_factor = 3.0;
};

/// One simulated worker: the pairs the shuffle routed to its shard, its
/// speed, and when it finishes draining them.
struct WorkerQueue {
  std::uint64_t pairs = 0;
  double speed = 1.0;      // jitter and straggler slowdown applied
  double finish_time = 0;  // pairs / speed, before any speculative rescue
  /// Finish after a speculative backup (if one fired and won); equals
  /// finish_time when speculation is off or did not help this worker.
  double effective_finish_time = 0;
};

/// Everything the simulation measures for one round, in cost units of one
/// pair.
struct SimulationReport {
  std::size_t num_workers = 0;

  /// Time the slowest worker finishes: max over workers of its effective
  /// finish time.
  double makespan = 0;
  /// Perfect-balance floor: total pairs / total speed. makespan/ideal
  /// quantifies what placement skew plus heterogeneity cost this round.
  double ideal_makespan = 0;
  /// Max worker load / mean worker load, in pairs; 1.0 = perfectly even.
  /// The same ratio as the round's partition_skew_ratio; 0 when nothing
  /// was shuffled.
  double load_imbalance = 0;
  /// makespan / (makespan on identical-speed workers): the slowdown
  /// attributable to stragglers and jitter. 1.0 = homogeneous.
  double straggler_impact = 0;
  std::uint64_t max_worker_pairs = 0;

  /// Speculative backups launched for slow workers, and backups that
  /// finished before their straggler (both 0 when speculation is off).
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;

  /// The workers themselves, in shard order.
  std::vector<WorkerQueue> queues;

  std::string ToString() const;
};

/// Deterministic speeds of `num_workers` workers: jitter applied from the
/// seed, then the straggler subset (floor(fraction * workers) workers,
/// sampled without replacement) divided by straggler_slowdown. Jitter and
/// straggler selection use independent streams derived from the seed
/// (seed ^ per-purpose constants), so the straggler set is a function of
/// (seed, num_workers, fraction) alone — sweeping the jitter axis keeps
/// the same workers straggling.
std::vector<double> WorkerSpeeds(const SimulationOptions& options,
                                 std::size_t num_workers);

/// The straggler subset on its own (sorted worker indices) — the second
/// of WorkerSpeeds' two streams, exposed so tests can pin it per-axis.
std::vector<std::uint64_t> StragglerWorkers(const SimulationOptions& options,
                                            std::size_t num_workers);

/// Prices a finished round: worker p drains shard_pairs[p] (the rows the
/// shuffle routed to shard p, JobMetrics::shard_pairs) at its own speed,
/// and the round ends when the slowest worker finishes. A pure function
/// of its arguments, so a fixed seed gives identical reports for every
/// thread count. Requires at least one shard.
SimulationReport SimulateCluster(const std::vector<std::uint64_t>& shard_pairs,
                                 const SimulationOptions& options);

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_SIMULATOR_H_
