#include "src/engine/pipeline.h"

#include <sstream>

namespace mrcost::engine {

JobOptions PoolSizing(const PipelineOptions& options) {
  JobOptions sizing;
  sizing.num_threads = options.num_threads;
  sizing.pool = options.pool;
  return sizing;
}

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options)), pool_ref_(PoolSizing(options_)) {
  if (!options_.trace_out.empty() || !options_.metrics_out.empty()) {
    capture_.emplace(options_.trace_out, options_.metrics_out);
  }
}

Pipeline::Pipeline(const JobOptions& round_defaults)
    : Pipeline([&] {
        PipelineOptions options;
        options.num_threads = round_defaults.num_threads;
        options.pool = round_defaults.pool;
        options.round_defaults = round_defaults;
        return options;
      }()) {}

JobOptions Pipeline::Resolve(const std::optional<JobOptions>& round_options) {
  // Per-round options are merged over the round defaults field-wise (see
  // MergedJobOptions): explicitly set fields win, unset fields inherit.
  JobOptions resolved =
      round_options.has_value()
          ? MergedJobOptions(*round_options, options_.round_defaults)
          : options_.round_defaults;
  resolved.pool = &pool_ref_.get();
  // Pipeline-wide simulation backstop: a round that configures nothing
  // itself inherits the pipeline's simulated cluster.
  if (!resolved.simulation.enabled() && options_.simulation.enabled()) {
    resolved.simulation = options_.simulation;
  }
  // Same backstop for the shuffle, field-wise: whatever the round and the
  // round defaults left unset inherits the pipeline's shuffle config.
  resolved.shuffle = resolved.shuffle.MergedOver(options_.shuffle);
  return resolved;
}

std::vector<RoundCostReport> CompareToLowerBound(
    const PipelineMetrics& metrics, const core::Recipe& recipe) {
  std::vector<RoundCostReport> reports;
  reports.reserve(metrics.rounds.size());
  for (std::size_t i = 0; i < metrics.rounds.size(); ++i) {
    const JobMetrics& round = metrics.rounds[i];
    RoundCostReport report;
    report.round = i + 1;
    report.realized_q = static_cast<double>(round.max_reducer_input);
    report.realized_r = round.replication_rate();
    report.lower_bound_r = report.realized_q >= 1
                               ? core::ClampedReplicationLowerBound(
                                     recipe, report.realized_q)
                               : 0.0;
    report.optimality_ratio = report.lower_bound_r > 0
                                  ? report.realized_r / report.lower_bound_r
                                  : 0.0;
    report.simulated = round.simulated();
    report.makespan = round.makespan;
    report.load_imbalance = round.load_imbalance;
    report.straggler_impact = round.straggler_impact;
    report.capacity_violations = round.capacity_violations;
    report.speculative_launched = round.speculative_launched;
    report.speculative_won = round.speculative_won;
    report.hot_keys_split = round.hot_keys_split;
    report.partition_skew_ratio = round.partition_skew_ratio;
    report.external_shuffle = round.external_shuffle();
    report.spill_runs = round.spill_runs;
    report.spill_bytes_written = round.spill_bytes_written;
    report.merge_passes = round.merge_passes;
    report.compression_ratio = round.compression_ratio;
    report.blocks_emitted = round.blocks_emitted;
    report.bytes_copied = round.bytes_copied;
    report.timed = round.timed();
    report.map_ms = round.map_ms;
    report.shuffle_ms = round.shuffle_ms;
    report.reduce_ms = round.reduce_ms;
    report.barrier_wait_ms = round.barrier_wait_ms;
    report.overlap_fraction = round.overlap_fraction();
    reports.push_back(report);
  }
  return reports;
}

RoundCostReport CompareToLowerBound(const JobMetrics& metrics,
                                    const core::Recipe& recipe) {
  PipelineMetrics wrapped;
  wrapped.Add(metrics);
  return CompareToLowerBound(wrapped, recipe).front();
}

std::string ToString(const std::vector<RoundCostReport>& reports) {
  std::ostringstream os;
  for (const RoundCostReport& report : reports) {
    if (report.round > 1) os << "\n";
    os << "round " << report.round << ": q=" << report.realized_q
       << " r=" << report.realized_r << " bound=" << report.lower_bound_r
       << " ratio=" << report.optimality_ratio;
    if (report.external_shuffle) {
      os << " spill_runs=" << report.spill_runs
         << " spill_bytes=" << report.spill_bytes_written
         << " merge_passes=" << report.merge_passes;
      if (report.compression_ratio > 0) {
        os << " compression=" << report.compression_ratio;
      }
    }
    if (report.blocks_emitted > 0) {
      os << " blocks=" << report.blocks_emitted
         << " copied_bytes=" << report.bytes_copied;
    }
    if (report.simulated) {
      os << " makespan=" << report.makespan
         << " imbalance=" << report.load_imbalance
         << " straggler_impact=" << report.straggler_impact
         << " capacity_violations=" << report.capacity_violations;
    }
    if (report.speculative_launched > 0 || report.hot_keys_split > 0 ||
        report.partition_skew_ratio > 0) {
      os << " partition_skew=" << report.partition_skew_ratio
         << " speculative=" << report.speculative_won << "/"
         << report.speculative_launched
         << " hot_keys_split=" << report.hot_keys_split;
    }
    if (report.timed) {
      os << " map_ms=" << report.map_ms << " shuffle_ms=" << report.shuffle_ms
         << " reduce_ms=" << report.reduce_ms
         << " barrier_wait_ms=" << report.barrier_wait_ms
         << " overlap=" << report.overlap_fraction;
    }
  }
  return os.str();
}

}  // namespace mrcost::engine
