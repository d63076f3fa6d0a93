#include "src/engine/metrics.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/obs/registry.h"

namespace mrcost::engine {

void JobMetrics::PublishTo(obs::Registry& registry) const {
  registry.AddCounter("engine.rounds");
  registry.AddCounter("engine.inputs", num_inputs);
  registry.AddCounter("engine.pairs_shuffled", pairs_shuffled);
  registry.AddCounter("engine.pairs_before_combine", pairs_before_combine);
  registry.AddCounter("engine.bytes_shuffled", bytes_shuffled);
  registry.AddCounter("engine.reducers", num_reducers);
  registry.AddCounter("engine.outputs", num_outputs);
  registry.AddCounter("engine.blocks_emitted", blocks_emitted);
  registry.AddCounter("engine.bytes_copied", bytes_copied);
  if (external_shuffle()) {
    registry.AddCounter("engine.spill_runs", spill_runs);
    registry.AddCounter("engine.spill_bytes_written", spill_bytes_written);
    registry.AddCounter("engine.merge_passes", merge_passes);
  }
  if (speculative_launched > 0) {
    registry.AddCounter("engine.speculative_launched", speculative_launched);
    registry.AddCounter("engine.speculative_won", speculative_won);
  }
  registry.MergeStats("engine.reducer_sizes", reducer_sizes);
  if (partition_skew_ratio > 0) {
    registry.SetGauge("engine.last_partition_skew_ratio",
                      partition_skew_ratio);
  }
  if (compression_ratio > 0) {
    registry.SetGauge("engine.last_compression_ratio", compression_ratio);
  }
  if (timed()) {
    registry.ObserveStats("engine.round_span_ms", span_ms);
    registry.ObserveStats("engine.barrier_wait_ms", barrier_wait_ms);
    registry.ObserveStats("engine.overlap_ms", overlap_ms);
  }
}

std::string JobMetrics::ToString() const {
  std::ostringstream os;
  os << "inputs=" << num_inputs << " pairs=" << pairs_shuffled;
  if (pairs_before_combine != pairs_shuffled) {
    os << " (pre-combine " << pairs_before_combine << ")";
  }
  os << " bytes=" << bytes_shuffled << " reducers=" << num_reducers
     << " max_q=" << max_reducer_input << " outputs=" << num_outputs
     << " r=" << replication_rate();
  if (external_shuffle()) {
    os << " | spill: runs=" << spill_runs
       << " bytes=" << spill_bytes_written
       << " merge_passes=" << merge_passes;
    if (compression_ratio > 0) os << " compression=" << compression_ratio;
  }
  if (blocks_emitted > 0) {
    os << " | blocks: emitted=" << blocks_emitted
       << " copied_bytes=" << bytes_copied;
  }
  if (speculative_launched > 0 || partition_skew_ratio > 0) {
    os << " | defense:";
    if (partition_skew_ratio > 0) {
      os << " partition_skew=" << partition_skew_ratio;
    }
    if (speculative_launched > 0) {
      os << " speculative=" << speculative_won << "/" << speculative_launched;
    }
  }
  if (timed()) {
    os << " | stages: map=" << map_ms << "ms shuffle=" << shuffle_ms
       << "ms reduce=" << reduce_ms << "ms barrier_wait=" << barrier_wait_ms
       << "ms overlap=" << overlap_fraction();
  }
  return os.str();
}

void JobMetrics::SetShardPairs(std::vector<std::uint64_t> pairs) {
  shard_pairs = std::move(pairs);
  partition_skew_ratio = 0;
  std::uint64_t total = 0;
  std::uint64_t max_pairs = 0;
  for (std::uint64_t p : shard_pairs) {
    total += p;
    max_pairs = std::max(max_pairs, p);
  }
  if (shard_pairs.size() > 1 && total > 0) {
    partition_skew_ratio =
        static_cast<double>(max_pairs) /
        (static_cast<double>(total) / static_cast<double>(shard_pairs.size()));
  }
}

std::uint64_t PipelineMetrics::total_pairs() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.pairs_shuffled;
  return total;
}

std::uint64_t PipelineMetrics::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.bytes_shuffled;
  return total;
}

std::uint64_t PipelineMetrics::max_reducer_input() const {
  std::uint64_t max_q = 0;
  for (const auto& m : rounds) max_q = std::max(max_q, m.max_reducer_input);
  return max_q;
}

std::uint64_t PipelineMetrics::total_spill_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.spill_bytes_written;
  return total;
}

std::uint64_t PipelineMetrics::total_spill_runs() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.spill_runs;
  return total;
}

std::uint64_t PipelineMetrics::total_merge_passes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.merge_passes;
  return total;
}

std::uint64_t PipelineMetrics::total_speculative_launched() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.speculative_launched;
  return total;
}

std::uint64_t PipelineMetrics::total_speculative_won() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.speculative_won;
  return total;
}

double PipelineMetrics::max_partition_skew_ratio() const {
  double worst = 0;
  for (const auto& m : rounds) worst = std::max(worst, m.partition_skew_ratio);
  return worst;
}

double PipelineMetrics::total_barrier_wait_ms() const {
  double total = 0;
  for (const auto& m : rounds) total += m.barrier_wait_ms;
  return total;
}

double PipelineMetrics::total_overlap_ms() const {
  double total = 0;
  for (const auto& m : rounds) total += m.overlap_ms;
  return total;
}

double PipelineMetrics::overlap_fraction() const {
  double span = exec_span_ms;
  if (span <= 0) {
    for (const auto& m : rounds) span += m.span_ms;
  }
  return span > 0 ? total_overlap_ms() / span : 0.0;
}

double PipelineMetrics::replication_rate(std::size_t i) const {
  return i < rounds.size() ? rounds[i].replication_rate() : 0.0;
}

double PipelineMetrics::total_replication_rate() const {
  if (rounds.empty() || rounds.front().num_inputs == 0) return 0.0;
  return static_cast<double>(total_pairs()) /
         static_cast<double>(rounds.front().num_inputs);
}

std::string PipelineMetrics::ToString() const {
  std::ostringstream os;
  os << rounds.size() << " round(s), total pairs=" << total_pairs()
     << ", total bytes=" << total_bytes()
     << ", total r=" << total_replication_rate();
  if (total_merge_passes() > 0) {
    os << ", spill runs=" << total_spill_runs()
       << ", spill bytes=" << total_spill_bytes();
  }
  if (total_speculative_launched() > 0) {
    os << ", speculative=" << total_speculative_won() << "/"
       << total_speculative_launched();
  }
  if (total_overlap_ms() > 0) {
    os << ", overlap=" << overlap_fraction()
       << ", barrier wait=" << total_barrier_wait_ms() << "ms";
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    os << "\n  round " << i + 1 << ": " << rounds[i].ToString();
  }
  return os.str();
}

RoundCostReport CompareToLowerBound(const JobMetrics& metrics,
                                    const core::Recipe& recipe) {
  RoundCostReport report;
  report.round = 1;
  report.realized_q = static_cast<double>(metrics.max_reducer_input);
  report.realized_r = metrics.replication_rate();
  report.lower_bound_r =
      report.realized_q >= 1
          ? core::ClampedReplicationLowerBound(recipe, report.realized_q)
          : 0.0;
  report.optimality_ratio = report.lower_bound_r > 0
                                ? report.realized_r / report.lower_bound_r
                                : 0.0;
  report.metrics = metrics;
  return report;
}

std::vector<RoundCostReport> CompareToLowerBound(
    const PipelineMetrics& metrics, const core::Recipe& recipe) {
  std::vector<RoundCostReport> reports;
  reports.reserve(metrics.rounds.size());
  for (const JobMetrics& round : metrics.rounds) {
    reports.push_back(CompareToLowerBound(round, recipe));
    reports.back().round = reports.size();
  }
  return reports;
}

std::string ToString(const std::vector<RoundCostReport>& reports) {
  std::ostringstream os;
  for (const RoundCostReport& report : reports) {
    const JobMetrics& m = report.metrics;
    if (report.round > 1) os << "\n";
    os << "round " << report.round << ": q=" << report.realized_q
       << " r=" << report.realized_r << " bound=" << report.lower_bound_r
       << " ratio=" << report.optimality_ratio;
    if (m.external_shuffle()) {
      os << " spill_runs=" << m.spill_runs
         << " spill_bytes=" << m.spill_bytes_written
         << " merge_passes=" << m.merge_passes;
      if (m.compression_ratio > 0) {
        os << " compression=" << m.compression_ratio;
      }
    }
    if (m.blocks_emitted > 0) {
      os << " blocks=" << m.blocks_emitted
         << " copied_bytes=" << m.bytes_copied;
    }
    if (m.speculative_launched > 0 || m.partition_skew_ratio > 0) {
      os << " partition_skew=" << m.partition_skew_ratio
         << " speculative=" << m.speculative_won << "/"
         << m.speculative_launched;
    }
    if (m.timed()) {
      os << " map_ms=" << m.map_ms << " shuffle_ms=" << m.shuffle_ms
         << " reduce_ms=" << m.reduce_ms
         << " barrier_wait_ms=" << m.barrier_wait_ms
         << " overlap=" << m.overlap_fraction();
    }
  }
  return os.str();
}

}  // namespace mrcost::engine
