#include "src/engine/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <utility>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/obs/trace.h"

namespace mrcost::engine {
namespace {

// Per-purpose stream constants: jitter and straggler selection derive
// independent SplitMix64 streams from the user seed. With one shared
// stream, turning the jitter knob would advance the generator and change
// *which* workers straggle — every skew sweep would entangle its axes.
constexpr std::uint64_t kJitterStream = 0x5b8e6b3a1f0c2d4eULL;
constexpr std::uint64_t kStragglerStream = 0x94d049bb133111ebULL;

void CheckSpeedKnobs(const SimulationOptions& options,
                     std::size_t num_workers) {
  MRCOST_CHECK(num_workers > 0);
  MRCOST_CHECK(options.straggler_slowdown >= 1.0);
  MRCOST_CHECK(options.speed_jitter >= 0.0 && options.speed_jitter < 1.0);
  MRCOST_CHECK(options.straggler_fraction >= 0.0 &&
               options.straggler_fraction <= 1.0);
}

}  // namespace

std::vector<double> WorkerSpeeds(const SimulationOptions& options,
                                 std::size_t num_workers) {
  CheckSpeedKnobs(options, num_workers);
  std::vector<double> speeds(num_workers, 1.0);
  if (options.speed_jitter > 0) {
    common::SplitMix64 jitter(options.seed ^ kJitterStream);
    for (double& s : speeds) {
      s = 1.0 - options.speed_jitter +
          2.0 * options.speed_jitter * jitter.UniformDouble();
    }
  }
  if (options.straggler_slowdown > 1.0) {
    for (std::uint64_t w : StragglerWorkers(options, num_workers)) {
      speeds[w] /= options.straggler_slowdown;
    }
  }
  return speeds;
}

std::vector<std::uint64_t> StragglerWorkers(const SimulationOptions& options,
                                            std::size_t num_workers) {
  CheckSpeedKnobs(options, num_workers);
  const auto count = static_cast<std::uint64_t>(
      options.straggler_fraction * static_cast<double>(num_workers));
  if (count == 0) return {};
  common::SplitMix64 rng(options.seed ^ kStragglerStream);
  auto workers = common::SampleWithoutReplacement(num_workers, count, rng);
  std::sort(workers.begin(), workers.end());
  return workers;
}

SimulationReport SimulateCluster(const std::vector<std::uint64_t>& shard_pairs,
                                 const SimulationOptions& options) {
  MRCOST_CHECK(options.speculation_slowdown_factor >= 1.0);
  const std::vector<double> speeds =
      WorkerSpeeds(options, shard_pairs.size());
  SimulationReport report;
  report.num_workers = shard_pairs.size();
  report.queues.resize(shard_pairs.size());

  // Each worker drains its shard at its own speed; a round ends when the
  // slowest worker finishes (the paper's rounds are barriers).
  double total_pairs = 0;
  double total_speed = 0;
  double max_speed = 0;
  for (std::size_t w = 0; w < shard_pairs.size(); ++w) {
    WorkerQueue& queue = report.queues[w];
    queue.pairs = shard_pairs[w];
    queue.speed = speeds[w];
    queue.finish_time = static_cast<double>(queue.pairs) / queue.speed;
    queue.effective_finish_time = queue.finish_time;
    total_pairs += static_cast<double>(queue.pairs);
    total_speed += queue.speed;
    max_speed = std::max(max_speed, queue.speed);
    report.max_worker_pairs = std::max(report.max_worker_pairs, queue.pairs);
  }

  // Speculative backups. A worker whose projected finish exceeds factor x
  // the median busy-worker finish gets its queue re-issued on the fastest
  // worker at the trigger time; whichever copy finishes first wins (the
  // executor's first-finisher-wins contract, in cost units). The
  // original's result is never discarded early, so the effective finish
  // is the min of the two.
  if (options.speculation) {
    std::vector<double> busy;
    busy.reserve(report.queues.size());
    for (const WorkerQueue& queue : report.queues) {
      if (queue.pairs > 0) busy.push_back(queue.finish_time);
    }
    if (!busy.empty()) {
      std::sort(busy.begin(), busy.end());
      const double trigger =
          options.speculation_slowdown_factor * busy[busy.size() / 2];
      for (WorkerQueue& queue : report.queues) {
        if (queue.finish_time <= trigger || queue.pairs == 0) continue;
        ++report.speculative_launched;
        const double backup =
            trigger + static_cast<double>(queue.pairs) / max_speed;
        if (backup < queue.finish_time) {
          queue.effective_finish_time = backup;
          ++report.speculative_won;
        }
      }
    }
  }

  for (const WorkerQueue& queue : report.queues) {
    report.makespan = std::max(report.makespan, queue.effective_finish_time);
  }
  // On identical unit-speed workers the makespan would be the fullest
  // shard's pairs.
  const auto max_pairs = static_cast<double>(report.max_worker_pairs);
  report.ideal_makespan = total_pairs / total_speed;
  if (total_pairs > 0) {
    report.load_imbalance =
        max_pairs / (total_pairs / static_cast<double>(report.num_workers));
    report.straggler_impact = report.makespan / max_pairs;
  }

  if (obs::TraceRecorder::enabled()) {
    // Virtual-time lanes: one span per simulated worker on the simulated
    // pid, scaled cost-units -> us. Concurrent simulated rounds each
    // claim a disjoint window from a shared virtual clock so their worker
    // lanes stack side by side instead of overlapping at t=0.
    constexpr double kUsPerCostUnit = 1000.0;
    static std::atomic<std::uint64_t> virtual_clock{0};
    const std::uint64_t span_us = static_cast<std::uint64_t>(
        report.makespan * kUsPerCostUnit) + 1;
    const std::uint64_t base_us = virtual_clock.fetch_add(
        span_us, std::memory_order_relaxed);
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    for (std::size_t w = 0; w < report.queues.size(); ++w) {
      const WorkerQueue& queue = report.queues[w];
      obs::TraceEvent event;
      event.name = "SimWorker";
      event.category = "sim";
      event.pid = obs::kSimulatedPid;
      event.tid = static_cast<std::uint32_t>(w);
      event.t_start_us = base_us;
      event.t_end_us =
          base_us + static_cast<std::uint64_t>(
                        queue.effective_finish_time * kUsPerCostUnit);
      event.args.push_back(obs::Arg("pairs", queue.pairs));
      event.args.push_back(obs::Arg("speed", queue.speed));
      if (queue.effective_finish_time < queue.finish_time) {
        event.args.push_back(obs::Arg("rescued_by", "speculation"));
      }
      recorder.Append(std::move(event));
    }
  }
  return report;
}

std::string SimulationReport::ToString() const {
  std::ostringstream os;
  os << "workers=" << num_workers << " makespan=" << makespan
     << " ideal=" << ideal_makespan << " imbalance=" << load_imbalance
     << " straggler_impact=" << straggler_impact
     << " max_worker_pairs=" << max_worker_pairs;
  if (speculative_launched > 0) {
    os << " speculative=" << speculative_won << "/" << speculative_launched;
  }
  return os.str();
}

}  // namespace mrcost::engine
