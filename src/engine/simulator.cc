#include "src/engine/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <utility>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/engine/partitioner.h"
#include "src/engine/shuffle.h"
#include "src/obs/trace.h"

namespace mrcost::engine {
namespace {

// Per-purpose stream constants: jitter and straggler selection derive
// independent SplitMix64 streams from the user seed. With one shared
// stream, turning the jitter knob would advance the generator and change
// *which* workers straggle — every skew sweep would entangle its axes.
constexpr std::uint64_t kJitterStream = 0x5b8e6b3a1f0c2d4eULL;
constexpr std::uint64_t kStragglerStream = 0x94d049bb133111ebULL;

std::uint64_t NumStragglers(const SimulationOptions& options) {
  return static_cast<std::uint64_t>(options.straggler_fraction *
                                    static_cast<double>(options.num_workers));
}

// One entry of the post-defense reducer list: a real reducer, a sub-reducer
// carved out of a hot key, or the merge reducer that recombines a split
// key's partial results. `origin` indexes the caller's ReducerLoad vector.
struct SimReducer {
  std::uint64_t hash = 0;
  std::uint64_t pairs = 0;
  std::uint64_t bytes = 0;
  std::uint32_t origin = 0;
};

// Applies the hot-key-split defense in the cost domain: every reducer whose
// input exceeds the threshold becomes ceil(pairs / threshold) sub-reducers
// (scattered across the hash space by sub-hash) plus one merge reducer
// under the original hash combining the partial results. This is the
// paper's q-vs-r tradeoff per key: capacity q is restored for the price of
// (parts - 1) extra key replicas plus a merge input of `parts` pairs.
std::vector<SimReducer> ApplyHotKeySplit(
    const std::vector<ReducerLoad>& reducers, const SimulationOptions& options,
    SimulationReport& report) {
  const double threshold = options.defense.hot_key_split_threshold;
  std::vector<SimReducer> effective;
  effective.reserve(reducers.size());
  for (std::size_t i = 0; i < reducers.size(); ++i) {
    const ReducerLoad& r = reducers[i];
    const auto origin = static_cast<std::uint32_t>(i);
    if (threshold <= 0 || static_cast<double>(r.pairs) <= threshold) {
      effective.push_back({r.key_hash, r.pairs, r.bytes, origin});
      continue;
    }
    const auto parts = static_cast<std::uint64_t>(
        (static_cast<double>(r.pairs) + threshold - 1) / threshold);
    ++report.hot_keys_split;
    for (std::uint64_t p = 0; p < parts; ++p) {
      // Sub-hashes scatter the fragments across the hash space so they
      // land on different workers; near-equal sizes, earlier parts take
      // the remainder.
      SimReducer sub;
      sub.hash = common::Mix64(r.key_hash ^ (p + 1));
      sub.pairs = r.pairs / parts + (p < r.pairs % parts ? 1 : 0);
      sub.bytes = r.bytes / parts + (p < r.bytes % parts ? 1 : 0);
      sub.origin = origin;
      effective.push_back(sub);
    }
    // The deterministic merge step: one pair per partial result, placed
    // back on the original key's hash.
    effective.push_back({r.key_hash, parts, 0, origin});
  }
  return effective;
}

}  // namespace

std::vector<double> WorkerSpeeds(const SimulationOptions& options) {
  MRCOST_CHECK(options.num_workers > 0);
  MRCOST_CHECK(options.straggler_slowdown >= 1.0);
  MRCOST_CHECK(options.speed_jitter >= 0.0 && options.speed_jitter < 1.0);
  MRCOST_CHECK(options.straggler_fraction >= 0.0 &&
               options.straggler_fraction <= 1.0);
  std::vector<double> speeds(options.num_workers, 1.0);
  if (options.speed_jitter > 0) {
    common::SplitMix64 jitter(options.seed ^ kJitterStream);
    for (double& s : speeds) {
      s = 1.0 - options.speed_jitter +
          2.0 * options.speed_jitter * jitter.UniformDouble();
    }
  }
  if (options.straggler_slowdown > 1.0) {
    for (std::uint64_t w : StragglerWorkers(options)) {
      speeds[w] /= options.straggler_slowdown;
    }
  }
  return speeds;
}

std::vector<std::uint64_t> StragglerWorkers(const SimulationOptions& options) {
  MRCOST_CHECK(options.num_workers > 0);
  MRCOST_CHECK(options.straggler_fraction >= 0.0 &&
               options.straggler_fraction <= 1.0);
  const std::uint64_t count = NumStragglers(options);
  if (count == 0) return {};
  common::SplitMix64 rng(options.seed ^ kStragglerStream);
  auto workers =
      common::SampleWithoutReplacement(options.num_workers, count, rng);
  std::sort(workers.begin(), workers.end());
  return workers;
}

SimulationReport SimulateCluster(const std::vector<ReducerLoad>& reducers,
                                 const SimulationOptions& options) {
  MRCOST_CHECK(options.enabled());
  MRCOST_CHECK(options.defense.speculation_slowdown_factor >= 1.0);
  SimulationReport report;
  report.num_workers = options.num_workers;
  report.queues.resize(options.num_workers);
  const std::vector<double> speeds = WorkerSpeeds(options);
  for (std::size_t w = 0; w < options.num_workers; ++w) {
    report.queues[w].speed = speeds[w];
  }

  // Defense 1 — hot-key splitting. Runs before capacity accounting: a
  // split that brings every sub-group under q removes the violation.
  const std::vector<SimReducer> effective =
      ApplyHotKeySplit(reducers, options, report);
  for (const SimReducer& r : effective) {
    if ((options.reducer_capacity_q > 0 &&
         static_cast<double>(r.pairs) > options.reducer_capacity_q) ||
        (options.reducer_capacity_bytes > 0 &&
         r.bytes > options.reducer_capacity_bytes)) {
      ++report.capacity_violations;
    }
  }

  // Defense 2 — placement. Default is the blind IndexOfHash placement the
  // sharded shuffle uses, so the simulated cluster and the real shuffle
  // agree on where a key lives. kSampledRange instead cuts the sorted hash
  // line into contiguous ranges of near-equal *cost*, the sampled
  // range-partitioning the engine applies when the chooser detects skew.
  const bool ranged =
      options.defense.partitioner == PartitionerKind::kSampledRange &&
      options.num_workers > 1;
  RangePartitioner range(std::vector<std::uint64_t>{}, 1);
  if (ranged) {
    std::vector<std::pair<std::uint64_t, double>> weighted;
    weighted.reserve(effective.size());
    for (const SimReducer& r : effective) {
      weighted.emplace_back(
          r.hash, options.cost_per_pair * static_cast<double>(r.pairs) +
                      options.cost_per_byte * static_cast<double>(r.bytes));
    }
    range = BuildWeightedRangePartitioner(std::move(weighted),
                                          options.num_workers);
  }

  // Assignment pass: each (possibly split) reducer joins the queue of the
  // worker its hash lands on under the chosen placement. queue.reducers
  // records the *origin* index into the caller's ReducerLoad vector, so
  // placement stays inspectable even after splitting.
  for (const SimReducer& r : effective) {
    const std::size_t w = ranged
                              ? range.ShardOf(r.hash)
                              : IndexOfHash(r.hash, options.num_workers);
    WorkerQueue& queue = report.queues[w];
    queue.reducers.push_back(r.origin);
    queue.pairs += r.pairs;
    queue.bytes += r.bytes;
  }

  // Cost pass: each worker drains its queue at its own speed; a round ends
  // when the slowest worker finishes (the paper's rounds are barriers).
  double total_cost = 0;
  double total_speed = 0;
  double homogeneous_makespan = 0;
  double max_speed = 0;
  for (WorkerQueue& queue : report.queues) {
    queue.cost = options.cost_per_pair * static_cast<double>(queue.pairs) +
                 options.cost_per_byte * static_cast<double>(queue.bytes);
    queue.finish_time = queue.cost / queue.speed;
    queue.effective_finish_time = queue.finish_time;
    total_cost += queue.cost;
    total_speed += queue.speed;
    max_speed = std::max(max_speed, queue.speed);
    homogeneous_makespan = std::max(homogeneous_makespan, queue.cost);
  }

  // Defense 3 — speculative backups. A worker whose projected finish
  // exceeds factor x the median busy-worker finish gets its queue
  // re-issued on the fastest worker at the trigger time; whichever copy
  // finishes first wins (the executor's first-finisher-wins contract, in
  // cost units). The original's result is never discarded early, so the
  // effective finish is the min of the two.
  if (options.defense.speculation) {
    std::vector<double> busy;
    busy.reserve(report.queues.size());
    for (const WorkerQueue& queue : report.queues) {
      if (queue.cost > 0) busy.push_back(queue.finish_time);
    }
    if (!busy.empty() && max_speed > 0) {
      std::sort(busy.begin(), busy.end());
      const double median = busy[busy.size() / 2];
      const double trigger =
          options.defense.speculation_slowdown_factor * median;
      if (median > 0) {
        for (WorkerQueue& queue : report.queues) {
          if (queue.finish_time <= trigger || queue.cost <= 0) continue;
          ++report.speculative_launched;
          const double backup = trigger + queue.cost / max_speed;
          if (backup < queue.finish_time) {
            queue.effective_finish_time = backup;
            ++report.speculative_won;
          }
        }
      }
    }
  }

  for (WorkerQueue& queue : report.queues) {
    report.makespan = std::max(report.makespan, queue.effective_finish_time);
    report.max_worker_pairs =
        std::max<std::uint64_t>(report.max_worker_pairs, queue.pairs);
    report.worker_pairs.Add(static_cast<double>(queue.pairs));
    report.worker_bytes.Add(static_cast<double>(queue.bytes));
    report.worker_times.Add(queue.effective_finish_time);
  }
  report.ideal_makespan = total_speed > 0 ? total_cost / total_speed : 0;
  report.load_imbalance = report.worker_pairs.skew();
  report.straggler_impact =
      homogeneous_makespan > 0 ? report.makespan / homogeneous_makespan : 0;

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
      event.args.push_back(obs::Arg("bytes", queue.bytes));
      event.args.push_back(
          obs::Arg("reducers", static_cast<std::uint64_t>(queue.reducers.size())));
      event.args.push_back(obs::Arg("speed", queue.speed));
      if (queue.effective_finish_time < queue.finish_time) {
        event.args.push_back(obs::Arg("rescued_by", "speculation"));
      }
      recorder.Append(std::move(event));
    }
    if (report.hot_keys_split > 0) {
      obs::TraceInstant("HotKeysSplit", "sim", 0,
                        {obs::Arg("count", report.hot_keys_split)});
    }
  }
  return report;
}

std::string SimulationReport::ToString() const {
  std::ostringstream os;
  os << "workers=" << num_workers << " makespan=" << makespan
     << " ideal=" << ideal_makespan << " imbalance=" << load_imbalance
     << " straggler_impact=" << straggler_impact
     << " capacity_violations=" << capacity_violations
     << " max_worker_pairs=" << max_worker_pairs;
  if (hot_keys_split > 0 || speculative_launched > 0) {
    os << " hot_keys_split=" << hot_keys_split
       << " speculative=" << speculative_won << "/" << speculative_launched;
  }
  return os.str();
}

}  // namespace mrcost::engine
