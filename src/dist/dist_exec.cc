// The multi-process lowering of ExecutePlanGraph: the same round loop as
// src/engine/plan.cc's in-process path, but each round's map and reduce
// tasks run in mrcost-worker processes via dist::Coordinator. Map runs stay
// in the worker that made them and reducers fetch them over its data
// socket; chunk and result files pass through a shared job directory.
// Declared in plan.h (engine::internal::ExecutePlanGraphMulti), defined
// here so the engine library does not depend on the dist layer's headers
// from its own.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/dist/coordinator.h"
#include "src/dist/scheduler.h"
#include "src/engine/executor.h"
#include "src/engine/plan.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::engine::internal {
namespace {

// A reduce whose fetch lost its source retries until the dead owner's maps
// are re-run elsewhere. When no owner is known dead yet (the fetch saw the
// socket drop before the coordinator did), it sleeps kRetrySleep first;
// kMaxReduceTries attempts bound the whole wait to about six seconds,
// three heartbeat timeouts at the default settings.
constexpr int kMaxReduceTries = 120;
constexpr std::chrono::milliseconds kRetrySleep{50};

}  // namespace

PipelineMetrics ExecutePlanGraphMulti(PlanGraph& graph,
                                      const ExecutionOptions& options,
                                      std::size_t target) {
  const std::vector<bool> needed = NeededNodes(graph, target);

  // A plan can only cross process boundaries when workers can rebuild it
  // (a registered recipe) and every needed round's types crossed the
  // serde gate at plan-build time. Anything else runs in-process with a
  // warning — per plan, not per round, so one job never splits across
  // runtimes.
  bool can_distribute = !graph.dist_recipe.empty();
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    if (needed[id] && !graph.nodes[id].is_source &&
        graph.nodes[id].dist == nullptr) {
      can_distribute = false;
    }
  }
  if (!can_distribute) {
    std::fprintf(stderr,
                 "mrcost: plan cannot run multi-process (%s); falling back "
                 "to in-process (%s)\n",
                 graph.dist_recipe.empty() ? "not a registered dist recipe"
                                           : "non-serializable rounds",
                 graph.dist_recipe.empty() ? "stamp it via dist::PlanRegistry"
                                           : "types must pass IsSerdeSerializable");
    ExecutionOptions fallback = options;
    fallback.backend = ExecutionBackend::kInProcess;
    return ExecutePlanGraph(graph, fallback, target);
  }

  std::optional<obs::ScopedCapture> capture;
  if (!options.trace_out.empty() || !options.metrics_out.empty()) {
    capture.emplace(options.trace_out, options.metrics_out);
  }
  const bool trace_on = obs::TraceRecorder::enabled();
  const bool metrics_on = obs::MetricsEnabled();

  // The shared shuffle directory. Always a fresh unique dir (under the
  // requested base when given) so concurrent jobs never collide;
  // keep_spills pins it for post-mortems.
  auto job_dir_result =
      common::TempDir::Create(options.dist.spill_dir, "mrcost-distd-");
  MRCOST_CHECK_OK(job_dir_result.status());
  common::TempDir job_dir = std::move(*job_dir_result);
  if (options.dist.keep_spills) job_dir.Keep();

  dist::Coordinator coordinator;
  {
    dist::Coordinator::Options copts;
    copts.num_workers = std::max(1, options.dist.num_workers);
    copts.recipe = graph.dist_recipe;
    copts.args = graph.dist_args;
    copts.spill_dir = job_dir.path();
    copts.worker_binary = options.dist.worker_binary;
    copts.trace_enabled = trace_on;
    copts.metrics_enabled = metrics_on;
    copts.heartbeat_interval_ms = options.dist.heartbeat_interval_ms;
    copts.heartbeat_timeout_ms = options.dist.heartbeat_timeout_ms;
    copts.kill_worker_index = options.dist.kill_worker_index;
    copts.kill_after_tasks = options.dist.kill_after_tasks;
    copts.kill_after_fetches = options.dist.kill_after_fetches;
    copts.retain_budget_bytes = options.dist.retain_budget_bytes;
    // A backend the caller asked for that cannot start is fatal, not a
    // silent fallback: CI byte-identity smokes must never "pass" by
    // quietly running in-process.
    MRCOST_CHECK_OK(coordinator.Start(copts));
  }

  const int num_workers = std::max(1, options.dist.num_workers);
  dist::DistTaskScheduler scheduler(num_workers);
  graph.last_physical.clear();

  PipelineMetrics pipeline_metrics;
  double exec_begin = std::numeric_limits<double>::infinity();
  double exec_end = -std::numeric_limits<double>::infinity();
  // Runs re-executed because their owner worker died while (or before) a
  // reducer fetched them, and the time reducers slept waiting for a death
  // to be detected.
  std::atomic<std::uint64_t> refetched_runs{0};
  std::atomic<std::uint64_t> retry_wait_ms{0};

  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    PlanNode& node = graph.nodes[id];
    if (node.is_source || !needed[id]) continue;

    // The same resolution the in-process backend and Explain run, so the
    // round's chunks (and with them combined partials) and its shards
    // match theirs exactly.
    const std::size_t n = node.input_size(graph);
    const ResolvedRound round = ResolveMaterializedRound(graph, node, options);
    const PhysicalRound& physical = round.physical;
    const std::size_t num_chunks = physical.chunks;
    const std::size_t num_shards = physical.shards;
    const std::size_t merge_fan_in = round.options.shuffle.merge_fan_in;
    const std::uint32_t fetch_credits = physical.fetch_credits;

    const std::string round_prefix =
        job_dir.path() + "/r" + std::to_string(id);
    const std::uint64_t round_t0_us = obs::TraceRecorder::NowUs();

    // Chunk files: the coordinator slices the materialized input slot.
    std::vector<std::string> chunk_paths(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      chunk_paths[c] = round_prefix + "-c" + std::to_string(c) + ".chunk";
      const auto [lo, hi] = physical.ChunkRange(c, n);
      MRCOST_CHECK_OK(node.dist->write_chunk(graph.slots[node.input], lo,
                                             hi, chunk_paths[c]));
    }

    // Map tasks fan out over chunks, reduce tasks over shards behind a
    // dependency barrier (a reduce needs every chunk's run for its
    // shard). Each task blocks inside the coordinator while a worker
    // executes it; worker death re-issues below this seam.
    std::vector<engine::internal::DistMapOutcome> map_outcomes(num_chunks);
    std::vector<engine::internal::DistReduceOutcome> reduce_outcomes(
        num_shards);
    std::vector<std::string> result_paths(num_shards);
    std::vector<TaskScheduler::TaskId> map_ids(num_chunks);
    std::vector<TaskScheduler::TaskId> reduce_ids(num_shards);
    // Which worker holds each chunk's runs (its endpoint is where
    // reducers fetch them) — repaired under remap_mu when an
    // owner dies mid-shuffle. remap_epoch makes repair run ids distinct
    // from every earlier attempt's.
    std::vector<int> chunk_owner(num_chunks, -1);
    std::mutex remap_mu;
    int remap_epoch = 0;

    // Runs chunk c's map on some worker and records where its runs live;
    // `tag` keeps a repair epoch's run ids distinct from earlier ones.
    const auto run_map = [&](std::size_t c, const std::string& tag) {
      int winner = -1;
      auto outcome = coordinator.RunMap(
          static_cast<std::uint32_t>(id),
          [&](int attempt) {
            engine::internal::DistMapSpec spec;
            spec.chunk_path = chunk_paths[c];
            spec.chunk_index = static_cast<std::uint32_t>(c);
            spec.num_shards = static_cast<std::uint32_t>(num_shards);
            spec.run_prefix = round_prefix + "-c" + std::to_string(c) + tag +
                              "-a" + std::to_string(attempt);
            return spec;
          },
          static_cast<std::uint32_t>(c),
          static_cast<std::uint32_t>(num_shards), &winner);
      MRCOST_CHECK_OK(outcome.status());
      map_outcomes[c] = std::move(*outcome);
      chunk_owner[c] = winner;
    };
    for (std::size_t c = 0; c < num_chunks; ++c) {
      map_ids[c] = scheduler.AddTask(StageKind::kMap,
                                     static_cast<std::uint32_t>(id), {},
                                     [&, c] { run_map(c, ""); });
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      reduce_ids[s] = scheduler.AddTask(
          StageKind::kReduce, static_cast<std::uint32_t>(id), map_ids,
          [&, s] {
            // Runs after every map outcome for this round landed. A fetch
            // that lost its source worker fails kUnavailable; we re-execute
            // the dead owners' maps and try again with fresh endpoints.
            for (int tries = 1;; ++tries) {
              std::vector<std::string> run_ids;
              std::vector<std::string> run_endpoints;
              {
                std::lock_guard<std::mutex> lock(remap_mu);
                for (std::size_t c = 0; c < num_chunks; ++c) {
                  for (const auto& run : map_outcomes[c].runs) {
                    if (run.shard != s) continue;
                    run_ids.push_back(run.run_id);
                    run_endpoints.push_back(dist::DataEndpointPath(
                        job_dir.path(), chunk_owner[c]));
                  }
                }
              }
              auto outcome = coordinator.RunReduce(
                  static_cast<std::uint32_t>(id), [&, s](int attempt) {
                    engine::internal::DistReduceSpec spec;
                    spec.shard = static_cast<std::uint32_t>(s);
                    spec.run_ids = run_ids;
                    spec.run_endpoints = run_endpoints;
                    spec.fetch_credits = fetch_credits;
                    spec.result_path = round_prefix + "-s" +
                                       std::to_string(s) + "-t" +
                                       std::to_string(tries) + "-a" +
                                       std::to_string(attempt) + ".res";
                    spec.scratch_dir = job_dir.path();
                    if (merge_fan_in > 0) spec.merge_fan_in = merge_fan_in;
                    // One attempt is in flight at a time and only the
                    // latest can commit (dead workers' sockets are cut),
                    // so the last spec built is the winning attempt's.
                    result_paths[s] = spec.result_path;
                    return spec;
                  });
              if (outcome.ok()) {
                reduce_outcomes[s] = std::move(*outcome);
                return;
              }
              const bool retryable = outcome.status().code() ==
                                     common::StatusCode::kUnavailable;
              if (!retryable || tries >= kMaxReduceTries) {
                MRCOST_CHECK_OK(outcome.status());
              }
              // Repair: re-execute the maps whose owner worker is gone,
              // publishing their runs on a live worker. Serialized so
              // concurrent reducers repair each chunk once.
              bool remapped = false;
              {
                std::lock_guard<std::mutex> lock(remap_mu);
                int epoch = 0;
                for (std::size_t c = 0; c < num_chunks; ++c) {
                  if (coordinator.worker_live(chunk_owner[c])) continue;
                  if (!remapped) {
                    remapped = true;
                    epoch = ++remap_epoch;
                  }
                  run_map(c, "-r" + std::to_string(epoch));
                  refetched_runs.fetch_add(map_outcomes[c].runs.size());
                }
              }
              if (!remapped) {
                // The death may not be detected yet (the fetch saw the
                // socket drop before the coordinator did) — give the
                // receiver/monitor a beat, then rebuild and retry.
                std::this_thread::sleep_for(kRetrySleep);
                retry_wait_ms.fetch_add(kRetrySleep.count());
              }
            }
          });
    }
    scheduler.Wait();

    JobMetrics metrics;
    metrics.num_inputs = n;
    auto collected = node.dist->collect(result_paths, metrics);
    MRCOST_CHECK_OK(collected.status());
    graph.slots[id] = std::move(*collected);

    std::uint64_t encode_raw = 0;
    std::uint64_t encode_encoded = 0;
    for (const auto& outcome : map_outcomes) {
      metrics.pairs_shuffled += outcome.pairs;
      metrics.pairs_before_combine += outcome.raw_pairs;
      metrics.bytes_shuffled += outcome.bytes;
      metrics.blocks_emitted += outcome.blocks_emitted;
      metrics.bytes_copied += outcome.bytes_copied;
      metrics.spill_bytes_written += outcome.spill_bytes_written;
      metrics.spill_runs += outcome.runs.size();
      encode_raw += outcome.encode_raw_bytes;
      encode_encoded += outcome.encode_encoded_bytes;
    }
    if (encode_encoded > 0) {
      metrics.compression_ratio = static_cast<double>(encode_raw) /
                                  static_cast<double>(encode_encoded);
    }
    for (const auto& outcome : reduce_outcomes) {
      metrics.merge_passes += outcome.merge_passes;
      metrics.spill_bytes_written += outcome.spill_bytes_written;
    }

    // Stage windows from the scheduler spans (each span wraps the remote
    // execution it waited on).
    const StageWindow map = WindowOf(scheduler, map_ids);
    const StageWindow reduce = WindowOf(scheduler, reduce_ids);
    metrics.map_ms = map.end - map.begin;
    metrics.reduce_ms = reduce.end - reduce.begin;
    metrics.span_ms = reduce.end - map.begin;
    exec_begin = std::min(exec_begin, map.begin);
    exec_end = std::max(exec_end, reduce.end);

    if (trace_on) {
      obs::TraceEvent event;
      event.name = "Round";
      event.category = "round";
      event.round = static_cast<std::uint32_t>(id);
      event.t_start_us = round_t0_us;
      event.t_end_us = obs::TraceRecorder::NowUs();
      event.args.push_back(obs::Arg("label", node.label));
      event.args.push_back(obs::Arg("backend", "multi_process"));
      AppendRoundArgs(physical, round.prediction, metrics, event.args);
      obs::TraceRecorder::Global().Append(std::move(event));
    }
    if (metrics_on) metrics.PublishTo(obs::Registry::Global());

    graph.last_physical.push_back(physical);
    pipeline_metrics.Add(metrics);
  }

  // Stop before the capture scope closes: the workers' Bye payloads merge
  // into the global registry/trace here and must make the files.
  coordinator.Stop();
  if (metrics_on) {
    const auto stats = coordinator.stats();
    obs::Registry::Global().AddCounter("dist.workers",
                                       static_cast<std::uint64_t>(num_workers));
    obs::Registry::Global().AddCounter("dist.reissued_tasks",
                                       stats.reissued_tasks);
    obs::Registry::Global().AddCounter("dist.workers_died",
                                       stats.workers_died);
    obs::Registry::Global().AddCounter("dist.duplicate_commits",
                                       stats.duplicate_commits);
    obs::Registry::Global().AddCounter("dist.refetched_runs",
                                       refetched_runs.load());
    obs::Registry::Global().AddCounter("dist.retry_wait_ms",
                                       retry_wait_ms.load());
  }

  if (exec_end > exec_begin) {
    pipeline_metrics.exec_span_ms = exec_end - exec_begin;
  }
  return pipeline_metrics;
}

}  // namespace mrcost::engine::internal
