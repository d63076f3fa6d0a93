// The stage-graph execution core (src/engine/executor.h): dependency
// scheduling on the shared ThreadPool, the staged round's determinism
// across strategies/threads/shards (byte-identical to the serial
// reference), the per-stage timing metrics, and the bounded AsyncRunner
// behind ExecuteAsync.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/engine/executor.h"
#include "src/engine/plan.h"
#include "src/engine/simulator.h"

namespace mrcost::engine {
namespace {

// ------------------------------------------------------- task scheduling

TEST(StageGraphExecutor, RunsTasksInDependencyOrder) {
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<int> stage{0};
  std::vector<int> observed(3, -1);

  const auto a = exec.AddTask(StageKind::kMap, 0, {}, [&] {
    observed[0] = stage.fetch_add(1);
  });
  const auto b = exec.AddTask(StageKind::kShuffle, 0, {a}, [&] {
    observed[1] = stage.fetch_add(1);
  });
  exec.AddTask(StageKind::kReduce, 0, {b}, [&] {
    observed[2] = stage.fetch_add(1);
  });
  exec.Wait();
  EXPECT_EQ(observed[0], 0);
  EXPECT_EQ(observed[1], 1);
  EXPECT_EQ(observed[2], 2);
}

TEST(StageGraphExecutor, DiamondJoinWaitsForAllDependencies) {
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<int> sources_done{0};
  bool join_saw_both = false;

  const auto a = exec.AddTask(StageKind::kMap, 0, {}, [&] {
    ++sources_done;
  });
  const auto b = exec.AddTask(StageKind::kMap, 0, {}, [&] {
    ++sources_done;
  });
  exec.AddTask(StageKind::kShuffle, 0, {a, b}, [&] {
    join_saw_both = sources_done.load() == 2;
  });
  exec.Wait();
  EXPECT_TRUE(join_saw_both);
}

TEST(StageGraphExecutor, TasksAddedAgainstCompletedDepsStillRun) {
  // The plan driver stages round k+1 after round k's tasks may already
  // have drained; deps on finished tasks must count as satisfied.
  common::ThreadPool pool(2);
  StageGraphExecutor exec(pool);
  const auto a = exec.AddTask(StageKind::kMap, 0, {}, [] {});
  exec.Wait();
  bool ran = false;
  exec.AddTask(StageKind::kReduce, 1, {a, StageGraphExecutor::kNoTask},
               [&] { ran = true; });
  exec.Wait();
  EXPECT_TRUE(ran);
}

TEST(StageGraphExecutor, RecordsSpansForEveryTask) {
  common::ThreadPool pool(2);
  StageGraphExecutor exec(pool);
  const auto a = exec.AddTask(StageKind::kMap, 7, {}, [] {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  });
  exec.Wait();
  const TaskSpan span = exec.SpanOf(a);
  EXPECT_GE(span.end_ms, span.begin_ms);
  const auto records = exec.SnapshotRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].round_tag, 7u);
  EXPECT_EQ(records[0].kind, StageKind::kMap);
}

// ------------------------------------------------ staged-round semantics

/// Order-sensitive fold so any grouping or ordering deviation from the
/// serial reference changes the output bytes.
struct FoldJob {
  static void Map(const std::uint64_t& x,
                  Emitter<std::uint64_t, std::uint64_t>& emitter) {
    emitter.Emit(x % 193, x);
    emitter.Emit(x % 677, x * 3 + 1);
  }
  static void Reduce(const std::uint64_t& key,
                     GroupView<std::uint64_t> values,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                         out) {
    std::uint64_t acc = key;
    for (std::uint64_t v : values) acc = acc * 1099511628211ULL + v;
    out.emplace_back(key, acc);
  }
  /// The fold as a one-round plan executed under `options`.
  static ExecutionResult<std::pair<std::uint64_t, std::uint64_t>> Run(
      const std::vector<std::uint64_t>& inputs, const JobOptions& options) {
    return Plan()
        .Source(inputs)
        .Map<std::uint64_t, std::uint64_t>(&FoldJob::Map)
        .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(&FoldJob::Reduce)
        .Execute(ExecutionOptions(options));
  }
};

TEST(StagedRound, ByteIdenticalAcrossStrategiesThreadsAndShards) {
  std::vector<std::uint64_t> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);

  JobOptions serial;
  serial.num_threads = 1;
  serial.num_shards = 1;
  const auto reference = FoldJob::Run(inputs, serial);

  for (std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t shards : {0u, 1u, 3u, 8u}) {
      for (ShuffleStrategy strategy :
           {ShuffleStrategy::kSharded, ShuffleStrategy::kExternal}) {
        JobOptions options;
        options.num_threads = threads;
        options.num_shards = shards;
        options.shuffle.strategy = strategy;
        if (strategy == ShuffleStrategy::kExternal) {
          options.shuffle.memory_budget_bytes = 1 << 12;
        }
        const auto run = FoldJob::Run(inputs, options);
        EXPECT_EQ(run.outputs, reference.outputs)
            << "threads=" << threads << " shards=" << shards
            << " strategy=" << ToString(strategy);
        const JobMetrics& m = run.metrics.rounds[0];
        const JobMetrics& want = reference.metrics.rounds[0];
        EXPECT_EQ(m.pairs_shuffled, want.pairs_shuffled);
        EXPECT_EQ(m.num_reducers, want.num_reducers);
        EXPECT_EQ(m.max_reducer_input, want.max_reducer_input);
      }
    }
  }
}

TEST(StagedRound, ReportsStageTimings) {
  std::vector<std::uint64_t> inputs(30000);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions options;
  options.num_threads = 4;
  options.num_shards = 4;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  const auto run = FoldJob::Run(inputs, options);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_TRUE(m.timed());
  EXPECT_GT(m.span_ms, 0.0);
  EXPECT_GT(m.map_ms, 0.0);
  EXPECT_GT(m.shuffle_ms, 0.0);
  EXPECT_GT(m.reduce_ms, 0.0);
  EXPECT_GE(m.barrier_wait_ms, 0.0);
  EXPECT_GE(m.overlap_fraction(), 0.0);
  EXPECT_LE(m.overlap_fraction(), 2.0);  // two adjacent-stage pairs
}

TEST(StagedRound, EmptyInputProducesEmptyTimedRound) {
  std::vector<std::uint64_t> inputs;
  const auto run = FoldJob::Run(inputs, {});
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_EQ(run.metrics.rounds[0].num_inputs, 0u);
  EXPECT_EQ(run.metrics.rounds[0].num_reducers, 0u);
}

TEST(StagedRound, SimulationIdenticalAcrossSchedules) {
  // A round's shard loads are a function of the input and the shard
  // count alone, so the simulation priced on them is identical at every
  // thread count even though task completion order varies.
  std::vector<std::uint64_t> inputs(5000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto run_with_threads = [&](std::size_t threads) {
    JobOptions options;
    options.num_threads = threads;
    options.num_shards = 6;
    return FoldJob::Run(inputs, options);
  };
  const auto one = run_with_threads(1);
  const auto four = run_with_threads(4);
  EXPECT_EQ(one.outputs, four.outputs);
  const JobMetrics& m1 = one.metrics.rounds[0];
  const JobMetrics& m4 = four.metrics.rounds[0];
  ASSERT_EQ(m1.shard_pairs.size(), 6u);
  EXPECT_EQ(m1.shard_pairs, m4.shard_pairs);
  SimulationOptions cluster;
  cluster.straggler_fraction = 0.3;
  cluster.straggler_slowdown = 3.0;
  cluster.speed_jitter = 0.1;
  cluster.seed = 11;
  cluster.speculation = true;
  const SimulationReport r1 = SimulateCluster(m1.shard_pairs, cluster);
  const SimulationReport r4 = SimulateCluster(m4.shard_pairs, cluster);
  EXPECT_GT(r1.makespan, 0.0);
  EXPECT_EQ(r1.makespan, r4.makespan);
  EXPECT_EQ(r1.load_imbalance, r4.load_imbalance);
}

// ------------------------------------------------------- speculation

// Speculation tests drive the executor with a manual clock
// (SetClockForTest) and tasks gated on atomics, so backup triggering is a
// deterministic function of the test script, not of scheduler timing.

TEST(StageGraphExecutor, SpeculationBackupWinsAgainstStraggler) {
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  SpeculationConfig spec;
  spec.enabled = true;
  spec.slowdown_factor = 2.0;
  spec.min_completed = 3;
  spec.min_task_ms = 0.0;
  exec.ConfigureSpeculation(spec);

  // Three fast peers establish the median duration for (round 5, reduce).
  for (int i = 0; i < 3; ++i) {
    exec.AddTask(StageKind::kReduce, 5, {}, [] {}, /*speculatable=*/true);
  }
  exec.Wait();

  // The straggler: the first attempt spins until the backup (second
  // attempt of the same fn) releases it, so the backup always finishes
  // first and the original's result is the duplicate to discard.
  std::atomic<int> entries{0};
  std::atomic<bool> release{false};
  exec.AddTask(
      StageKind::kReduce, 5, {},
      [&] {
        if (entries.fetch_add(1) == 0) {
          while (!release.load()) std::this_thread::yield();
        } else {
          release.store(true);
        }
      },
      /*speculatable=*/true);
  while (entries.load() == 0) std::this_thread::yield();
  clock_ms.store(1000.0);  // straggler is now far past the threshold
  exec.Wait();

  EXPECT_EQ(entries.load(), 2);  // the task genuinely ran twice
  const auto stats = exec.speculation_stats(5);
  EXPECT_EQ(stats.launched, 1u);
  EXPECT_EQ(stats.won, 1u);
  EXPECT_EQ(stats.discarded, 1u);
  // Other rounds are untouched.
  EXPECT_EQ(exec.speculation_stats(0).launched, 0u);
}

TEST(StageGraphExecutor, SpeculationNeverFiresOnUniformTasks) {
  // Regression: with every task the same speed there is no straggler, so
  // no backup may launch no matter how many tasks complete.
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  SpeculationConfig spec;
  spec.enabled = true;
  spec.slowdown_factor = 2.0;
  spec.min_completed = 3;
  exec.ConfigureSpeculation(spec);

  std::atomic<int> runs{0};
  for (int i = 0; i < 16; ++i) {
    exec.AddTask(StageKind::kReduce, 3, {}, [&] { ++runs; },
                 /*speculatable=*/true);
  }
  exec.Wait();
  EXPECT_EQ(runs.load(), 16);  // every task ran exactly once
  const auto stats = exec.speculation_stats(3);
  EXPECT_EQ(stats.launched, 0u);
  EXPECT_EQ(stats.won, 0u);
  EXPECT_EQ(stats.discarded, 0u);
}

TEST(StageGraphExecutor, SpeculationWaitsForMinCompletedPeers) {
  // With fewer completed peers than min_completed the median is not
  // trusted and no backup launches, even for an arbitrarily slow task.
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  SpeculationConfig spec;
  spec.enabled = true;
  spec.slowdown_factor = 2.0;
  spec.min_completed = 3;
  spec.min_task_ms = 0.0;
  exec.ConfigureSpeculation(spec);

  for (int i = 0; i < 2; ++i) {  // one short of min_completed
    exec.AddTask(StageKind::kReduce, 7, {}, [] {}, /*speculatable=*/true);
  }
  exec.Wait();

  std::atomic<bool> entered{false};
  exec.AddTask(
      StageKind::kReduce, 7, {},
      [&] {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
      },
      /*speculatable=*/true);
  while (!entered.load()) std::this_thread::yield();
  clock_ms.store(1000.0);
  exec.Wait();
  EXPECT_EQ(exec.speculation_stats(7).launched, 0u);
}

TEST(StageGraphExecutor, DuplicateResultCommitsExactlyOnce) {
  // Both attempts race to finish; whichever wins, exactly one result may
  // commit (the StagedRound first-wins pattern) and exactly one attempt
  // is discarded.
  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  SpeculationConfig spec;
  spec.enabled = true;
  spec.slowdown_factor = 2.0;
  spec.min_completed = 3;
  spec.min_task_ms = 0.0;
  exec.ConfigureSpeculation(spec);

  for (int i = 0; i < 3; ++i) {
    exec.AddTask(StageKind::kReduce, 9, {}, [] {}, /*speculatable=*/true);
  }
  exec.Wait();

  std::atomic<int> entries{0};
  std::atomic<bool> both_running{false};
  std::mutex commit_mu;
  int commits = 0;
  exec.AddTask(
      StageKind::kReduce, 9, {},
      [&] {
        if (entries.fetch_add(1) == 0) {
          // Original: hold until the backup is also inside the fn, then
          // both race to the commit.
          while (!both_running.load()) std::this_thread::yield();
        } else {
          both_running.store(true);
        }
        std::unique_lock<std::mutex> lock(commit_mu);
        if (commits == 0) ++commits;  // first-wins commit
      },
      /*speculatable=*/true);
  while (entries.load() == 0) std::this_thread::yield();
  clock_ms.store(1000.0);
  exec.Wait();

  EXPECT_EQ(entries.load(), 2);
  EXPECT_EQ(commits, 1);
  const auto stats = exec.speculation_stats(9);
  EXPECT_EQ(stats.launched, 1u);
  EXPECT_EQ(stats.discarded, 1u);
  EXPECT_LE(stats.won, 1u);  // ties go to whichever attempt finished first
}

TEST(StagedRound, SpeculationPreservesOutputsAndReportsStats) {
  // End-to-end: an aggressive speculation config on a real round may
  // launch backups freely, but outputs stay byte-identical to the serial
  // reference and the stats stay consistent.
  std::vector<std::uint64_t> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions serial;
  serial.num_threads = 1;
  serial.num_shards = 1;
  const auto reference = FoldJob::Run(inputs, serial);

  JobOptions options;
  options.num_threads = 4;
  options.num_shards = 8;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.speculation.enabled = true;
  options.speculation.slowdown_factor = 1.0;  // hair trigger
  options.speculation.min_completed = 1;
  options.speculation.min_task_ms = 0.0;
  const auto run = FoldJob::Run(inputs, options);
  EXPECT_EQ(run.outputs, reference.outputs);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_GE(m.speculative_launched, m.speculative_won);
}

TEST(StagedRound, SpeculativeTwinsReduceOneSharedView) {
  // One hot key's reducer blocks until a backup attempt of its shard task
  // enters the same reducer: both attempts must read the one committed
  // value buffer (no per-attempt copy) and the round must stay
  // byte-identical to the serial reference.
  std::vector<std::uint64_t> inputs(20000);
  std::iota(inputs.begin(), inputs.end(), 0);
  using Out = std::pair<std::uint64_t, std::uint64_t>;
  JobOptions serial;
  serial.num_threads = 1;
  serial.num_shards = 1;
  const auto reference = FoldJob::Run(inputs, serial);

  constexpr std::uint64_t kHot = 5;
  std::atomic<int> hot_calls{0};
  std::atomic<const std::uint64_t*> views[2] = {nullptr, nullptr};
  auto reduce = [&](const std::uint64_t& key, GroupView<std::uint64_t> values,
                    std::vector<Out>& out) {
    if (key == kHot) {
      const int call = hot_calls.fetch_add(1);
      if (call < 2) views[call].store(values.data());
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (call == 0 && hot_calls.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    FoldJob::Reduce(key, values, out);
  };

  common::ThreadPool pool(4);
  StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  JobOptions options;
  options.pool = &pool;
  options.num_shards = 8;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.speculation.enabled = true;
  options.speculation.slowdown_factor = 2.0;
  options.speculation.min_completed = 3;
  options.speculation.min_task_ms = 0.0;
  using Round = internal::StagedRound<std::uint64_t, std::uint64_t,
                                      std::uint64_t, Out, internal::NoCombine>;
  auto round = Round::StageMaterialized(
      exec, 0, inputs, nullptr, &FoldJob::Map, internal::NoCombine{}, reduce,
      options,
      internal::ResolvePhysicalRound(options,
                                     {pool.num_threads(), inputs.size()}));
  round->StageFinalize();
  while (hot_calls.load() == 0) std::this_thread::yield();
  clock_ms.store(1000.0);  // the hot shard now runs long past its peers
  exec.Wait();

  EXPECT_EQ(hot_calls.load(), 2);
  EXPECT_NE(views[0].load(), nullptr);
  EXPECT_EQ(views[0].load(), views[1].load());
  const JobResult<Out> run = round->TakeResult();
  EXPECT_EQ(run.outputs, reference.outputs);
  EXPECT_GE(run.metrics.speculative_launched, 1u);
}

// ------------------------------------------------------------ AsyncRunner

TEST(AsyncRunner, RunsQueuedWorkToCompletion) {
  auto f1 = AsyncRunner::Global().Run([] { return 1 + 1; });
  auto f2 = AsyncRunner::Global().Run([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 2);
  EXPECT_EQ(f2.get(), "done");
}

TEST(AsyncRunner, ManyConcurrentSubmissionsAllResolve) {
  // The point of the runner: dozens of outstanding futures share a fixed
  // pool instead of spawning a thread each — and all of them resolve.
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(AsyncRunner::Global().Run([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

}  // namespace
}  // namespace mrcost::engine
