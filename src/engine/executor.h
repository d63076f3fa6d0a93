#ifndef MRCOST_ENGINE_EXECUTOR_H_
#define MRCOST_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/engine/emitter.h"
#include "src/engine/grouping.h"
#include "src/engine/hashing.h"
#include "src/engine/metrics.h"
#include "src/engine/partitioner.h"
#include "src/engine/shuffle.h"
#include "src/engine/simulator.h"
#include "src/engine/task_scheduler.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"

namespace mrcost::engine {

// The stage-graph execution core. The previous engine ran every round as
// map -> barrier -> shuffle -> barrier -> reduce; this layer dissolves
// those barriers into a task graph scheduled on the shared ThreadPool:
// each round decomposes into per-chunk MapPartition tasks, per-shard
// ShardGroup tasks, per-shard ReduceShard tasks, and one Finalize task,
// with explicit dependency edges. A shard whose group is complete starts
// reducing while other shards are still grouping, and — when a Plan stage
// declares a per-key input dependency — round k's reduce output for shard
// s streams straight into round k+1's map with no global barrier.
// Outputs stay byte-identical to the barrier engine for every strategy:
// every emitted pair carries a scan-order tag (internal::PairPos) and the
// deterministic first-seen merge runs on tags instead of arrival order.

/// Speculative-backup knobs: the executor re-issues a slow shard task
/// (ShardGroup / ReduceShard) on another pool thread once its elapsed time
/// exceeds slowdown_factor x the median duration of completed tasks of the
/// same stage, and the first finisher's result wins. Backups never change
/// outputs — both attempts compute the same deterministic result and the
/// loser's copy is discarded — they only cut the makespan a straggling
/// thread (or a skew-overloaded shard) would impose on the round barrier.
struct SpeculationConfig {
  bool enabled = false;
  /// A task is "slow" once it runs this many times longer than the median
  /// completed task of its stage. Must be >= 1.
  double slowdown_factor = 3.0;
  /// Completed same-stage tasks required before the median is trusted —
  /// below this no backup launches (a lone task has no peers to compare
  /// against).
  std::size_t min_completed = 3;
  /// Floor on the median (ms) so micro-tasks never trigger backups: the
  /// effective threshold is slowdown_factor * max(median, min_task_ms).
  double min_task_ms = 1.0;
};

/// Execution knobs for one round.
struct JobOptions {
  /// Threads used to run map and reduce tasks. 0 = hardware concurrency.
  /// Ignored when `pool` is set (the pool's size governs).
  std::size_t num_threads = 0;
  /// Optional caller-owned thread pool. When set, the round runs on it
  /// instead of constructing (and tearing down) a private pool — a caller
  /// running several rounds uses this to reuse one pool across them.
  common::ThreadPool* pool = nullptr;
  /// Shuffle shards. 0 = auto: ResolvePhysicalRound sizes them from the
  /// thread count and the round's pair estimate. 1 = one shard, grouping
  /// every key in one table. Ignored by the external shuffle.
  std::size_t num_shards = 0;
  /// Shuffle configuration (strategy, memory budget, spill dir, merge
  /// fan-in) — the one ShuffleConfig shared with PipelineOptions and the
  /// external shuffle; see its comment for the field-wise resolution
  /// order. All strategies produce byte-identical outputs; only memory
  /// behaviour and metrics differ.
  ShuffleConfig shuffle;
  /// Full cluster-simulation knobs (per-worker queues, capacity q,
  /// stragglers, heterogeneous speeds). When enabled, JobMetrics gains
  /// makespan, load_imbalance, straggler_impact, and capacity_violations.
  /// Simulation never changes reduce outputs — only the metrics.
  SimulationOptions simulation;
  /// Speculative backup tasks for slow in-memory shard tasks (first
  /// finisher wins, outputs unchanged). Requires copyable value types;
  /// rounds whose values are move-only silently run without backups.
  SpeculationConfig speculation;

  /// The simulation that actually runs. Skew/capacity knobs with
  /// num_workers left 0 are a misconfiguration (the run would silently
  /// report makespan 0 / no violations), so they fail loudly instead.
  SimulationOptions ResolvedSimulation() const {
    if (simulation.enabled()) return simulation;
    MRCOST_CHECK(!simulation.customized());
    return SimulationOptions{};
  }

  std::size_t ResolvedThreads() const {
    if (pool != nullptr) return pool->num_threads();
    if (num_threads > 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }
};

/// Field-wise merge of per-round overrides onto defaults: every field left
/// at its unset value (0 / nullptr / kAuto / "" / disabled simulation)
/// inherits the default's value. This is the single merge rule the plan
/// executor applies to a round's WithOptions — a round overriding only
/// `num_shards` still gets the defaults' memory budget, simulation, and
/// thread sizing.
inline JobOptions MergedJobOptions(JobOptions overrides,
                                   const JobOptions& defaults) {
  if (overrides.num_threads == 0) overrides.num_threads = defaults.num_threads;
  if (overrides.pool == nullptr) overrides.pool = defaults.pool;
  if (overrides.num_shards == 0) overrides.num_shards = defaults.num_shards;
  overrides.shuffle = overrides.shuffle.MergedOver(defaults.shuffle);
  // Simulation inherits only when the override configures nothing, so a
  // round's explicit simulation always wins whole.
  if (!overrides.simulation.enabled() && !overrides.simulation.customized()) {
    overrides.simulation = defaults.simulation;
  }
  if (!overrides.speculation.enabled) {
    overrides.speculation = defaults.speculation;
  }
  return overrides;
}

/// The physical shape of one round, decided once before it runs by
/// internal::ResolvePhysicalRound and consumed verbatim by both backends.
/// Plan::Explain prints it and the round's trace span carries it.
struct PhysicalRound {
  /// Map tasks over contiguous input ranges (ChunkRange). A function of
  /// the input size alone, never of the host: combined partials, and so
  /// pairs_shuffled, are the same on every machine.
  std::size_t chunks = 1;
  /// Reduce partitions: in-memory shards, external key ranges, or
  /// multi-process reduce tasks.
  std::size_t shards = 1;
  ShuffleStrategy strategy = ShuffleStrategy::kSharded;
  /// The placement that runs: kSampledRange only for in-process,
  /// in-memory rounds over more than one shard.
  PartitionerKind partitioner = PartitionerKind::kHash;
  /// Multi-process: per-source block credit window of each reduce fetch,
  /// in [1, 64]; 4 when the round has no memory budget.
  std::uint32_t fetch_credits = 4;
  /// Why each field took its value.
  std::string reason;

  /// Input range [first, second) of chunk `c` over `n` inputs.
  std::pair<std::size_t, std::size_t> ChunkRange(std::size_t c,
                                                 std::size_t n) const {
    return {c * n / chunks, (c + 1) * n / chunks};
  }
};

struct StageEstimate;  // src/engine/plan.h

/// Result of one round: reducer outputs (in deterministic first-seen key
/// order) plus the exact cost metrics.
template <typename Output>
struct JobResult {
  std::vector<Output> outputs;
  JobMetrics metrics;
};

// StageKind and TaskSpan moved to src/engine/task_scheduler.h with the
// TaskScheduler interface; this header keeps the in-process
// implementation.

/// A dependency-graph task scheduler over the shared ThreadPool. Tasks are
/// added with explicit dependency edges and submitted to the pool the
/// moment their last dependency completes — there are no phase barriers,
/// only the edges the computation actually requires. Tasks may be added
/// while the graph is running (the plan executor stages round k+1 against
/// round k's still-running tasks); Wait blocks until every task added so
/// far has finished. Task completion is published under the executor's
/// mutex, so a task's writes happen-before every dependent task's reads.
class StageGraphExecutor : public TaskScheduler {
 public:
  using TaskId = TaskScheduler::TaskId;
  static constexpr TaskId kNoTask = TaskScheduler::kNoTask;

  explicit StageGraphExecutor(common::ThreadPool& pool);
  ~StageGraphExecutor() override;  // waits for every added task

  StageGraphExecutor(const StageGraphExecutor&) = delete;
  StageGraphExecutor& operator=(const StageGraphExecutor&) = delete;

  /// Adds a task depending on `deps` (kNoTask entries are ignored;
  /// already-finished deps are fine). Runs on the pool as soon as every
  /// dep is done. `fn` must never block on another task — all waiting is
  /// the caller's (Wait), so pool threads always make progress.
  ///
  /// A `speculatable` task may be run twice concurrently (original +
  /// backup) once speculation is configured: its fn must be idempotent,
  /// race-free against a concurrent copy of itself, and commit its result
  /// first-wins (StagedRound's shard tasks compute into attempt-local
  /// buffers and publish under a commit lock). The executor keeps a
  /// speculatable task's fn alive after the first attempt starts so a
  /// backup can re-run it.
  /// `trace_name` (a string literal; the executor keeps only the pointer)
  /// and `shard` label the task's span in the obs trace; a null name falls
  /// back to the stage kind's generic name.
  TaskId AddTask(StageKind kind, std::uint32_t round_tag,
                 std::vector<TaskId> deps, std::function<void()> fn,
                 bool speculatable = false, const char* trace_name = nullptr,
                 std::uint32_t shard = 0) override;

  /// Arms speculative backups for subsequently running speculatable tasks.
  /// Latest call wins; a disabled config turns backups off again.
  void ConfigureSpeculation(const SpeculationConfig& config);

  /// Speculation accounting, per round tag. Stable once the round's tasks
  /// have drained (no further backups can launch for finished tasks).
  struct SpeculationStats {
    std::uint64_t launched = 0;   // backup attempts submitted
    std::uint64_t won = 0;        // backups that finished first
    std::uint64_t discarded = 0;  // losing attempts (original or backup)
  };
  SpeculationStats speculation_stats(std::uint32_t round_tag) const;

  /// Replaces the clock used to measure task elapsed time for speculation
  /// decisions (ms, monotone). Tests inject a manual clock to make backup
  /// triggering deterministic; timing spans keep using the real clock.
  void SetClockForTest(std::function<double()> clock);

  /// Blocks until every task added so far has finished — including losing
  /// speculative attempts, so no attempt can touch round state after Wait
  /// returns. Polls the speculation check while blocked (backups launch
  /// even when every pool thread is busy running stragglers).
  void Wait() override;

  /// The task's recorded span (zeros until it ran). Thread-safe.
  TaskSpan SpanOf(TaskId id) const override;

  /// Every task's (kind, round tag, span), for cross-round overlap
  /// accounting. Call after Wait.
  struct TaskRecord {
    StageKind kind;
    std::uint32_t round_tag;
    TaskSpan span;
  };
  std::vector<TaskRecord> SnapshotRecords() const;

  /// Milliseconds since this executor's construction.
  double NowMs() const override;

  common::ThreadPool& pool() { return pool_; }

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<TaskId> dependents;
    std::size_t unmet = 0;
    bool done = false;
    StageKind kind = StageKind::kOther;
    std::uint32_t round_tag = 0;
    TaskSpan span;
    // Speculation bookkeeping.
    bool speculatable = false;
    bool started = false;          // first attempt picked the task up
    bool backup_launched = false;  // at most one backup per task
    double start_clock_ms = 0;     // speculation clock at first start
    // Trace labeling (trace_id == 0 when tracing was off at AddTask).
    const char* trace_name = nullptr;
    std::uint32_t shard = 0;
    std::uint64_t trace_id = 0;
  };

  void RunAttempt(TaskId id, bool is_backup);
  void SubmitAttempt(TaskId id, bool is_backup);
  /// Scans running speculatable tasks against the median completed
  /// duration of their (round, stage) peers; launches backups for the
  /// slow ones. Caller holds mu_; returns the backups to submit.
  std::vector<TaskId> MaybeSpeculateLocked();
  double SpecClockLocked() const {
    return clock_ ? clock_() : NowMs();
  }

  common::ThreadPool& pool_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::condition_variable all_done_;
  std::deque<Task> tasks_;
  std::size_t pending_ = 0;
  /// Attempts submitted to the pool but not yet returned — includes
  /// losing attempts of already-done tasks, which Wait must drain before
  /// the round's state can be torn down.
  std::size_t attempts_outstanding_ = 0;
  SpeculationConfig spec_;
  std::function<double()> clock_;  // test override for speculation timing
  /// Completed durations of speculatable tasks, keyed by
  /// (round_tag, stage): the population the median is drawn from.
  std::unordered_map<std::uint64_t, std::vector<double>> completed_ms_;
  std::unordered_map<std::uint32_t, SpeculationStats> spec_stats_;
};

/// Bounded replacement for the std::async-thread-per-call ExecuteAsync:
/// every async plan execution runs on this small shared pool, so the
/// number of concurrently driven executions is bounded by its thread
/// count instead of growing with the number of outstanding futures. The
/// heavy lifting still happens on each execution's own (or caller-owned)
/// pool — these threads only drive the staging loop.
class AsyncRunner {
 public:
  static AsyncRunner& Global();

  template <typename Fn>
  auto Run(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    pool_.Submit([task] { (*task)(); });
    return future;
  }

 private:
  AsyncRunner();
  common::ThreadPool pool_;
};

namespace internal {

/// RAII choice between a caller-owned pool and a pool private to one round.
class PoolRef {
 public:
  explicit PoolRef(const JobOptions& options) {
    if (options.pool != nullptr) {
      pool_ = options.pool;
    } else {
      owned_.emplace(options.ResolvedThreads());
      pool_ = &*owned_;
    }
  }
  common::ThreadPool& get() { return *pool_; }

 private:
  std::optional<common::ThreadPool> owned_;
  common::ThreadPool* pool_ = nullptr;
};

struct MapSample;  // src/engine/plan.h

/// What ResolvePhysicalRound knows about a round before it runs.
struct RoundFacts {
  std::size_t num_threads = 1;  // size of the pool the round runs on
  std::size_t num_inputs = 0;   // materialized input size
  /// > 0: the input streams from this many upstream shards instead.
  std::size_t streamed_blocks = 0;
  const StageEstimate* estimate = nullptr;  // declared schema hints
  const MapSample* sample = nullptr;        // map-fn sample of the input
  /// Worker processes place rows by hash only.
  bool multi_process = false;
};

/// The one decider of a round's physical shape (defined in plan.cc). Both
/// plan backends and Plan::Explain call it, and nothing else calls
/// NumChunks or ResolveShardCount. Threads may change the shard count,
/// never the chunk count.
PhysicalRound ResolvePhysicalRound(const JobOptions& options,
                                   const RoundFacts& facts);

/// Sentinel combiner type marking a plain (uncombined) round.
struct NoCombine {};

/// What the planner predicted for a round before running it, attached to
/// the round's trace so predicted-vs-realized q/r can be read off a single
/// span ("which stage blew its bound"). All zeros / !valid when the round
/// was staged without an estimate.
struct RoundPrediction {
  bool valid = false;
  double q = 0;            // predicted max reducer input
  double r = 0;            // predicted replication rate
  double bound_ratio = 0;  // predicted r / lower-bound r(q); 0 = unknown
};

/// The "Round" span's args, one vocabulary for both backends: the
/// physical plan, the realized and the predicted q/r.
void AppendRoundArgs(const PhysicalRound& physical,
                     const RoundPrediction& prediction, const JobMetrics& m,
                     std::vector<obs::TraceArg>& args);

/// Type-erased face of a staged round — all the plan driver needs: stage
/// the finalize task, read metrics, and wire streamed consumers.
class StagedHandleBase {
 public:
  virtual ~StagedHandleBase() = default;

  /// Attaches the planner's prediction for trace attribution. Call before
  /// the round's finalize task can run (i.e. before executor Wait).
  virtual void SetPrediction(const RoundPrediction& prediction) = 0;
  virtual const RoundPrediction& prediction() const = 0;

  /// Stages the finalize task (deterministic merge + metrics). Streaming
  /// consumers pass their map-task ids as `extra_deps` so finalize does
  /// not move the shard outputs out from under a reader. Idempotent after
  /// the first call.
  virtual void StageFinalize(
      std::vector<StageGraphExecutor::TaskId> extra_deps) = 0;
  virtual bool finalize_staged() const = 0;

  /// Valid once the executor has drained this round's tasks.
  virtual const JobMetrics& metrics() const = 0;
  virtual const PhysicalRound& physical() const = 0;

  /// Map / reduce task ids, for cross-round overlap accounting and for
  /// chaining a streamed consumer's maps behind this round's reduces.
  virtual const std::vector<StageGraphExecutor::TaskId>& map_task_ids()
      const = 0;
  virtual const std::vector<StageGraphExecutor::TaskId>& reduce_task_ids()
      const = 0;
};

/// Typed streaming face of a staged round: per-shard blocks of reduce
/// outputs a downstream per-key round consumes without a global barrier.
template <typename T>
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  virtual std::size_t stream_block_count() const = 0;
  /// Task after which block `b`'s outputs are readable (its reduce task).
  virtual StageGraphExecutor::TaskId stream_block_task(
      std::size_t block) const = 0;
  /// Task after which every block's key ranks are readable; staged on
  /// first call. kNoTask when ranks ride with the block tasks themselves
  /// (the external shuffle's merged key order is already global).
  virtual StageGraphExecutor::TaskId stream_ranks_task() = 0;
  /// Visits block `b`'s keys: global first-seen rank plus the key's
  /// reduce outputs (a view valid for the call). Only valid from a task
  /// depending on the block task and the ranks task.
  virtual void VisitStreamBlock(
      std::size_t block,
      const std::function<void(std::uint64_t rank, GroupView<T> outputs)>&
          fn) const = 0;
};

inline double IntervalOverlap(double a_begin, double a_end, double b_begin,
                              double b_end) {
  return std::max(0.0, std::min(a_end, b_end) - std::max(a_begin, b_begin));
}

/// Wall-clock envelope of a set of tasks (invalid when empty).
struct StageWindow {
  double begin = 0;
  double end = 0;
  bool valid = false;
};

inline StageWindow WindowOf(const TaskScheduler& exec,
                            const std::vector<TaskScheduler::TaskId>& tasks) {
  StageWindow w;
  for (const auto id : tasks) {
    const TaskSpan span = exec.SpanOf(id);
    if (!w.valid || span.begin_ms < w.begin) w.begin = span.begin_ms;
    if (!w.valid || span.end_ms > w.end) w.end = span.end_ms;
    w.valid = true;
  }
  return w;
}

/// One staged map-reduce round: builds the MapPartition -> ShardGroup ->
/// ReduceShard -> Finalize task graph (MapSpill -> Merge -> ReduceRange ->
/// Finalize for the external shuffle) on a StageGraphExecutor, and doubles
/// as a StreamSource so a per-key downstream round can consume its shard
/// outputs as they complete. CombineFn is std::function<V(V, V)> for a
/// combined round and NoCombine for a plain one, so the combined path is
/// chosen at compile time.
template <typename In, typename K, typename V, typename Out, typename CombineFn>
class StagedRound final : public StagedHandleBase, public StreamSource<Out> {
 public:
  using TaskId = StageGraphExecutor::TaskId;
  using MapFn = std::function<void(const In&, Emitter<K, V>&)>;
  using ReduceFn =
      std::function<void(const K&, GroupView<V>, std::vector<Out>&)>;
  static constexpr bool kCombined = !std::is_same_v<CombineFn, NoCombine>;

  /// Stages a round over a materialized input vector, shaped by
  /// `physical` (from ResolvePhysicalRound). `inputs` must stay valid
  /// until the executor drains the round (`keepalive`, when set,
  /// guarantees that for plan slots).
  static std::shared_ptr<StagedRound> StageMaterialized(
      StageGraphExecutor& exec, std::uint32_t round_tag,
      const std::vector<In>& inputs, std::shared_ptr<const void> keepalive,
      MapFn map_fn, CombineFn combine_fn, ReduceFn reduce_fn,
      const JobOptions& options, const PhysicalRound& physical) {
    auto self = std::shared_ptr<StagedRound>(new StagedRound(
        exec, round_tag, std::move(map_fn), std::move(combine_fn),
        std::move(reduce_fn), options, physical));
    self->self_ = self;
    self->inputs_ = &inputs;
    self->keepalive_ = std::move(keepalive);
    self->BuildMaterialized();
    return self;
  }

  /// Stages a plain round whose input streams per-shard from `upstream`,
  /// one map task per upstream shard. Only in-memory strategies stream;
  /// the caller falls back to the materialized path for external and
  /// combined rounds.
  static std::shared_ptr<StagedRound> StageStreamed(
      StageGraphExecutor& exec, std::uint32_t round_tag,
      std::shared_ptr<StagedHandleBase> upstream_handle,
      StreamSource<In>* upstream, MapFn map_fn, ReduceFn reduce_fn,
      const JobOptions& options, const PhysicalRound& physical) {
    static_assert(!kCombined, "combined rounds do not stream their input");
    auto self = std::shared_ptr<StagedRound>(new StagedRound(
        exec, round_tag, std::move(map_fn), CombineFn{},
        std::move(reduce_fn), options, physical));
    self->self_ = self;
    self->upstream_keepalive_ = std::move(upstream_handle);
    self->BuildStreamed(upstream);
    return self;
  }

  /// Where finalize publishes the merged outputs (a plan slot); when
  /// unset, outputs land in result().
  void set_output_slot(std::shared_ptr<void>* slot) { output_slot_ = slot; }

  /// Valid after StageGraphExecutor::Wait (finalize staged and drained).
  JobResult<Out> TakeResult() { return std::move(result_); }

  // ----- StagedHandleBase

  void StageFinalize(std::vector<TaskId> extra_deps) override {
    if (finalize_staged_) return;
    finalize_staged_ = true;
    std::vector<TaskId> deps = reduce_tasks_;
    deps.insert(deps.end(), extra_deps.begin(), extra_deps.end());
    auto self = self_.lock();
    finalize_task_ = exec_.AddTask(StageKind::kFinalize, round_tag_,
                                   std::move(deps),
                                   [self] { self->Finalize(); },
                                   /*speculatable=*/false, "Finalize");
  }
  bool finalize_staged() const override { return finalize_staged_; }
  const JobMetrics& metrics() const override { return result_.metrics; }
  const PhysicalRound& physical() const override { return physical_; }
  void SetPrediction(const RoundPrediction& prediction) override {
    prediction_ = prediction;
  }
  const RoundPrediction& prediction() const override { return prediction_; }
  const std::vector<TaskId>& map_task_ids() const override {
    return map_tasks_;
  }
  const std::vector<TaskId>& reduce_task_ids() const override {
    return reduce_tasks_;
  }

  // ----- StreamSource<Out>

  std::size_t stream_block_count() const override {
    return reduce_tasks_.size();
  }
  TaskId stream_block_task(std::size_t block) const override {
    return reduce_tasks_[block];
  }
  TaskId stream_ranks_task() override {
    if (physical_.strategy == ShuffleStrategy::kExternal) {
      return StageGraphExecutor::kNoTask;  // merged order is global already
    }
    if (ranks_task_ == StageGraphExecutor::kNoTask) {
      auto self = self_.lock();
      ranks_task_ =
          exec_.AddTask(StageKind::kOther, round_tag_, group_tasks_,
                        [self] { self->AssignKeyRanks(); },
                        /*speculatable=*/false, "AssignKeyRanks");
    }
    return ranks_task_;
  }
  void VisitStreamBlock(
      std::size_t block,
      const std::function<void(std::uint64_t rank, GroupView<Out> outputs)>&
          fn) const override {
    if (physical_.strategy == ShuffleStrategy::kExternal) {
      for (std::size_t i = range_begin_[block];
           i < range_begin_[block + 1]; ++i) {
        fn(static_cast<std::uint64_t>(i), flat_outputs_[i]);
      }
      return;
    }
    const Shard& shard = shards_[block];
    for (std::size_t i = 0; i < shard.groups.size(); ++i) {
      fn(shard.ranks[i], shard.outputs[i]);
    }
  }

 private:
  using Block = storage::KVBlock<K, V>;

  /// One in-memory shard's grouped state, filled by its ShardGroup task
  /// and consumed by its ReduceShard task. Groups are CSR: one value
  /// buffer per shard (freed once reduced; the offsets keep the sizes).
  struct Shard {
    CsrGroups<K, V> groups;
    std::vector<std::uint64_t> ranks;       // filled by AssignKeyRanks
    std::vector<std::vector<Out>> outputs;  // filled by ReduceShard
    std::vector<ReducerLoad> loads;         // when simulating
    std::uint64_t routed_rows = 0;          // rows routed to this shard
  };

  StagedRound(StageGraphExecutor& exec, std::uint32_t round_tag, MapFn map_fn,
              CombineFn combine_fn, ReduceFn reduce_fn,
              const JobOptions& options, const PhysicalRound& physical)
      : exec_(exec),
        round_tag_(round_tag),
        map_(std::move(map_fn)),
        combine_(std::move(combine_fn)),
        reduce_(std::move(reduce_fn)),
        options_(options),
        physical_(physical),
        simulation_(options.ResolvedSimulation()) {
    // Speculation covers the in-memory shard tasks only (spill/merge is
    // I/O-bound and externally ordered) and needs copyable values: both
    // attempts read the same routed blocks, so neither may move from
    // them. Move-only rounds silently run undefended.
    speculative_ = options_.speculation.enabled &&
                   physical_.strategy != ShuffleStrategy::kExternal &&
                   std::is_copy_constructible_v<V>;
    if (speculative_) exec_.ConfigureSpeculation(options_.speculation);
    for (auto* counter : {&task_pairs_, &task_raw_pairs_, &task_bytes_,
                          &task_inputs_, &task_blocks_, &task_copied_}) {
      counter->assign(physical_.chunks, 0);
    }
    // Sized before any task can run: a task may start the moment it is
    // added (its deps already done), while staging still goes on.
    if (physical_.strategy == ShuffleStrategy::kExternal) {
      range_begin_.assign(physical_.shards + 1, 0);
    } else {
      blocks_.resize(physical_.chunks);
      shard_rows_.assign(physical_.chunks,
                         std::vector<std::vector<std::uint32_t>>(
                             physical_.shards));
    }
    // Paired clock samples so executor-relative task times (ms) convert
    // into the trace timebase (us) when Finalize emits the round span.
    trace_base_us_ = obs::TraceRecorder::NowUs();
    exec_base_ms_ = exec_.NowMs();
  }

  bool use_range() const {
    return physical_.partitioner == PartitionerKind::kSampledRange;
  }
  void BuildMaterialized();
  void BuildStreamed(StreamSource<In>* upstream);
  void StageGroupAndReduce();

  void MapChunk(std::size_t c, std::size_t lo, std::size_t hi);
  void MapStreamBlock(std::size_t b);
  void PlanPartition();
  void RouteBlock(std::size_t task);
  void GroupShard(std::size_t p);
  void MergeSpills();
  void ReduceGroup(const K& key, GroupView<V> group, std::vector<Out>& out,
                   ReducerLoad* load);
  void ReduceShard(std::size_t p);
  void ReduceRange(std::size_t t);
  void AssignKeyRanks();
  void Finalize();
  void FillTimings(JobMetrics& m) const;

  /// The shards' keys in global first-seen order: (scan tag, shard, index
  /// within shard), sorted by tag. The single source of the cross-shard
  /// key order — AssignKeyRanks and Finalize's merge both use it, so
  /// streamed ranks can never diverge from the finalize order.
  std::vector<std::tuple<PairPos, std::uint32_t, std::uint32_t>>
  SortedKeyOrder() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.groups.size();
    std::vector<std::tuple<PairPos, std::uint32_t, std::uint32_t>> order;
    order.reserve(total);
    for (std::uint32_t p = 0; p < shards_.size(); ++p) {
      for (std::uint32_t i = 0; i < shards_[p].groups.size(); ++i) {
        order.emplace_back(shards_[p].groups.first[i], p, i);
      }
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) < std::get<0>(b);
              });
    return order;
  }

  StageGraphExecutor& exec_;
  std::uint32_t round_tag_ = 0;
  MapFn map_;
  CombineFn combine_;
  ReduceFn reduce_;
  JobOptions options_;
  const PhysicalRound physical_;
  SimulationOptions simulation_;
  RoundPrediction prediction_;
  std::uint64_t trace_base_us_ = 0;
  double exec_base_ms_ = 0;
  std::weak_ptr<StagedRound> self_;

  // Input: exactly one of (inputs_, upstream_) is set.
  const std::vector<In>* inputs_ = nullptr;
  std::shared_ptr<const void> keepalive_;
  StreamSource<In>* upstream_ = nullptr;
  std::shared_ptr<StagedHandleBase> upstream_keepalive_;
  bool streamed_input_ = false;

  // Per-map-task partials (indexed by task). Each map task owns one
  // columnar block; shard_rows_[task][shard] holds the row indices the
  // radix pass routed to that shard, so ShardGroup tasks consume index
  // ranges instead of copied pairs.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::vector<std::vector<std::uint32_t>>> shard_rows_;
  // Streamed only: scan-order tag per block row (parallel column).
  std::vector<std::vector<PairPos>> tag_pos_;
  std::vector<std::uint64_t> task_pairs_;      // routed (post-combine)
  std::vector<std::uint64_t> task_raw_pairs_;  // pre-combine
  std::vector<std::uint64_t> task_bytes_;      // shuffled bytes
  std::vector<std::uint64_t> task_inputs_;     // streamed: inputs consumed
  std::vector<std::uint64_t> task_blocks_;     // blocks handed downstream
  std::vector<std::uint64_t> task_copied_;     // bytes physically copied

  // External-shuffle state.
  std::unique_ptr<storage::RunSpiller> spiller_;
  std::vector<common::Status> spill_status_;
  std::vector<storage::ColumnarRun> tails_;
  storage::SpillStats spill_stats_;
  ShuffleResult<K, V> merged_;
  std::vector<std::size_t> range_begin_;  // ReduceRange key boundaries
  std::vector<std::vector<Out>> flat_outputs_;
  std::vector<std::uint64_t> flat_sizes_;
  std::vector<ReducerLoad> flat_loads_;

  std::vector<Shard> shards_;

  /// Global key order cached by AssignKeyRanks for Finalize (empty when
  /// no streamed consumer forced the rank task).
  std::vector<std::tuple<PairPos, std::uint32_t, std::uint32_t>> key_order_;

  // Skew defenses (see src/engine/partitioner.h). Sampled-range
  // placement defers the radix routing behind a sampling task;
  // speculative_ lets shard tasks run twice, computing into attempt-local
  // buffers committed first-wins under commit_mu_.
  bool speculative_ = false;
  std::unique_ptr<RangePartitioner> range_partitioner_;
  std::mutex commit_mu_;
  std::vector<char> group_committed_;
  std::vector<char> reduce_committed_;

  std::vector<TaskId> map_tasks_;
  std::vector<TaskId> route_tasks_;   // sampled-range only: deferred radix
  std::vector<TaskId> group_tasks_;   // in-memory: per shard; external: merge
  std::vector<TaskId> reduce_tasks_;  // per shard / per key range
  TaskId ranks_task_ = StageGraphExecutor::kNoTask;
  TaskId finalize_task_ = StageGraphExecutor::kNoTask;
  bool finalize_staged_ = false;

  std::shared_ptr<void>* output_slot_ = nullptr;
  JobResult<Out> result_;
};

// ---------------------------------------------------------------------------
// StagedRound implementation.

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::BuildMaterialized() {
  const std::size_t n = inputs_->size();
  result_.metrics.num_inputs = n;
  if (physical_.strategy == ShuffleStrategy::kExternal) {
    spiller_ =
        std::make_unique<storage::RunSpiller>(options_.shuffle.spill_dir);
    spill_status_.assign(physical_.chunks, common::Status::Ok());
    tails_.resize(physical_.chunks);
  }

  map_tasks_.reserve(physical_.chunks);
  auto self = self_.lock();
  for (std::size_t c = 0; c < physical_.chunks; ++c) {
    const auto range = physical_.ChunkRange(c, n);
    map_tasks_.push_back(exec_.AddTask(
        StageKind::kMap, round_tag_, {},
        [self, c, range] { self->MapChunk(c, range.first, range.second); },
        /*speculatable=*/false,
        physical_.strategy == ShuffleStrategy::kExternal ? "MapSpill"
                                                          : "MapPartition",
        static_cast<std::uint32_t>(c)));
  }
  StageGroupAndReduce();
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::BuildStreamed(
    StreamSource<In>* upstream) {
  MRCOST_CHECK(physical_.strategy != ShuffleStrategy::kExternal);
  MRCOST_CHECK(physical_.chunks == upstream->stream_block_count());
  streamed_input_ = true;
  upstream_ = upstream;
  tag_pos_.resize(physical_.chunks);

  const TaskId ranks = upstream->stream_ranks_task();
  map_tasks_.reserve(physical_.chunks);
  auto self = self_.lock();
  for (std::size_t b = 0; b < upstream->stream_block_count(); ++b) {
    map_tasks_.push_back(exec_.AddTask(
        StageKind::kMap, round_tag_,
        {upstream->stream_block_task(b), ranks},
        [self, b] { self->MapStreamBlock(b); },
        /*speculatable=*/false, "MapPartition",
        static_cast<std::uint32_t>(b)));
  }
  StageGroupAndReduce();
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::StageGroupAndReduce() {
  auto self = self_.lock();
  if (physical_.strategy == ShuffleStrategy::kExternal) {
    const TaskId merge = exec_.AddTask(StageKind::kShuffle, round_tag_,
                                       map_tasks_,
                                       [self] { self->MergeSpills(); },
                                       /*speculatable=*/false, "Merge");
    group_tasks_ = {merge};
    reduce_tasks_.reserve(physical_.shards);
    for (std::size_t t = 0; t < physical_.shards; ++t) {
      reduce_tasks_.push_back(
          exec_.AddTask(StageKind::kReduce, round_tag_, {merge},
                        [self, t] { self->ReduceRange(t); },
                        /*speculatable=*/false, "ReduceRange",
                        static_cast<std::uint32_t>(t)));
    }
    return;
  }
  shards_.resize(physical_.shards);
  if (speculative_) {
    group_committed_.assign(physical_.shards, 0);
    reduce_committed_.assign(physical_.shards, 0);
  }
  // Sampled-range placement defers routing: one plan task samples the
  // mapped hash distribution once every map finished, then per-map route
  // tasks run the radix pass against the planned ranges. Under hash
  // placement the maps route inline and groups depend on them directly.
  const std::vector<TaskId>* group_deps = &map_tasks_;
  if (use_range()) {
    const TaskId plan =
        exec_.AddTask(StageKind::kShuffle, round_tag_, map_tasks_,
                      [self] { self->PlanPartition(); },
                      /*speculatable=*/false, "PlanPartition");
    route_tasks_.reserve(physical_.chunks);
    for (std::size_t t = 0; t < physical_.chunks; ++t) {
      route_tasks_.push_back(
          exec_.AddTask(StageKind::kShuffle, round_tag_, {plan},
                        [self, t] { self->RouteBlock(t); },
                        /*speculatable=*/false, "RouteBlock",
                        static_cast<std::uint32_t>(t)));
    }
    group_deps = &route_tasks_;
  }
  group_tasks_.reserve(physical_.shards);
  for (std::size_t p = 0; p < physical_.shards; ++p) {
    group_tasks_.push_back(
        exec_.AddTask(StageKind::kShuffle, round_tag_, *group_deps,
                      [self, p] { self->GroupShard(p); }, speculative_,
                      "ShardGroup", static_cast<std::uint32_t>(p)));
  }
  reduce_tasks_.reserve(physical_.shards);
  for (std::size_t p = 0; p < physical_.shards; ++p) {
    reduce_tasks_.push_back(
        exec_.AddTask(StageKind::kReduce, round_tag_, {group_tasks_[p]},
                      [self, p] { self->ReduceShard(p); }, speculative_,
                      "ReduceShard", static_cast<std::uint32_t>(p)));
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::MapChunk(
    std::size_t c, std::size_t lo, std::size_t hi) {
  Emitter<K, V> emitter;
  const auto cc = static_cast<std::uint32_t>(c);
  if (physical_.strategy == ShuffleStrategy::kExternal) {
    common::Status& status = spill_status_[c];
    if constexpr (kCombined) {
      // Post-combine rows are what cross the shuffle. The combined block
      // is sliced by accumulated ByteSizeOf at the chunk's budget share;
      // each slice sorts and spills as one columnar run. Spill positions
      // are the post-combine emission order.
      const std::uint64_t budget =
          options_.shuffle.memory_budget_bytes / physical_.chunks;
      for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
      task_raw_pairs_[c] = emitter.block().rows();
      std::uint64_t bytes = 0;
      std::vector<std::uint64_t> row_bytes;
      Block combined =
          CombineBlock(emitter.block(), combine_, bytes, &row_bytes);
      task_bytes_[c] = bytes;
      task_pairs_[c] = combined.rows();
      task_blocks_[c] = emitter.blocks_emitted();
      task_copied_[c] = emitter.bytes_copied() + combined.CopiedBytes();
      std::size_t lo_row = 0;
      std::uint64_t acc = 0;
      for (std::size_t r = 0; r < combined.rows() && status.ok(); ++r) {
        acc += row_bytes[r];
        if (acc > budget) {
          auto run = storage::SortedRunFromBlock(
              combined, lo_row, r + 1, [&](std::uint32_t j) {
                return storage::MakeSpillPos(cc, lo_row + j);
              });
          status = spiller_->SpillBlockRun(run);
          lo_row = r + 1;
          acc = 0;
        }
      }
      if (status.ok() && lo_row < combined.rows()) {
        tails_[c] = storage::SortedRunFromBlock(
            combined, lo_row, combined.rows(), [&](std::uint32_t j) {
              return storage::MakeSpillPos(cc, lo_row + j);
            });
      }
    } else {
      // One block buffer at the chunk's full budget share: blocks spill
      // straight from the emitter, so there is no second serialization
      // stage to reserve for. Each overflowed block sorts and spills as
      // one columnar run.
      const std::uint64_t share =
          options_.shuffle.memory_budget_bytes / physical_.chunks;
      std::uint64_t next_local = 0;
      emitter.SetOverflow(share, [this, &status, &next_local, cc](
                                     Block& block) {
        if (!status.ok()) return;
        auto run = storage::SortedRunFromBlock(
            block, 0, block.rows(), [&](std::uint32_t j) {
              return storage::MakeSpillPos(cc, next_local + j);
            });
        next_local += block.rows();
        status = spiller_->SpillBlockRun(run);
      });
      for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
      task_bytes_[c] = emitter.bytes();
      task_raw_pairs_[c] = task_pairs_[c] = emitter.num_emitted();
      task_blocks_[c] = emitter.blocks_emitted();
      task_copied_[c] = emitter.bytes_copied();
      if (status.ok() && !emitter.block().empty()) {
        Block& block = emitter.block();
        tails_[c] = storage::SortedRunFromBlock(
            block, 0, block.rows(), [&](std::uint32_t j) {
              return storage::MakeSpillPos(cc, next_local + j);
            });
      }
    }
    return;
  }

  for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
  if constexpr (kCombined) {
    task_raw_pairs_[c] = emitter.block().rows();
    std::uint64_t bytes = 0;
    blocks_[c] = std::make_unique<Block>(
        CombineBlock(emitter.block(), combine_, bytes, nullptr));
    task_bytes_[c] = bytes;
    task_pairs_[c] = blocks_[c]->rows();
    task_blocks_[c] = emitter.blocks_emitted();
    task_copied_[c] = emitter.bytes_copied() + blocks_[c]->CopiedBytes();
  } else {
    task_raw_pairs_[c] = task_pairs_[c] = emitter.num_emitted();
    task_bytes_[c] = emitter.bytes();
    task_blocks_[c] = emitter.blocks_emitted();
    task_copied_[c] = emitter.bytes_copied();
    blocks_[c] = std::make_unique<Block>(std::move(emitter.block()));
  }
  if (!use_range()) RouteBlock(c);
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::PlanPartition() {
  // Samples the mapped hash distribution (strided over every block's hash
  // column, capped so huge rounds pay a bounded sort) and cuts it into
  // ranges of near-equal pair weight. One entry per sampled *pair*, so a
  // hot key's weight counts once per occurrence — exactly the skew the
  // equal-width hash placement is blind to.
  constexpr std::size_t kMaxSample = std::size_t{64} * 1024;
  std::size_t total = 0;
  for (const auto& block : blocks_) {
    if (block != nullptr) total += block->rows();
  }
  const std::size_t stride = std::max<std::size_t>(1, total / kMaxSample);
  std::vector<std::uint64_t> sample;
  sample.reserve(total / stride + physical_.chunks);
  for (const auto& block : blocks_) {
    if (block == nullptr) continue;
    for (std::size_t r = 0; r < block->rows(); r += stride) {
      sample.push_back(block->hash(r));
    }
  }
  range_partitioner_ = std::make_unique<RangePartitioner>(
      BuildRangePartitioner(std::move(sample), physical_.shards));
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::RouteBlock(std::size_t task) {
  // Radix pass: shards receive row-index ranges into the task's block,
  // not copies — the block's hash column already holds the routing hash.
  // Under sampled-range placement this runs as its own task (after
  // PlanPartition); equal hashes land on equal shards either way, which
  // is all grouping correctness needs.
  if (blocks_[task] == nullptr) return;
  auto& rows = shard_rows_[task];
  const Block& block = *blocks_[task];
  const RangePartitioner* range = range_partitioner_.get();
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const std::size_t p =
        physical_.shards == 1
            ? 0
            : (range != nullptr ? range->ShardOf(block.hash(r))
                                : IndexOfHash(block.hash(r), physical_.shards));
    rows[p].push_back(static_cast<std::uint32_t>(r));
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::MapStreamBlock(std::size_t b) {
  Emitter<K, V> emitter;
  std::vector<PairPos>& tags = tag_pos_[b];
  std::uint64_t inputs_seen = 0;
  upstream_->VisitStreamBlock(
      b, [&](std::uint64_t rank, GroupView<In> outs) {
        const std::size_t mark = emitter.block().rows();
        for (const In& o : outs) {
          ++inputs_seen;
          map_(o, emitter);
        }
        // Rows emitted for this upstream key carry its final (rank, seq)
        // tag in a parallel column — the block itself stays append-only.
        std::uint64_t seq = 0;
        for (std::size_t r = mark; r < emitter.block().rows(); ++r) {
          tags.push_back(PairPos{rank, seq++});
        }
      });
  task_inputs_[b] = inputs_seen;
  task_raw_pairs_[b] = task_pairs_[b] = emitter.block().rows();
  task_bytes_[b] = emitter.bytes();
  task_blocks_[b] = emitter.blocks_emitted();
  task_copied_[b] = emitter.bytes_copied();
  blocks_[b] = std::make_unique<Block>(std::move(emitter.block()));
  if (!use_range()) RouteBlock(b);
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::GroupShard(std::size_t p) {
  // Grouping builds into an attempt-local Shard: non-speculative rounds
  // move it straight into place; speculative attempts race to commit it
  // first-wins (the loser's copy is dropped, so duplicated work never
  // changes the round's state). Under speculation values are *copied* out
  // of the routed blocks and the row indices are kept — the concurrent
  // twin attempt reads the same blocks.
  Shard sh;
  std::size_t owned = 0;
  for (std::size_t t = 0; t < physical_.chunks; ++t) {
    owned += shard_rows_[t][p].size();
  }
  sh.routed_rows = owned;
  const auto take = [this](Block& block, std::uint32_t r) -> V {
    if constexpr (std::is_copy_constructible_v<V>) {
      if (speculative_) return block.value(r);
    }
    return std::move(block.value(r));
  };
  // Materialized input: scanning each task's routed rows in row order
  // visits pairs in global scan order (tasks are contiguous input ranges),
  // so the tag is the task base plus the row. Streamed input: rows carry
  // their final (rank, seq) tags but interleave upstream shards.
  const auto for_each_row = [this, p](auto&& visit) {
    std::uint64_t base = 0;
    for (std::size_t t = 0; t < physical_.chunks; ++t) {
      if (blocks_[t] != nullptr) {
        Block& block = *blocks_[t];
        for (const std::uint32_t r : shard_rows_[t][p]) {
          visit(block, r,
                streamed_input_ ? tag_pos_[t][r] : PairPos{base + r, 0});
        }
      }
      base += task_pairs_[t];
    }
  };
  sh.groups = GroupRows<K, V>(owned, for_each_row, take, !streamed_input_);
  if (!speculative_) {
    for (std::size_t t = 0; t < physical_.chunks; ++t) {
      std::vector<std::uint32_t>().swap(shard_rows_[t][p]);
    }
    shards_[p] = std::move(sh);
    return;
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!group_committed_[p]) {
    group_committed_[p] = 1;
    shards_[p] = std::move(sh);
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::MergeSpills() {
  for (const common::Status& status : spill_status_) {
    MRCOST_CHECK_OK(status);
  }
  storage::SpillStats stats;
  auto merged = internal::MergeSpilledBlockRuns<K, V>(
      *spiller_, tails_, options_.shuffle.merge_fan_in, stats);
  MRCOST_CHECK_OK(merged.status());
  spill_stats_ = stats;
  merged_ = std::move(merged.value());
  spiller_.reset();  // run files removed as soon as the merge is done
  tails_.clear();

  const std::size_t nkeys = merged_.keys.size();
  const std::size_t ranges = range_begin_.size() - 1;
  for (std::size_t t = 0; t <= ranges; ++t) {
    range_begin_[t] = t * nkeys / ranges;
  }
  flat_outputs_.resize(nkeys);
  flat_sizes_.resize(nkeys);
  if (simulation_.enabled()) flat_loads_.resize(nkeys);
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::ReduceGroup(
    const K& key, GroupView<V> group, std::vector<Out>& out,
    ReducerLoad* load) {
  if (load != nullptr) {
    std::uint64_t bytes = 0;
    if (simulation_.cost_per_byte > 0 ||
        simulation_.reducer_capacity_bytes > 0) {
      bytes = common::ByteSizeOf(key);
      for (const V& v : group) bytes += common::ByteSizeOf(v);
    }
    *load = ReducerLoad{HashValue(key), group.size(), bytes};
  }
  reduce_(key, group, out);
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::ReduceShard(std::size_t p) {
  // Reducers read views into the committed shard, which no attempt
  // mutates, so speculative twins share it; each reduces into
  // attempt-local buffers and publishes first-wins.
  Shard& shard = shards_[p];
  const CsrGroups<K, V>& groups = shard.groups;
  const std::size_t n = groups.size();
  const bool sim = simulation_.enabled();
  std::vector<std::vector<Out>> outputs(n);
  std::vector<ReducerLoad> loads(sim ? n : 0);
  // Reducers append into one reused scratch vector; each key's outputs
  // then take a single exact-size allocation instead of growing their own
  // vector push by push (with the values in one buffer, freed groups no
  // longer feed that growth, and the allocator churn showed up as reduce
  // time).
  std::vector<Out> scratch;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.clear();
    ReduceGroup(groups.keys[i], groups.group(i), scratch,
                sim ? &loads[i] : nullptr);
    outputs[i].reserve(scratch.size());
    for (Out& o : scratch) outputs[i].push_back(std::move(o));
  }
  if (!speculative_) {
    shard.outputs = std::move(outputs);
    shard.loads = std::move(loads);
    std::vector<V>().swap(shard.groups.values);
    return;
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!reduce_committed_[p]) {
    reduce_committed_[p] = 1;
    shard.outputs = std::move(outputs);
    shard.loads = std::move(loads);
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::ReduceRange(std::size_t t) {
  const bool sim = simulation_.enabled();
  for (std::size_t i = range_begin_[t]; i < range_begin_[t + 1]; ++i) {
    std::vector<V>& group = merged_.groups[i];
    flat_sizes_[i] = group.size();
    ReduceGroup(merged_.keys[i], group, flat_outputs_[i],
                sim ? &flat_loads_[i] : nullptr);
    std::vector<V>().swap(group);  // free each group as it reduces
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::AssignKeyRanks() {
  for (Shard& shard : shards_) shard.ranks.resize(shard.groups.size());
  // Cache the order for Finalize, which runs strictly after this task
  // (finalize depends on the consumer maps, which depend on it) — the
  // O(K log K) merge sort is paid once per round, not twice.
  key_order_ = SortedKeyOrder();
  for (std::size_t r = 0; r < key_order_.size(); ++r) {
    shards_[std::get<1>(key_order_[r])].ranks[std::get<2>(key_order_[r])] =
        r;
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::FillTimings(JobMetrics& m) const {
  const StageWindow map = internal::WindowOf(exec_, map_tasks_);
  const StageWindow shuffle = internal::WindowOf(exec_, group_tasks_);
  const StageWindow reduce = internal::WindowOf(exec_, reduce_tasks_);
  if (!map.valid || !shuffle.valid || !reduce.valid) return;
  m.map_ms = map.end - map.begin;
  m.shuffle_ms = shuffle.end - shuffle.begin;
  m.reduce_ms = reduce.end - reduce.begin;
  // Idle thread-time at the graph's real dependency edges: map chunks
  // waiting for the slowest map before any group can start (the one true
  // barrier the stage graph keeps), plus each shard's gap between its
  // group finishing and its reduce starting (≈0 here; the cost the old
  // engine's reduce barrier paid).
  double wait = 0;
  for (TaskId id : map_tasks_) {
    wait += std::max(0.0, shuffle.begin - exec_.SpanOf(id).end_ms);
  }
  if (group_tasks_.size() == reduce_tasks_.size()) {
    for (std::size_t p = 0; p < group_tasks_.size(); ++p) {
      wait += std::max(0.0, exec_.SpanOf(reduce_tasks_[p]).begin_ms -
                                exec_.SpanOf(group_tasks_[p]).end_ms);
    }
  } else {
    for (TaskId id : reduce_tasks_) {
      wait += std::max(0.0, exec_.SpanOf(id).begin_ms - shuffle.end);
    }
  }
  m.barrier_wait_ms = wait;
  m.overlap_ms =
      IntervalOverlap(map.begin, map.end, shuffle.begin, shuffle.end) +
      IntervalOverlap(shuffle.begin, shuffle.end, reduce.begin, reduce.end);
  m.span_ms = std::max({map.end, shuffle.end, reduce.end}) - map.begin;
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::Finalize() {
  JobMetrics& m = result_.metrics;
  const bool obs_metrics = obs::MetricsEnabled();
  common::Log2Histogram reducer_q_hist;
  common::Log2Histogram map_bytes_hist;
  for (std::size_t t = 0; t < physical_.chunks; ++t) {
    m.pairs_before_combine += task_raw_pairs_[t];
    m.pairs_shuffled += task_pairs_[t];
    m.bytes_shuffled += task_bytes_[t];
    m.blocks_emitted += task_blocks_[t];
    m.bytes_copied += task_copied_[t];
    if (obs_metrics) map_bytes_hist.Add(task_bytes_[t]);
  }
  if (streamed_input_) {
    m.num_inputs = 0;
    for (std::uint64_t n : task_inputs_) m.num_inputs += n;
  }

  std::vector<Out> outputs;
  std::vector<ReducerLoad> loads;
  const bool sim = simulation_.enabled();

  if (physical_.strategy == ShuffleStrategy::kExternal) {
    m.spill_runs = spill_stats_.spill_runs;
    m.spill_bytes_written = spill_stats_.spill_bytes_written;
    m.merge_passes = spill_stats_.merge_passes;
    m.compression_ratio = spill_stats_.encode.CompressionRatio();
    const std::size_t nkeys = merged_.keys.size();
    m.num_reducers = nkeys;
    std::size_t total_outputs = 0;
    for (std::size_t i = 0; i < nkeys; ++i) {
      m.reducer_sizes.Add(static_cast<double>(flat_sizes_[i]));
      m.max_reducer_input =
          std::max<std::uint64_t>(m.max_reducer_input, flat_sizes_[i]);
      total_outputs += flat_outputs_[i].size();
      if (obs_metrics) reducer_q_hist.Add(flat_sizes_[i]);
    }
    outputs.reserve(total_outputs);
    for (auto& v : flat_outputs_) {
      for (auto& out : v) outputs.push_back(std::move(out));
    }
    if (sim) loads = std::move(flat_loads_);
  } else {
    // Deterministic merge: interleave the shards' keys back into global
    // first-seen order by scan tag — byte-identical to the serial
    // reference for every shard count, thread count, and task schedule.
    // (AssignKeyRanks caches the order when a streamed consumer ran.)
    const auto order =
        key_order_.empty() ? SortedKeyOrder() : std::move(key_order_);
    m.num_reducers = order.size();
    std::size_t total_outputs = 0;
    for (const auto& [pos, p, i] : order) {
      const std::uint64_t size = shards_[p].groups.group_size(i);
      m.reducer_sizes.Add(static_cast<double>(size));
      m.max_reducer_input = std::max<std::uint64_t>(m.max_reducer_input,
                                                    size);
      total_outputs += shards_[p].outputs[i].size();
      if (obs_metrics) reducer_q_hist.Add(size);
    }
    outputs.reserve(total_outputs);
    if (sim) loads.reserve(order.size());
    for (const auto& [pos, p, i] : order) {
      for (auto& out : shards_[p].outputs[i]) {
        outputs.push_back(std::move(out));
      }
      if (sim) loads.push_back(shards_[p].loads[i]);
    }
    // How evenly the partitioner spread the routed pairs: max over mean
    // per-shard routed rows. 1.0 = perfectly balanced shards; the gap to
    // 1.0 is what sampled-range placement exists to close.
    if (physical_.shards > 1) {
      std::uint64_t total_routed = 0;
      std::uint64_t max_routed = 0;
      for (const Shard& shard : shards_) {
        total_routed += shard.routed_rows;
        max_routed = std::max(max_routed, shard.routed_rows);
      }
      if (total_routed > 0) {
        m.partition_skew_ratio =
            static_cast<double>(max_routed) /
            (static_cast<double>(total_routed) /
             static_cast<double>(physical_.shards));
      }
    }
  }
  m.num_outputs = outputs.size();

  if (speculative_) {
    const auto stats = exec_.speculation_stats(round_tag_);
    m.speculative_launched = stats.launched;
    m.speculative_won = stats.won;
  }

  if (sim) {
    // Loads arrive in global first-seen key order — the exact order the
    // barrier engine fed SimulateCluster, so reports are bit-identical.
    const SimulationReport report = SimulateCluster(loads, simulation_);
    m.worker_loads = report.worker_pairs;
    m.makespan = report.makespan;
    m.load_imbalance = report.load_imbalance;
    m.straggler_impact = report.straggler_impact;
    m.capacity_violations = report.capacity_violations;
    // Simulated-defense accounting folds into the same counters the
    // executor's real backups use: both measure the round's defenses.
    m.hot_keys_split = report.hot_keys_split;
    m.speculative_launched += report.speculative_launched;
    m.speculative_won += report.speculative_won;
  }

  FillTimings(m);

  if (obs_metrics) {
    obs::Registry& registry = obs::Registry::Global();
    m.PublishTo(registry);
    registry.MergeHistogram("engine.reducer_q", reducer_q_hist);
    registry.MergeHistogram("engine.map_task_bytes", map_bytes_hist);
  }
  if (obs::TraceRecorder::enabled()) {
    // One summary span covering the round from its first map task to now
    // (finalize is the round's last task), carrying the planner's
    // predicted q/r next to the realized values so a trace answers
    // "which stage blew its bound" without cross-referencing logs.
    const StageWindow window = WindowOf(exec_, map_tasks_);
    const double begin_ms = window.valid ? window.begin : exec_base_ms_;
    auto to_trace_us = [&](double ms) {
      const double us =
          static_cast<double>(trace_base_us_) + (ms - exec_base_ms_) * 1000.0;
      return us > 0 ? static_cast<std::uint64_t>(us) : 0;
    };
    obs::TraceEvent event;
    event.name = "Round";
    event.category = "round";
    event.round = round_tag_;
    event.t_start_us = to_trace_us(begin_ms);
    event.t_end_us = to_trace_us(exec_.NowMs());
    event.args.push_back(obs::Arg("backend", "in_process"));
    AppendRoundArgs(physical_, prediction_, m, event.args);
    obs::TraceRecorder::Global().Append(std::move(event));
  }

  if (output_slot_ != nullptr) {
    *output_slot_ = std::make_shared<std::vector<Out>>(std::move(outputs));
  } else {
    result_.outputs = std::move(outputs);
  }
  // Release the bulky intermediate state; nothing reads it after finalize
  // (streamed consumers are finalize dependencies). A speculative round
  // keeps it: a losing attempt may still be draining against the blocks
  // and groups, so the state dies with the round object instead (Wait
  // drains every attempt before results are consumed).
  if (!speculative_) {
    shards_.clear();
    merged_ = ShuffleResult<K, V>{};
    flat_outputs_.clear();
    flat_sizes_.clear();
    blocks_.clear();
    shard_rows_.clear();
    tag_pos_.clear();
  }
}

}  // namespace internal
}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_EXECUTOR_H_
