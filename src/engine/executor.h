#ifndef MRCOST_ENGINE_EXECUTOR_H_
#define MRCOST_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/engine/emitter.h"
#include "src/engine/grouping.h"
#include "src/engine/metrics.h"
#include "src/engine/partitioner.h"
#include "src/engine/shuffle.h"
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
// reducing while other shards are still grouping. Every round maps over a
// materialized input; outputs stay byte-identical to the barrier engine
// for every strategy: every grouped key carries its first row's global
// emission position, and the deterministic first-seen merge runs on
// positions instead of arrival order.

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
  /// Shuffle configuration (strategy, memory budget, spill dir,
  /// partitioner) — the one ShuffleConfig shared with PipelineOptions and
  /// the external shuffle; see its comment for the field-wise resolution
  /// order. All strategies produce byte-identical outputs; only memory
  /// behaviour and metrics differ.
  ShuffleConfig shuffle;
  /// Speculative backup tasks for slow in-memory shard tasks (first
  /// finisher wins, outputs unchanged). Requires copyable value types;
  /// rounds whose values are move-only silently run without backups.
  SpeculationConfig speculation;

  std::size_t ResolvedThreads() const {
    if (pool != nullptr) return pool->num_threads();
    if (num_threads > 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }
};

/// Field-wise merge of per-round overrides onto defaults: every field left
/// at its unset value (0 / nullptr / kAuto / "" / disabled speculation)
/// inherits the default's value. This is the single merge rule the plan
/// executor applies to a round's WithOptions — a round overriding only
/// `num_shards` still gets the defaults' memory budget, speculation and
/// thread sizing.
inline JobOptions MergedJobOptions(JobOptions overrides,
                                   const JobOptions& defaults) {
  if (overrides.num_threads == 0) overrides.num_threads = defaults.num_threads;
  if (overrides.pool == nullptr) overrides.pool = defaults.pool;
  if (overrides.num_shards == 0) overrides.num_shards = defaults.num_shards;
  overrides.shuffle = overrides.shuffle.MergedOver(defaults.shuffle);
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
  /// Reduce partitions: in-memory shards, external shards (each reading
  /// its own spilled and in-memory runs), or multi-process reduce tasks.
  /// Rows are routed onto them by `partitioner`.
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

/// Where a RoundEstimate's r and reducer count came from.
enum class PredictionSource {
  /// Both from the round's StageEstimate hint.
  kDeclared,
  /// From a map-fn sample of the round's materialized input, where the
  /// hint leaves them open (or a budget needs bytes it does not declare).
  kSampled,
  /// Neither declared nor sampled (the input is not materialized yet):
  /// r = 1 and one reducer per input are assumptions.
  kAssumed,
};

/// A round's predicted communication geometry and its standing against
/// the recipe lower bound, computed before the round runs by one function
/// (plan.cc's PredictRound). Plan::Estimate returns one per round, and
/// both backends' Round spans carry the one their round resolved.
struct RoundEstimate {
  std::size_t round = 0;  // 1-based, matching RoundCostReport
  std::string label;
  /// True when the round's input count was read off a materialized
  /// dataset (always true for round 1); false when it was propagated from
  /// the previous round's predicted reducers x outputs_per_reducer.
  bool inputs_known = false;
  double num_inputs = 0;
  double predicted_pairs = 0;
  /// Predicted replication rate r = predicted_pairs / num_inputs. For a
  /// combined round this is the pre-combine rate (an upper bound on what
  /// crosses the shuffle).
  double predicted_r = 0;
  double predicted_reducers = 0;
  /// Predicted reducer size q: the exact max input-list length when the
  /// round was sampled exhaustively, else the mean load
  /// predicted_pairs / predicted_reducers.
  double predicted_q = 0;
  /// ByteSizeOf bytes of the intermediate; 0 when neither declared nor
  /// sampled.
  double predicted_bytes = 0;
  /// Section 2.4 bound at predicted_q, clamped at the trivial r >= 1.
  double lower_bound_r = 0;
  /// predicted_r / lower_bound_r (see RoundCostReport::optimality_ratio
  /// for the reading of values below 1 on partial-result rounds).
  double optimality_ratio = 0;
  /// The strategy the round resolves to under the estimate's options.
  ShuffleStrategy planned_strategy = ShuffleStrategy::kAuto;
  PredictionSource source = PredictionSource::kAssumed;
};

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
/// while the graph is running (a round's early tasks start while it is
/// still being staged); Wait blocks until every task added so far has
/// finished. Task completion is published under the executor's
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

  /// Every task's (kind, round tag, span), for the execution's span
  /// accounting. Call after Wait.
  struct TaskRecord {
    StageKind kind;
    std::uint32_t round_tag;
    TaskSpan span;
  };
  std::vector<TaskRecord> SnapshotRecords() const;

  /// Minor page faults of every finished attempt of the round's tasks
  /// (each attempt's RUSAGE_THREAD ru_minflt delta). Counted only for
  /// tasks added while tracing was on; 0 otherwise.
  std::uint64_t MinorFaults(std::uint32_t round_tag) const;

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
    std::uint64_t minor_faults = 0;  // summed over finished attempts
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
  /// The round's predicted pairs and bytes; null = unknown.
  const RoundEstimate* prediction = nullptr;
  /// Takes the map-fn sample of the input the placement reads skew off.
  /// Called only for a round whose placement is left to the sample (in
  /// memory, in process, over more than one shard, partitioner kAuto);
  /// null = no sample.
  std::function<MapSample()> sample = nullptr;
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

// ---------------------------------------------------------------------------
// The in-memory round body. StagedRound's in-memory tasks and the worker
// processes' map and reduce tasks (src/engine/dist_round.h) call these
// same functions, so both backends compute a round identically; they
// differ only in how a shard's routed rows reach it.

/// MapPartition's body: `map_inputs(emitter)` runs the map over one
/// chunk's inputs, and a combined round then folds the block
/// (CombineBlock). Returns the block that crosses the shuffle, rows in
/// emission order, and fills `counters`.
template <typename K, typename V, typename CombineFn, typename MapInputs>
storage::KVBlock<K, V> MapBlock(MapInputs&& map_inputs,
                                const CombineFn& combine,
                                MapCounters& counters) {
  Emitter<K, V> emitter;
  map_inputs(emitter);
  counters.raw_pairs = emitter.num_emitted();
  counters.blocks = emitter.blocks_emitted();
  counters.copied = emitter.bytes_copied();
  if constexpr (!std::is_same_v<CombineFn, NoCombine>) {
    if (combine) {
      storage::KVBlock<K, V> combined =
          CombineBlock(emitter.block(), combine, counters.bytes, nullptr);
      counters.pairs = combined.rows();
      counters.copied += combined.CopiedBytes();
      return combined;
    }
  }
  counters.pairs = counters.raw_pairs;
  counters.bytes = emitter.bytes();
  return std::move(emitter.block());
}

/// RouteBlock's body, a radix pass: appends each row in [lo, hi) of
/// `block`, in row order, to the row list of its shard — `range`'s when
/// set (sampled-range placement), else the hash's. Shards receive row
/// indices into the block, not copies; the hash column already holds the
/// routing hash.
template <typename K, typename V>
void RouteRows(const storage::KVBlock<K, V>& block, std::size_t lo,
               std::size_t hi, const RangePartitioner* range,
               std::vector<std::vector<std::uint32_t>>& shard_rows) {
  const std::size_t shards = shard_rows.size();
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t p =
        shards == 1 ? 0
                    : (range != nullptr ? range->ShardOf(block.hash(r))
                                        : IndexOfHash(block.hash(r), shards));
    shard_rows[p].push_back(static_cast<std::uint32_t>(r));
  }
}

/// ShardGroup's body: GroupRows over one shard's `num_rows` rows, which
/// `for_each_row` visits chunk by chunk at positions
/// storage::MakeSpillPos(chunk, row). Values move out of the blocks, or
/// are copied when `copy_values` (a speculative twin reads the same
/// blocks).
template <typename K, typename V, typename ForEachRow>
CsrGroups<K, V> GroupShardRows(std::size_t num_rows,
                               ForEachRow&& for_each_row, bool copy_values) {
  return GroupRows<K, V>(
      num_rows, for_each_row,
      [copy_values](storage::KVBlock<K, V>& block, std::uint32_t r) -> V {
        if constexpr (std::is_copy_constructible_v<V>) {
          if (copy_values) return block.value(r);
        }
        return std::move(block.value(r));
      });
}

/// ReduceShard's body: reduces each group in order and hands its outputs
/// to `take(g, outs)`, stopping early once take returns false. Reducers
/// append into one reused scratch vector, so a caller that keeps outputs
/// gives each key a single exact-size allocation instead of a vector
/// grown push by push (that allocator churn showed up as reduce time).
template <typename Out, typename K, typename V, typename ReduceFn,
          typename Take>
void ReduceGroups(const CsrGroups<K, V>& groups, const ReduceFn& reduce,
                  Take&& take) {
  std::vector<Out> scratch;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    scratch.clear();
    reduce(groups.keys[g], groups.group(g), scratch);
    if (!take(g, scratch)) return;
  }
}

/// Minor page faults the calling thread has taken so far
/// (getrusage(RUSAGE_THREAD) ru_minflt).
std::uint64_t ThreadMinorFaults();

/// The "Round" span's args, one vocabulary for both backends: the
/// physical plan, the realized and the predicted q/r.
void AppendRoundArgs(const PhysicalRound& physical,
                     const RoundEstimate& prediction, const JobMetrics& m,
                     std::vector<obs::TraceArg>& args);

/// Type-erased face of a staged round — all the plan driver needs: attach
/// the prediction, stage the finalize task, and read metrics.
class StagedHandleBase {
 public:
  virtual ~StagedHandleBase() = default;

  /// Attaches the planner's prediction for trace attribution. Call before
  /// staging finalize.
  virtual void SetPrediction(const RoundEstimate& prediction) = 0;

  /// Stages the finalize task (deterministic merge + metrics) behind the
  /// round's reduce tasks. Call once.
  virtual void StageFinalize() = 0;

  /// Valid once the executor has drained this round's tasks.
  virtual const JobMetrics& metrics() const = 0;
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
/// ReduceShard -> Finalize task graph (MapSpill -> ShardGroup ->
/// ReduceShard -> Finalize for the external shuffle) on a
/// StageGraphExecutor over a materialized input. CombineFn is
/// std::function<V(V, V)> for a combined round and NoCombine for a plain
/// one, so the combined path is chosen at compile time.
template <typename In, typename K, typename V, typename Out, typename CombineFn>
class StagedRound final : public StagedHandleBase {
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
    self->Build();
    return self;
  }

  /// Where finalize publishes the merged outputs (a plan slot); when
  /// unset, outputs land in result().
  void set_output_slot(std::shared_ptr<void>* slot) { output_slot_ = slot; }

  /// Valid after StageGraphExecutor::Wait (finalize staged and drained).
  JobResult<Out> TakeResult() { return std::move(result_); }

  // ----- StagedHandleBase

  void StageFinalize() override {
    auto self = self_.lock();
    exec_.AddTask(StageKind::kFinalize, round_tag_, reduce_tasks_,
                  [self] { self->Finalize(); },
                  /*speculatable=*/false, "Finalize");
  }
  const JobMetrics& metrics() const override { return result_.metrics; }
  void SetPrediction(const RoundEstimate& prediction) override {
    prediction_ = prediction;
  }

 private:
  using Block = storage::KVBlock<K, V>;

  /// One shard's grouped state, filled by its ShardGroup task and
  /// consumed by its ReduceShard task. Groups are CSR: one value buffer
  /// per shard (freed once reduced; the offsets keep the sizes).
  struct Shard {
    CsrGroups<K, V> groups;
    std::vector<std::vector<Out>> outputs;  // filled by ReduceShard
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
        physical_(physical) {
    // Speculation covers the in-memory shard tasks only (an external
    // shard's group consumes its runs) and needs copyable values: both
    // attempts read the same routed blocks, so neither may move from
    // them. Move-only rounds silently run undefended.
    speculative_ = options_.speculation.enabled &&
                   physical_.strategy != ShuffleStrategy::kExternal &&
                   std::is_copy_constructible_v<V>;
    if (speculative_) exec_.ConfigureSpeculation(options_.speculation);
    counters_.resize(physical_.chunks);
    // Sized before any task can run: a task may start the moment it is
    // added (its deps already done), while staging still goes on.
    shards_.resize(physical_.shards);
    if (physical_.strategy != ShuffleStrategy::kExternal) {
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
  void Build();
  void MapChunk(std::size_t c, std::size_t lo, std::size_t hi);
  void PlanPartition();
  void RouteBlock(std::size_t task);
  void GroupShard(std::size_t p);
  void SpillRouted(std::size_t c, const Block& block, std::size_t lo,
                   std::size_t hi, std::uint64_t base, bool keep_in_memory);
  void GroupSpilledShard(std::size_t p);
  void ReduceShard(std::size_t p);
  void Finalize();
  void FillTimings(JobMetrics& m) const;

  StageGraphExecutor& exec_;
  std::uint32_t round_tag_ = 0;
  MapFn map_;
  CombineFn combine_;
  ReduceFn reduce_;
  JobOptions options_;
  const PhysicalRound physical_;
  RoundEstimate prediction_;
  std::uint64_t trace_base_us_ = 0;
  double exec_base_ms_ = 0;
  std::weak_ptr<StagedRound> self_;

  const std::vector<In>* inputs_ = nullptr;
  std::shared_ptr<const void> keepalive_;

  // Per-map-task partials (indexed by task). Each map task owns one
  // columnar block; shard_rows_[task][shard] holds the row indices the
  // radix pass routed to that shard, so ShardGroup tasks consume index
  // ranges instead of copied pairs.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::vector<std::vector<std::uint32_t>>> shard_rows_;
  std::vector<MapCounters> counters_;

  // External-shuffle state: one spiller for the round, and per (chunk,
  // shard) the runs spilled, their rows and the unspilled tail run.
  struct ChunkShardSpill {
    std::uint32_t runs = 0;
    std::uint64_t rows = 0;
    storage::ColumnarRun tail;
  };
  std::unique_ptr<storage::RunSpiller> spiller_;
  std::vector<common::Status> spill_status_;
  std::vector<std::vector<ChunkShardSpill>> spills_;

  std::vector<Shard> shards_;

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
  std::vector<TaskId> group_tasks_;   // per shard
  std::vector<TaskId> reduce_tasks_;  // per shard

  std::shared_ptr<void>* output_slot_ = nullptr;
  JobResult<Out> result_;
};

// ---------------------------------------------------------------------------
// StagedRound implementation.

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::Build() {
  const std::size_t n = inputs_->size();
  result_.metrics.num_inputs = n;
  const bool external = physical_.strategy == ShuffleStrategy::kExternal;
  if (external) {
    spiller_ =
        std::make_unique<storage::RunSpiller>(options_.shuffle.spill_dir);
    spill_status_.assign(physical_.chunks, common::Status::Ok());
    spills_.resize(physical_.chunks);
    for (auto& chunk : spills_) chunk.resize(physical_.shards);
  }

  map_tasks_.reserve(physical_.chunks);
  auto self = self_.lock();
  for (std::size_t c = 0; c < physical_.chunks; ++c) {
    const auto range = physical_.ChunkRange(c, n);
    map_tasks_.push_back(exec_.AddTask(
        StageKind::kMap, round_tag_, {},
        [self, c, range] { self->MapChunk(c, range.first, range.second); },
        /*speculatable=*/false, external ? "MapSpill" : "MapPartition",
        static_cast<std::uint32_t>(c)));
  }
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
    auto group = [self, p, external] {
      external ? self->GroupSpilledShard(p) : self->GroupShard(p);
    };
    group_tasks_.push_back(
        exec_.AddTask(StageKind::kShuffle, round_tag_, *group_deps,
                      std::move(group), speculative_, "ShardGroup",
                      static_cast<std::uint32_t>(p)));
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
  if (physical_.strategy == ShuffleStrategy::kExternal) {
    // The chunk's budget share backs one block buffer. Rows past it spill
    // routed, one run per shard in emission order; the tail stays in
    // memory as one run per shard.
    const std::uint64_t share =
        options_.shuffle.memory_budget_bytes / physical_.chunks;
    Emitter<K, V> emitter;
    MapCounters& counters = counters_[c];
    if constexpr (kCombined) {
      // Post-combine rows are what cross the shuffle. The combined block
      // is sliced by accumulated ByteSizeOf at the share, and each slice
      // spills routed. Spill positions are the post-combine emission
      // order.
      for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
      counters.raw_pairs = emitter.block().rows();
      std::vector<std::uint64_t> row_bytes;
      Block combined =
          CombineBlock(emitter.block(), combine_, counters.bytes, &row_bytes);
      counters.pairs = combined.rows();
      counters.blocks = emitter.blocks_emitted();
      counters.copied = emitter.bytes_copied() + combined.CopiedBytes();
      std::size_t lo_row = 0;
      std::uint64_t acc = 0;
      for (std::size_t r = 0; r < combined.rows(); ++r) {
        acc += row_bytes[r];
        if (acc > share) {
          SpillRouted(c, combined, lo_row, r + 1, 0, false);
          lo_row = r + 1;
          acc = 0;
        }
      }
      SpillRouted(c, combined, lo_row, combined.rows(), 0, true);
    } else {
      std::uint64_t next_local = 0;
      emitter.SetOverflow(share, [this, c, &next_local](Block& block) {
        SpillRouted(c, block, 0, block.rows(), next_local, false);
        next_local += block.rows();
      });
      for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
      counters.bytes = emitter.bytes();
      counters.raw_pairs = counters.pairs = emitter.num_emitted();
      counters.blocks = emitter.blocks_emitted();
      counters.copied = emitter.bytes_copied();
      SpillRouted(c, emitter.block(), 0, emitter.block().rows(), next_local,
                  true);
    }
    return;
  }

  blocks_[c] = std::make_unique<Block>(MapBlock<K, V>(
      [&](Emitter<K, V>& emitter) {
        for (std::size_t i = lo; i < hi; ++i) map_((*inputs_)[i], emitter);
      },
      combine_, counters_[c]));
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
  // Under sampled-range placement this runs as its own task (after
  // PlanPartition); equal hashes land on equal shards either way, which
  // is all grouping correctness needs.
  if (blocks_[task] == nullptr) return;
  RouteRows(*blocks_[task], 0, blocks_[task]->rows(),
            range_partitioner_.get(), shard_rows_[task]);
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
  // Each task's routed rows in row order, tasks in order: ascending
  // positions, since tasks are contiguous input ranges.
  sh.groups = GroupShardRows<K, V>(
      owned,
      [this, p](auto&& visit) {
        for (std::size_t t = 0; t < physical_.chunks; ++t) {
          if (blocks_[t] == nullptr) continue;
          const auto chunk = static_cast<std::uint32_t>(t);
          for (const std::uint32_t r : shard_rows_[t][p]) {
            visit(*blocks_[t], r, storage::MakeSpillPos(chunk, r));
          }
        }
      },
      speculative_);
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
void StagedRound<In, K, V, Out, CombineFn>::SpillRouted(
    std::size_t c, const Block& block, std::size_t lo, std::size_t hi,
    std::uint64_t base, bool keep_in_memory) {
  // Rows [lo, hi) of chunk c's `block`, row r at local position base + r,
  // routed by hash; each shard's rows become one run in emission order,
  // spilled or, for the chunk's tail, kept.
  common::Status& status = spill_status_[c];
  if (!status.ok()) return;
  std::vector<std::vector<std::uint32_t>> rows(physical_.shards);
  RouteRows(block, lo, hi, /*range=*/nullptr, rows);
  const auto chunk = static_cast<std::uint32_t>(c);
  for (std::size_t p = 0; p < physical_.shards && status.ok(); ++p) {
    if (rows[p].empty()) continue;
    ChunkShardSpill& spill = spills_[c][p];
    spill.rows += rows[p].size();
    storage::ColumnarRun run =
        storage::RunFromRows(block, rows[p], [&](std::uint32_t r) {
          return storage::MakeSpillPos(chunk, base + r);
        });
    if (keep_in_memory) {
      spill.tail = std::move(run);
    } else {
      ++spill.runs;
      status = spiller_->SpillBlockRun(run, static_cast<std::uint32_t>(p));
    }
  }
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::GroupSpilledShard(std::size_t p) {
  for (const common::Status& status : spill_status_) {
    MRCOST_CHECK_OK(status);
  }
  // The shard's runs in position order: chunk by chunk, each chunk's
  // spilled runs (the spiller lists them in position order) and then its
  // tail.
  const std::vector<std::string> paths =
      spiller_->spill_run_paths(static_cast<std::uint32_t>(p));
  std::vector<std::unique_ptr<storage::BlockRunSource>> sources;
  std::size_t next_path = 0;
  std::uint64_t rows = 0;
  for (std::vector<ChunkShardSpill>& chunk : spills_) {
    ChunkShardSpill& spill = chunk[p];
    rows += spill.rows;
    for (std::uint32_t i = 0; i < spill.runs; ++i) {
      sources.push_back(std::make_unique<storage::DiskBlockRunSource>(
          paths.at(next_path++)));
    }
    if (!spill.tail.empty()) {
      sources.push_back(std::make_unique<storage::MemoryBlockRunSource>(
          std::move(spill.tail)));
    }
  }
  MRCOST_CHECK(next_path == paths.size());
  auto groups = GroupRuns<K, V>(std::move(sources), rows);
  MRCOST_CHECK_OK(groups.status());
  shards_[p].groups = std::move(*groups);
  shards_[p].routed_rows = rows;
}

template <typename In, typename K, typename V, typename Out, typename CombineFn>
void StagedRound<In, K, V, Out, CombineFn>::ReduceShard(std::size_t p) {
  // Reducers read views into the committed shard, which no attempt
  // mutates, so speculative twins share it; each reduces into
  // attempt-local buffers and publishes first-wins.
  Shard& shard = shards_[p];
  const CsrGroups<K, V>& groups = shard.groups;
  std::vector<std::vector<Out>> outputs(groups.size());
  ReduceGroups<Out>(
      groups, reduce_, [&](std::size_t g, std::vector<Out>& outs) {
        outputs[g].reserve(outs.size());
        for (Out& o : outs) outputs[g].push_back(std::move(o));
        return true;
      });
  if (!speculative_) {
    shard.outputs = std::move(outputs);
    std::vector<V>().swap(shard.groups.values);
    return;
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!reduce_committed_[p]) {
    reduce_committed_[p] = 1;
    shard.outputs = std::move(outputs);
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
  const bool traced = obs::TraceRecorder::enabled();
  const std::uint64_t faults_at_start = traced ? ThreadMinorFaults() : 0;
  JobMetrics& m = result_.metrics;
  const bool obs_metrics = obs::MetricsEnabled();
  common::Log2Histogram reducer_q_hist;
  common::Log2Histogram map_bytes_hist;
  for (const MapCounters& counters : counters_) {
    counters.AddTo(m);
    if (obs_metrics) map_bytes_hist.Add(counters.bytes);
  }

  std::vector<Out> outputs;

  if (physical_.strategy == ShuffleStrategy::kExternal) {
    m.spill_runs = spiller_->spill_runs();
    m.spill_bytes_written = spiller_->bytes_written();
    m.merge_passes = 1;  // each shard reads its runs once
    m.compression_ratio = spiller_->encode_stats().CompressionRatio();
    spiller_.reset();  // the run files go with it
  }
  // Deterministic merge: interleave the shards' keys back into global
  // first-seen order — (first position, shard, index within shard) sorted
  // on the position is byte-identical to the serial reference for every
  // shard count, thread count, and task schedule.
  std::size_t num_keys = 0;
  for (const Shard& shard : shards_) num_keys += shard.groups.size();
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> order;
  order.reserve(num_keys);
  for (std::uint32_t p = 0; p < shards_.size(); ++p) {
    for (std::uint32_t i = 0; i < shards_[p].groups.size(); ++i) {
      order.emplace_back(shards_[p].groups.first[i], p, i);
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) < std::get<0>(b);
  });
  m.num_reducers = order.size();
  std::size_t total_outputs = 0;
  for (const auto& [pos, p, i] : order) {
    const std::uint64_t size = shards_[p].groups.group_size(i);
    m.reducer_sizes.Add(static_cast<double>(size));
    m.max_reducer_input = std::max<std::uint64_t>(m.max_reducer_input, size);
    total_outputs += shards_[p].outputs[i].size();
    if (obs_metrics) reducer_q_hist.Add(size);
  }
  outputs.reserve(total_outputs);
  for (const auto& [pos, p, i] : order) {
    for (auto& out : shards_[p].outputs[i]) {
      outputs.push_back(std::move(out));
    }
  }
  // The placement the round made: rows routed to each shard, and from
  // them partition_skew_ratio.
  std::vector<std::uint64_t> shard_pairs;
  shard_pairs.reserve(shards_.size());
  for (const Shard& shard : shards_) shard_pairs.push_back(shard.routed_rows);
  m.SetShardPairs(std::move(shard_pairs));
  m.num_outputs = outputs.size();

  if (speculative_) {
    const auto stats = exec_.speculation_stats(round_tag_);
    m.speculative_launched = stats.launched;
    m.speculative_won = stats.won;
  }

  FillTimings(m);

  if (obs_metrics) {
    obs::Registry& registry = obs::Registry::Global();
    m.PublishTo(registry);
    registry.MergeHistogram("engine.reducer_q", reducer_q_hist);
    registry.MergeHistogram("engine.map_task_bytes", map_bytes_hist);
  }
  if (traced) {
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
    // Finished tasks plus this finalize so far (its own attempt span
    // closes after this one is recorded).
    event.args.push_back(obs::Arg(
        "minor_faults", exec_.MinorFaults(round_tag_) +
                            (ThreadMinorFaults() - faults_at_start)));
    obs::TraceRecorder::Global().Append(std::move(event));
  }

  if (output_slot_ != nullptr) {
    *output_slot_ = std::make_shared<std::vector<Out>>(std::move(outputs));
  } else {
    result_.outputs = std::move(outputs);
  }
  // Release the bulky intermediate state; nothing reads it after finalize.
  // A speculative round
  // keeps it: a losing attempt may still be draining against the blocks
  // and groups, so the state dies with the round object instead (Wait
  // drains every attempt before results are consumed).
  if (!speculative_) {
    shards_.clear();
    blocks_.clear();
    shard_rows_.clear();
    spills_.clear();
  }
}

}  // namespace internal
}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_EXECUTOR_H_
