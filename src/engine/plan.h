#ifndef MRCOST_ENGINE_PLAN_H_
#define MRCOST_ENGINE_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/lower_bound.h"
#include "src/core/mapping_schema.h"
#include "src/engine/dist_round.h"
#include "src/engine/emitter.h"
#include "src/engine/executor.h"
#include "src/engine/hashing.h"
#include "src/engine/metrics.h"

namespace mrcost::engine {

// The lazy, typed dataflow surface of the engine: a Plan is a DAG of
// map-reduce round nodes built with Dataset<T> fluent calls
// (Map / CombineByKey / ReduceByKey) that run nothing when built. The
// paper's whole point is that a map-reduce computation has a knowable cost
// *before* it runs — the Section 2.4 recipe prices a mapping schema
// analytically — so the plan offers, in order:
//   * Estimate(recipe, options)
//                       — predicted q, r, and lower-bound ratio per round
//                         from declared schema hints or a map-fn sample,
//                         before any data moves, with the strategy each
//                         round resolves to under `options` — the same
//                         prediction and strategy rule Execute applies;
//   * Explain(options)  — the physical plan: each round's PhysicalRound
//                         (chunks, shards, strategy, partitioner, fetch
//                         credits, reason) and memory budget;
//   * Execute(options)  — lowering onto the stage-graph executor
//                         (src/engine/executor.h), byte-identical for
//                         every shuffle strategy (the one lowering:
//                         every family driver is a plan), each round
//                         shaped by ResolvePhysicalRound
//                         (sharded/external from the round's predicted
//                         bytes vs budget). Rounds run
//                         in node order, each over the input its producer
//                         materialized (the paper prices a round on that
//                         input, Sec. 6.3).

template <typename T>
class Dataset;
class Plan;

/// Analytic estimate hints for one round. A schema round
/// (Dataset::MapBySchema) takes them from its core::MappingSchema; other
/// rounds declare them with WithEstimate. A stage declaring both
/// `replication` and `num_reducers` is priced without executing anything;
/// when either is 0, the prediction samples the map function over up to
/// 1024 of the round's materialized inputs instead. A sample covering
/// every input reproduces the realized r and q exactly; a partial one
/// scales its distinct keys with the input count. A round with neither
/// (its input not materialized yet) assumes r = 1 and one reducer per
/// input.
struct StageEstimate {
  /// Pairs emitted per input — the schema's replication rate r.
  double replication = 0;
  /// Distinct reduce keys the schema addresses (the paper's reducers).
  double num_reducers = 0;
  /// Predicted reduce outputs per reducer, used to propagate the input
  /// count of the next round of a multi-round plan. Defaults to 1 (the
  /// aggregation-shaped common case).
  double outputs_per_reducer = 1;
  /// ByteSizeOf bytes per shuffled pair; 0 = measure by sampling.
  double bytes_per_pair = 0;
};

struct PlanEstimate {
  std::vector<RoundEstimate> rounds;

  double total_predicted_pairs() const;
  std::string ToString() const;
};

/// Which runtime executes the plan's rounds.
enum class ExecutionBackend {
  /// Stage-graph tasks on the in-process thread pool (the default).
  kInProcess,
  /// A coordinator process (this one) fork/execs N `mrcost-worker`
  /// processes and dispatches map/reduce tasks over socket RPC; map runs
  /// stay in the worker that made them and reducers stream them over
  /// per-worker data sockets (see src/dist/). Outputs are byte-identical to
  /// kInProcess. Requires the plan to be registered as a dist recipe
  /// (src/dist/registry.h) so workers can rebuild it; unregistered plans
  /// fall back to in-process execution with a warning. Placement is hash
  /// on every shard count: a kSampledRange pick resolves to kHash.
  kMultiProcess,
};

/// How shuffled bytes travel from map workers to reduce workers. There is
/// one data plane: map tasks retain their encoded runs in a worker-local
/// registry and reduce tasks pull them over per-worker data sockets with
/// credit-based flow control (reducers never buffer more than their share
/// of memory_budget_bytes); a source worker dying before or mid-stream
/// triggers map re-execution and a re-fetch (dist.refetched_runs). Nothing
/// reads this enum or DistOptions::shuffle_transport: both are kept only
/// because perfbench/driver.cc sets them, and go at the next benchmark
/// change.
enum class ShuffleTransport {
  kWireStream,
};

/// Knobs for the multi-process backend.
struct DistOptions {
  int num_workers = 2;
  /// Unread; see ShuffleTransport.
  ShuffleTransport shuffle_transport = ShuffleTransport::kWireStream;
  /// Cap on the encoded run bytes each worker retains in memory for
  /// serving; past it, new runs overflow to worker-private files in the
  /// shared directory (still served over the data socket, and counted in
  /// spill_bytes_written). 0 = unbounded.
  std::uint64_t retain_budget_bytes = 0;
  /// Shared job directory (chunk, result and overflow files, data
  /// sockets); empty = a fresh TempDir under the system
  /// temp dir, removed when the job finishes (unless keep_spills).
  std::string spill_dir;
  bool keep_spills = false;
  /// Worker executable; empty = "mrcost-worker" next to this binary.
  std::string worker_binary;
  double heartbeat_interval_ms = 100;
  /// A worker silent for this long is declared dead (SIGKILL + task
  /// re-issue).
  double heartbeat_timeout_ms = 2000;
  /// Fault injection: worker `kill_worker_index` raises SIGKILL on
  /// receiving its `kill_after_tasks`-th map task (-1 = disabled). The
  /// coordinator re-issues its tasks; outputs stay byte-identical.
  int kill_worker_index = -1;
  int kill_after_tasks = 1;
  /// Fault injection: worker `kill_worker_index` raises
  /// SIGKILL while serving its `kill_after_fetches`-th FetchRun — a death
  /// mid-stream, with reducers actively pulling from it. 0 = disabled;
  /// overrides kill_after_tasks when set.
  int kill_after_fetches = 0;
};

/// Thread sizing and round configuration shared by every round of one
/// plan execution (ExecutionOptions::pipeline).
struct PipelineOptions {
  /// Pool size when the execution owns its pool. 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Optional external pool; when set the execution does not construct one.
  common::ThreadPool* pool = nullptr;
  /// Defaults applied to every round (num_shards, shuffle config,
  /// speculation). A round's own JobOptions (WithOptions) is merged over
  /// these defaults field-wise (MergedJobOptions): fields the round leaves
  /// unset inherit the default — a round overriding only `num_shards`
  /// still runs under the defaults' memory budget and speculation. The
  /// pool field is always the execution's pool.
  JobOptions round_defaults;
  /// Execution-wide shuffle backstop: any shuffle field a round (and the
  /// round defaults) leaves unset inherits this config field-wise, so one
  /// setting runs every round of a multi-round computation under the same
  /// memory budget. See ShuffleConfig's comment for the full resolution
  /// order.
  ShuffleConfig shuffle;
};

/// Knobs for Plan::Execute.
struct ExecutionOptions {
  /// Thread sizing, round defaults (speculation included), and the
  /// execution-wide shuffle backstop. A round whose shuffle strategy stays
  /// kAuto gets sharded/external from its predicted intermediate bytes vs
  /// the memory budget (declared hints, else a map-fn sample of its
  /// materialized input), so only rounds predicted over budget pay the
  /// spill path. Outputs are byte-identical for every choice.
  PipelineOptions pipeline;
  /// When non-empty, the execution runs inside an obs capture scope:
  /// trace_out receives a Chrome trace_event JSON timeline (Perfetto /
  /// chrome://tracing loadable) of every stage-graph task plus one
  /// "Round" summary span per round carrying predicted-vs-realized q/r;
  /// metrics_out receives the obs::Registry snapshot as one JSON
  /// document. Files are written when execution finishes.
  std::string trace_out;
  std::string metrics_out;
  /// Optional problem recipe for trace attribution: when set, each
  /// round's predicted bound ratio (predicted r over the recipe's
  /// lower-bound r(q) at the predicted q) rides on the round span.
  /// Not owned; may be null.
  const core::Recipe* recipe = nullptr;
  /// Where the rounds run; see ExecutionBackend.
  ExecutionBackend backend = ExecutionBackend::kInProcess;
  DistOptions dist;

  ExecutionOptions() = default;
  explicit ExecutionOptions(PipelineOptions options)
      : pipeline(std::move(options)) {}
  /// A plan execution matching one round's JobOptions (pool or thread
  /// count, round defaults) — what the family drivers construct from
  /// their caller-facing options argument.
  explicit ExecutionOptions(const JobOptions& round_defaults) {
    pipeline.num_threads = round_defaults.num_threads;
    pipeline.pool = round_defaults.pool;
    pipeline.round_defaults = round_defaults;
  }
};

/// What Execute returns for a typed target dataset: its materialized
/// elements plus the exact per-round metrics of everything that ran.
template <typename T>
struct ExecutionResult {
  std::vector<T> outputs;
  PipelineMetrics metrics;
  /// The physical shape each executed round ran with, aligned with
  /// metrics.rounds.
  std::vector<PhysicalRound> physical_rounds;
};

namespace internal {

inline constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
inline constexpr std::size_t kUnknownSize = static_cast<std::size_t>(-1);

/// What sampling a round's map function over (a stride sample of) its
/// materialized input measures.
struct MapSample {
  bool valid = false;       // input was materialized, sampling ran
  bool exhaustive = false;  // the sample covered every input
  std::size_t sampled_inputs = 0;
  double pairs_per_input = 0;
  double bytes_per_input = 0;
  std::uint64_t distinct_keys = 0;
  std::uint64_t max_group = 0;  // max pairs sharing one key in the sample
};

struct PlanGraph;

/// One type-erased node of the DAG: either a materialized source or a
/// map(+combine)+reduce round. The typed closures are bound by
/// KeyedDataset::ReduceByKey; everything the untyped executor needs
/// (stage / sample / input_size) is std::function.
struct PlanNode {
  std::string label;
  bool is_source = false;
  bool combined = false;
  std::size_t input = kNoNode;  // producer node of this round's input
  std::size_t source_size = 0;  // for sources
  StageEstimate hint;
  std::optional<JobOptions> options;  // per-round overrides (field-wise)
  /// Stages this round's task graph onto `exec` over its materialized
  /// input slot, shaped by `physical`.
  std::function<std::shared_ptr<StagedHandleBase>(
      PlanGraph&, StageGraphExecutor& exec, const JobOptions&,
      const PhysicalRound& physical)>
      stage;
  std::function<MapSample(const PlanGraph&, std::size_t)> sample;
  std::function<std::size_t(const PlanGraph&)> input_size;
  /// The round's multi-process lowering (see src/engine/dist_round.h);
  /// null when the round's types cannot cross a process boundary through
  /// serde — such rounds run in-process even under kMultiProcess.
  std::shared_ptr<DistRoundOps> dist;
};

/// Shared state behind Plan and every Dataset handle: the nodes in
/// creation (= topological) order and, per node, the materialized
/// std::vector<T> slot (type-erased; sources are materialized at build
/// time, rounds when they execute).
struct PlanGraph {
  std::vector<PlanNode> nodes;
  std::vector<std::shared_ptr<void>> slots;
  /// Per executed round (in execution order), the physical shape it ran
  /// with — filled by the most recent Execute.
  std::vector<PhysicalRound> last_physical;
  /// Recipe identity for the multi-process backend: when non-empty, a
  /// worker process rebuilds this exact graph via
  /// dist::PlanRegistry::Build(dist_recipe, dist_args), so node indices
  /// (and the typed closures behind them) line up across processes.
  /// Stamped by the recipe builders in src/dist/recipes.h; empty for
  /// ad-hoc plans, which then cannot run multi-process.
  std::string dist_recipe;
  std::string dist_args;
};

/// Deterministic stride sample of `map_fn` over `inputs`: runs the map on
/// every stride-th input into a scratch emitter and measures fan-out,
/// bytes, and key multiplicity. Never moves any data — this is the
/// "evaluate the schema, not the job" half of the paper's cost model.
template <typename In, typename K, typename V>
MapSample SampleMapFanout(
    const std::vector<In>& inputs,
    const std::function<void(const In&, Emitter<K, V>&)>& map_fn,
    std::size_t max_inputs) {
  MapSample sample;
  sample.valid = true;
  if (inputs.empty()) {
    sample.exhaustive = true;
    return sample;
  }
  const std::size_t take =
      max_inputs == 0 ? inputs.size() : std::min(inputs.size(), max_inputs);
  // Indices spread across the whole range (i * n / take), not a prefix:
  // drivers concatenate heterogeneous inputs (e.g. one relation after
  // another), so a prefix sample would miss the tail's fan-out entirely.
  Emitter<K, V> scratch;
  for (std::size_t i = 0; i < take; ++i) {
    map_fn(inputs[i * inputs.size() / take], scratch);
  }
  sample.sampled_inputs = take;
  sample.exhaustive = take == inputs.size();
  sample.pairs_per_input =
      static_cast<double>(scratch.num_emitted()) / static_cast<double>(take);
  sample.bytes_per_input =
      static_cast<double>(scratch.bytes()) / static_cast<double>(take);
  // Multiplicity over the scratch block's serialized key bytes (serde is
  // injective, so byte equality is key equality — no typed rebuild).
  std::unordered_map<std::string_view, std::uint64_t> groups;
  const auto& block = scratch.block();
  for (std::size_t r = 0; r < block.rows(); ++r) ++groups[block.key_bytes(r)];
  sample.distinct_keys = groups.size();
  for (const auto& [key, count] : groups) {
    sample.max_group = std::max(sample.max_group, count);
  }
  return sample;
}

/// Resolves the JobOptions one round executes with: per-round overrides
/// merged over the execution's round defaults, then the execution-wide
/// shuffle backstop.
JobOptions ResolveRoundOptions(const PlanNode& node,
                               const ExecutionOptions& options);

/// The nodes an execution of `target` runs: its ancestry, or every node
/// when target == kNoNode. Node order is creation order, so producers
/// precede consumers.
std::vector<bool> NeededNodes(const PlanGraph& graph, std::size_t target);

/// A round over a materialized input, resolved once when it is staged:
/// its merged options, the prediction Estimate makes for it, and the
/// physical shape both backends (and Explain) take from them.
struct ResolvedRound {
  JobOptions options;
  RoundEstimate prediction;
  PhysicalRound physical;
};

ResolvedRound ResolveMaterializedRound(const PlanGraph& graph,
                                       const PlanNode& node,
                                       const ExecutionOptions& options);

/// Runs every round node that `target` depends on (all rounds when
/// target == kNoNode) in node order on one StageGraphExecutor: each round
/// stages over its producer's materialized slot, finalizes, and is waited
/// on before the next one stages. Returns the accumulated metrics. Not
/// reentrant: one execution per PlanGraph at a time.
PipelineMetrics ExecutePlanGraph(PlanGraph& graph,
                                 const ExecutionOptions& options,
                                 std::size_t target);

/// The multi-process counterpart (defined in src/dist/dist_exec.cc):
/// rounds with dist ops run as chunked map tasks + per-shard reduce tasks
/// on worker processes, everything else in-process. ExecutePlanGraph
/// forwards here when options.backend == kMultiProcess.
PipelineMetrics ExecutePlanGraphMulti(PlanGraph& graph,
                                      const ExecutionOptions& options,
                                      std::size_t target);

PlanEstimate EstimatePlanGraph(const PlanGraph& graph,
                               const core::Recipe& recipe,
                               const ExecutionOptions& options);

std::string ExplainPlanGraph(const PlanGraph& graph,
                             const ExecutionOptions& options);

}  // namespace internal

/// A keyed intermediate: a dataset with a map function attached but no
/// reducer yet. Value-semantic builder — WithLabel / WithEstimate /
/// WithOptions / CombineByKey return updated copies; ReduceByKey appends
/// the round node to the plan and returns the typed output dataset.
template <typename In, typename K, typename V>
class KeyedDataset {
 public:
  using MapFn = std::function<void(const In&, Emitter<K, V>&)>;
  using CombineFn = std::function<V(V, V)>;

  KeyedDataset WithLabel(std::string label) const {
    KeyedDataset copy = *this;
    copy.label_ = std::move(label);
    return copy;
  }

  /// Declares the schema's analytic estimate (replication rate, reducer
  /// count) so Estimate can price the round without sampling.
  KeyedDataset WithEstimate(StageEstimate hint) const {
    KeyedDataset copy = *this;
    copy.hint_ = hint;
    return copy;
  }

  /// Per-round execution overrides, merged field-wise over the
  /// execution's round defaults (MergedJobOptions).
  KeyedDataset WithOptions(JobOptions options) const {
    KeyedDataset copy = *this;
    copy.options_ = std::move(options);
    return copy;
  }

  /// Attaches a map-side combiner (associative V x V -> V); the round
  /// lowers onto the combined (map+combine+reduce) form.
  KeyedDataset CombineByKey(CombineFn combine_fn) const {
    KeyedDataset copy = *this;
    copy.combine_ = std::move(combine_fn);
    return copy;
  }

  /// Closes the round: appends a lazy map(+combine)+reduce node to the
  /// plan and returns the typed (unmaterialized) output dataset.
  /// `reduce` is void(const K&, GroupView<V>, std::vector<Out>&): the
  /// key's values in emission order, as a read-only view valid only
  /// during the call (src/engine/grouping.h); outputs append to the
  /// vector.
  template <typename Out, typename ReduceFn>
  Dataset<Out> ReduceByKey(ReduceFn reduce, std::string label = "") const;

 private:
  template <typename T>
  friend class Dataset;

  KeyedDataset(std::shared_ptr<internal::PlanGraph> graph, std::size_t input,
               MapFn map_fn, std::string label)
      : graph_(std::move(graph)),
        input_(input),
        map_(std::move(map_fn)),
        label_(std::move(label)) {}

  std::shared_ptr<internal::PlanGraph> graph_;
  std::size_t input_;
  MapFn map_;
  CombineFn combine_;  // empty = plain round
  std::string label_;
  StageEstimate hint_;
  std::optional<JobOptions> options_;
};

/// A typed handle onto one node of a plan: either a materialized source
/// (Plan::Source) or the future output of a round. Cheap to copy; all
/// copies share the plan.
template <typename T>
class Dataset {
 public:
  /// Starts a round: attaches `map_fn` (void(const T&, Emitter<K, V>&))
  /// under key type K and value type V. Nothing runs until Execute.
  template <typename K, typename V, typename MapFn>
  KeyedDataset<T, K, V> Map(MapFn map_fn, std::string label = "round") const {
    return KeyedDataset<T, K, V>(
        graph_, node_,
        typename KeyedDataset<T, K, V>::MapFn(std::move(map_fn)),
        std::move(label));
  }

  /// Starts a round whose map function is `schema`: each element, as the
  /// value, goes to every reducer schema->ForEachReducer(input_id(element))
  /// names, keyed by the reducer id as K (an unsigned integer wide enough
  /// for num_reducers(), checked here). The round's estimate hint is the
  /// schema's own replication() and num_reducers(), plus
  /// `outputs_per_reducer` — so the assignment ValidateSchema proves is the
  /// one that runs and is priced. Emissions go through one reused
  /// thread-local batch per input.
  template <typename K, typename InputIdFn>
  KeyedDataset<T, K, T> MapBySchema(
      std::shared_ptr<const core::MappingSchema> schema, InputIdFn input_id,
      std::string label, double outputs_per_reducer = 1) const {
    static_assert(std::is_integral_v<K> && std::is_unsigned_v<K>,
                  "MapBySchema keys rows by the reducer id");
    MRCOST_CHECK(schema->num_reducers() == 0 ||
                 schema->num_reducers() - 1 <=
                     std::numeric_limits<K>::max());
    StageEstimate hint;
    hint.replication = schema->replication();
    hint.num_reducers = static_cast<double>(schema->num_reducers());
    hint.outputs_per_reducer = outputs_per_reducer;
    auto map_fn = [schema = std::move(schema),
                   input_id = std::move(input_id)](const T& input,
                                                   Emitter<K, T>& emitter) {
      static thread_local typename Emitter<K, T>::Batch batch;
      schema->ForEachReducer(input_id(input), [&input](core::ReducerId r) {
        batch.emplace_back(static_cast<K>(r), input);
      });
      emitter.EmitBatch(batch);
    };
    return Map<K, T>(std::move(map_fn), std::move(label)).WithEstimate(hint);
  }

  /// Runs every round this dataset depends on and returns its elements
  /// plus the metrics of everything that ran. Re-executes from the
  /// sources each call.
  ExecutionResult<T> Execute(const ExecutionOptions& options = {}) const {
    ExecutionResult<T> result;
    result.metrics = internal::ExecutePlanGraph(*graph_, options, node_);
    result.physical_rounds = graph_->last_physical;
    auto slot = std::static_pointer_cast<std::vector<T>>(graph_->slots[node_]);
    if (graph_->nodes[node_].is_source) {
      result.outputs = *slot;  // sources stay materialized
    } else {
      result.outputs = std::move(*slot);
      graph_->slots[node_] = nullptr;
    }
    return result;
  }

  /// The plan this dataset belongs to (for Estimate / Explain).
  Plan plan() const;

  std::size_t node() const { return node_; }

 private:
  friend class Plan;
  template <typename In, typename K, typename V>
  friend class KeyedDataset;

  Dataset(std::shared_ptr<internal::PlanGraph> graph, std::size_t node)
      : graph_(std::move(graph)), node_(node) {}

  std::shared_ptr<internal::PlanGraph> graph_;
  std::size_t node_;
};

/// The plan handle: owns the shared DAG, creates sources, and offers the
/// untyped whole-plan operations (Estimate / Explain / Execute). Typed
/// outputs are read through Dataset<T>::Execute.
class Plan {
 public:
  Plan() : graph_(std::make_shared<internal::PlanGraph>()) {}

  /// Materializes `inputs` as a source dataset (moved into the plan).
  template <typename T>
  Dataset<T> Source(std::vector<T> inputs, std::string label = "source") {
    internal::PlanNode node;
    node.label = std::move(label);
    node.is_source = true;
    node.source_size = inputs.size();
    const std::size_t id = graph_->nodes.size();
    graph_->nodes.push_back(std::move(node));
    graph_->slots.push_back(
        std::make_shared<std::vector<T>>(std::move(inputs)));
    return Dataset<T>(graph_, id);
  }

  std::size_t num_rounds() const;

  /// Prices every round against `recipe` before any data moves — see
  /// RoundEstimate. Each round is resolved with the options Execute would
  /// run it with, so its prediction and planned strategy are the ones its
  /// execution takes (rounds over the same materialized input). Rounds
  /// whose inputs are not yet materialized are propagated from the
  /// previous round's predicted reducers x outputs_per_reducer.
  PlanEstimate Estimate(const core::Recipe& recipe,
                        const ExecutionOptions& options = {}) const;

  /// The human-readable physical plan: each round's PhysicalRound with
  /// its reasons and memory budget, as `options` would
  /// execute it. Rounds whose input is not materialized yet resolve when
  /// they run.
  std::string Explain(const ExecutionOptions& options = {}) const;

  /// Runs every round, returning the accumulated metrics. Typed outputs
  /// are read through Dataset<T>::Execute instead.
  PipelineMetrics Execute(const ExecutionOptions& options = {});

  /// Per executed round, the physical shape the most recent Execute ran
  /// with.
  const std::vector<PhysicalRound>& last_physical_rounds() const;

  /// The shared node graph. Used by the dist layer: recipe builders stamp
  /// the graph's recipe identity through it and the worker runtime walks
  /// nodes to run their dist ops.
  const std::shared_ptr<internal::PlanGraph>& graph() const {
    return graph_;
  }

 private:
  template <typename T>
  friend class Dataset;

  explicit Plan(std::shared_ptr<internal::PlanGraph> graph)
      : graph_(std::move(graph)) {}

  std::shared_ptr<internal::PlanGraph> graph_;
};

template <typename T>
Plan Dataset<T>::plan() const {
  return Plan(graph_);
}

template <typename In, typename K, typename V>
template <typename Out, typename ReduceFn>
Dataset<Out> KeyedDataset<In, K, V>::ReduceByKey(ReduceFn reduce,
                                                 std::string label) const {
  using ReduceStd =
      std::function<void(const K&, GroupView<V>, std::vector<Out>&)>;
  internal::PlanNode node;
  node.label = label.empty() ? label_ : std::move(label);
  node.input = input_;
  node.combined = static_cast<bool>(combine_);
  node.hint = hint_;
  node.options = options_;

  const std::size_t in_id = input_;
  const std::size_t out_id = graph_->nodes.size();
  MapFn map_fn = map_;
  CombineFn combine_fn = combine_;
  ReduceStd reduce_fn = std::move(reduce);

  node.stage = [in_id, out_id, map_fn, combine_fn, reduce_fn](
                   internal::PlanGraph& graph, StageGraphExecutor& exec,
                   const JobOptions& options, const PhysicalRound& physical)
      -> std::shared_ptr<internal::StagedHandleBase> {
    using PlainRound =
        internal::StagedRound<In, K, V, Out, internal::NoCombine>;
    using CombinedRound = internal::StagedRound<In, K, V, Out, CombineFn>;
    const auto tag = static_cast<std::uint32_t>(out_id);
    auto input =
        std::static_pointer_cast<const std::vector<In>>(graph.slots[in_id]);
    if (combine_fn) {
      auto round = CombinedRound::StageMaterialized(
          exec, tag, *input, input, map_fn, combine_fn, reduce_fn, options,
          physical);
      round->set_output_slot(&graph.slots[out_id]);
      return round;
    }
    auto round = PlainRound::StageMaterialized(
        exec, tag, *input, input, map_fn, internal::NoCombine{}, reduce_fn,
        options, physical);
    round->set_output_slot(&graph.slots[out_id]);
    return round;
  };
  node.sample = [in_id, map_fn](const internal::PlanGraph& graph,
                                std::size_t max_inputs) {
    auto input =
        std::static_pointer_cast<const std::vector<In>>(graph.slots[in_id]);
    if (!input) return internal::MapSample{};
    return internal::SampleMapFanout<In, K, V>(*input, map_fn, max_inputs);
  };
  node.input_size =
      [in_id](const internal::PlanGraph& graph) -> std::size_t {
    auto input =
        std::static_pointer_cast<const std::vector<In>>(graph.slots[in_id]);
    return input ? input->size() : internal::kUnknownSize;
  };
  // The multi-process lowering exists exactly when every boundary type
  // can cross a process through serde; other rounds keep dist null and
  // run in-process under every backend.
  if constexpr (storage::IsSerdeSerializableV<In> &&
                storage::IsSerdeSerializableV<K> &&
                storage::IsSerdeSerializableV<V> &&
                storage::IsSerdeSerializableV<Out>) {
    node.dist = std::make_shared<internal::DistRoundOps>(
        internal::MakeDistRoundOps<In, K, V, Out>(map_fn, combine_fn,
                                                  reduce_fn));
  }

  auto graph = graph_;
  graph->nodes.push_back(std::move(node));
  graph->slots.push_back(nullptr);
  return Dataset<Out>(graph, out_id);
}

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_PLAN_H_
