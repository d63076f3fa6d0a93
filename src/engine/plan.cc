#include "src/engine/plan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "src/obs/export.h"
#include "src/storage/spill_file.h"

namespace mrcost::engine {
namespace internal {
namespace {

/// The in-memory shuffles briefly hold the map output and its grouped
/// copy at once, and the sample is an extrapolation; a round is only kept
/// in memory when its estimated intermediate fits the budget with this
/// factor of headroom, so a mispredicted sample errs toward spilling
/// (the budget-respecting side), not toward blowing the budget.
constexpr double kInMemoryHeadroomFactor = 2.0;

/// A key whose sampled group is this many times the mean group marks the
/// distribution as skewed enough that equal-width hash placement will
/// overload whichever shard owns it — sampled-range placement pays one
/// extra routing pass to rebalance.
constexpr double kSkewTriggerRatio = 4.0;

/// Inputs per map chunk, and the chunk cap. Compile-time constants: the
/// chunk count follows the input alone, never the host or an option.
constexpr std::size_t kInputsPerChunk = 1024;
constexpr std::size_t kMaxChunks = 8;

/// Inputs the prediction samples a round's map function over, when its
/// hint leaves r or the reducer count open. 1024 covers a small input
/// whole, and an exhaustive sample's max group is the exact q.
constexpr std::size_t kPredictionSampleInputs = 1024;

/// Inputs the placement reads skew off, fewer than the prediction's: a
/// sample's hottest key stands further above its mean group the more
/// inputs it covers. At 1024 inputs the Splitting join over all 2^18
/// strings in shuffled order (k = 3, d = 1; the hamming-join benchmark
/// workload) reads a hottest key 4.43x the mean, past kSkewTriggerRatio,
/// and would pay sampled-range routing for a round whose schema loads
/// every reducer equally; at 256 it reads 1.95.
constexpr std::size_t kPlacementSampleInputs = 256;

/// The pool-sizing JobOptions internal::PoolRef expects: the execution's
/// thread count or pool.
JobOptions PoolSizing(const PipelineOptions& options) {
  JobOptions sizing;
  sizing.num_threads = options.num_threads;
  sizing.pool = options.pool;
  return sizing;
}

/// Extrapolates the sample's distinct-key count to the full input: exact
/// when exhaustive, else linear in the input count (a deliberate, crude
/// upper bound — fan-out schemas revisit keys, so scaling overestimates;
/// declared hints beat it).
double ExtrapolateDistinct(const MapSample& sample, double num_inputs) {
  if (sample.exhaustive) return static_cast<double>(sample.distinct_keys);
  if (sample.sampled_inputs == 0) return num_inputs;
  return static_cast<double>(sample.distinct_keys) * num_inputs /
         static_cast<double>(sample.sampled_inputs);
}

std::string HumanBytes(double bytes) {
  std::ostringstream os;
  if (bytes >= 1024.0 * 1024.0) {
    os << bytes / (1024.0 * 1024.0) << " MiB";
  } else if (bytes >= 1024.0) {
    os << bytes / 1024.0 << " KiB";
  } else {
    os << bytes << " B";
  }
  return os.str();
}

std::size_t NumChunks(std::size_t num_inputs) {
  return std::clamp<std::size_t>(
      (num_inputs + kInputsPerChunk - 1) / kInputsPerChunk, 1, kMaxChunks);
}

/// Whether a round's prediction samples its map function: when its hint
/// leaves r or the reducer count open, or a memory budget needs bytes the
/// hint does not declare.
bool NeedsSample(const StageEstimate& hint, const ShuffleConfig& shuffle) {
  return hint.replication <= 0 || hint.num_reducers <= 0 ||
         (shuffle.memory_budget_bytes > 0 && hint.bytes_per_pair <= 0);
}

/// The strategy rule of ResolvePhysicalRound, which Estimate's
/// planned_strategy calls the same way: an explicit strategy wins; under
/// a memory budget a round goes external when its predicted intermediate
/// (with headroom) passes the budget, or when its bytes are unknown
/// (neither declared nor sampled, or no prediction); every other round
/// is sharded, and ResolveShardCount gives a small one a single shard.
ShuffleStrategy ChooseStrategy(const ShuffleConfig& config,
                               const RoundEstimate* prediction,
                               std::string& why) {
  if (config.strategy != ShuffleStrategy::kAuto) {
    why = "explicit";
    return config.strategy;
  }
  if (config.memory_budget_bytes == 0) {
    why = "no memory budget";
    return ShuffleStrategy::kSharded;
  }
  const double budget = static_cast<double>(config.memory_budget_bytes);
  const bool bytes_known =
      prediction != nullptr &&
      (prediction->source == PredictionSource::kSampled ||
       prediction->predicted_bytes > 0);
  if (!bytes_known) {
    why = "intermediate unknown vs " + HumanBytes(budget) + " budget";
    return config.Resolved();
  }
  why = "~" + HumanBytes(prediction->predicted_bytes) + " intermediate vs " +
        HumanBytes(budget) + " budget";
  return kInMemoryHeadroomFactor * prediction->predicted_bytes > budget
             ? ShuffleStrategy::kExternal
             : ShuffleStrategy::kSharded;
}

const char* SourceLabel(PredictionSource source) {
  switch (source) {
    case PredictionSource::kDeclared: return "declared";
    case PredictionSource::kSampled: return "sampled";
    case PredictionSource::kAssumed: return "assumed";
  }
  return "?";
}

/// The one round predictor: r, pairs, reducers, q, bytes and the bound
/// ratio (against `recipe`, when set) of `node` over `num_inputs` inputs —
/// from its declared hint, else from a map sample taken here over its
/// materialized input, else assumed (r = 1, one reducer per input).
/// Estimate and both backends' staging call it with the round's resolved
/// shuffle config, so a round's span carries what Estimate predicted.
RoundEstimate PredictRound(const PlanGraph& graph, const PlanNode& node,
                           const ShuffleConfig& shuffle, double num_inputs,
                           const core::Recipe* recipe) {
  RoundEstimate round;
  round.label = node.label;
  round.num_inputs = num_inputs;
  round.inputs_known = node.input_size(graph) != kUnknownSize;
  const StageEstimate& hint = node.hint;
  MapSample sample;
  if (round.inputs_known && NeedsSample(hint, shuffle)) {
    sample = node.sample(graph, kPredictionSampleInputs);
  }
  round.source = sample.valid ? PredictionSource::kSampled
                 : hint.replication > 0 && hint.num_reducers > 0
                     ? PredictionSource::kDeclared
                     : PredictionSource::kAssumed;

  round.predicted_r = hint.replication > 0 ? hint.replication
                      : sample.valid       ? sample.pairs_per_input
                                           : 1.0;
  round.predicted_pairs = round.predicted_r * num_inputs;
  round.predicted_reducers =
      hint.num_reducers > 0 ? hint.num_reducers
      : sample.valid        ? ExtrapolateDistinct(sample, num_inputs)
                            : num_inputs;
  if (hint.num_reducers <= 0 && sample.valid && sample.exhaustive) {
    // An exhaustive sample knows the exact max input-list length.
    round.predicted_q = static_cast<double>(sample.max_group);
  } else if (round.predicted_reducers > 0) {
    round.predicted_q = round.predicted_pairs / round.predicted_reducers;
  }
  round.predicted_bytes =
      hint.bytes_per_pair > 0 ? hint.bytes_per_pair * round.predicted_pairs
      : sample.valid          ? sample.bytes_per_input * num_inputs
                              : 0;
  if (recipe != nullptr && round.predicted_q >= 1) {
    round.lower_bound_r =
        core::ClampedReplicationLowerBound(*recipe, round.predicted_q);
  }
  if (round.lower_bound_r > 0) {
    round.optimality_ratio = round.predicted_r / round.lower_bound_r;
  }
  return round;
}

}  // namespace

PhysicalRound ResolvePhysicalRound(const JobOptions& options,
                                   const RoundFacts& facts) {
  const ShuffleConfig& config = options.shuffle;
  const MapSample* sample =
      facts.sample != nullptr && facts.sample->valid ? facts.sample : nullptr;
  // < 0 = unknown (no prediction).
  const double pairs =
      facts.prediction != nullptr ? facts.prediction->predicted_pairs : -1;
  PhysicalRound round;
  std::ostringstream why;

  // Chunks follow the input's size.
  round.chunks = NumChunks(facts.num_inputs);
  why << "chunks " << round.chunks << " (" << facts.num_inputs << " inputs";

  std::string strategy_why;
  round.strategy = ChooseStrategy(config, facts.prediction, strategy_why);
  why << "); strategy " << ToString(round.strategy) << " (" << strategy_why
      << "); shards ";
  if (round.strategy == ShuffleStrategy::kExternal) {
    // Two hash-routed shards per thread keep every thread grouping and
    // reducing while the slowest shard finishes.
    round.shards = std::max<std::size_t>(1, facts.num_threads * 2);
    why << round.shards << " (two spill shards per thread)";
  } else {
    round.shards = ResolveShardCount(
        options.num_shards, facts.num_threads,
        pairs < 0 ? static_cast<std::size_t>(-1)
                  : static_cast<std::size_t>(pairs));
    why << round.shards << " (";
    if (options.num_shards > 0) {
      why << "explicit)";
    } else if (pairs < 0) {
      why << facts.num_threads << " threads, pairs unknown)";
    } else {
      why << facts.num_threads << " threads, ~" << std::llround(pairs)
          << " pairs, 4096+ each)";
    }
  }

  why << "; partitioner ";
  if (round.shards <= 1) {
    why << "hash (no shards to place)";
  } else if (round.strategy == ShuffleStrategy::kExternal) {
    why << "hash (runs spill routed, before any sample)";
  } else if (facts.multi_process) {
    why << "hash (workers place by hash)";
  } else if (config.partitioner != PartitionerKind::kAuto) {
    round.partitioner = config.partitioner;
    why << ToString(round.partitioner) << " (explicit)";
  } else if (sample == nullptr || sample->distinct_keys == 0) {
    why << "hash (no sample)";
  } else {
    const double mean_group = sample->pairs_per_input *
                              static_cast<double>(sample->sampled_inputs) /
                              static_cast<double>(sample->distinct_keys);
    const double hot =
        static_cast<double>(sample->max_group) / std::max(mean_group, 1.0);
    if (hot > kSkewTriggerRatio) {
      round.partitioner = PartitionerKind::kSampledRange;
    }
    why << ToString(round.partitioner) << " (hottest sampled key x" << hot
        << " the mean group)";
  }
  round.reason = why.str();

  // Multi-process: each reducer pulls one run per chunk, so its memory
  // bound splits the round's budget across the chunks, in blocks. No
  // budget = a small default window.
  if (config.memory_budget_bytes > 0) {
    round.fetch_credits =
        static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
            config.memory_budget_bytes / round.chunks /
                storage::kDefaultBlockBytes,
            1, 64));
  }
  return round;
}

JobOptions ResolveRoundOptions(const PlanNode& node,
                               const ExecutionOptions& options) {
  JobOptions resolved =
      node.options.has_value()
          ? MergedJobOptions(*node.options, options.pipeline.round_defaults)
          : options.pipeline.round_defaults;
  resolved.shuffle = resolved.shuffle.MergedOver(options.pipeline.shuffle);
  return resolved;
}

std::vector<bool> NeededNodes(const PlanGraph& graph, std::size_t target) {
  std::vector<bool> needed(graph.nodes.size(), target == kNoNode);
  for (std::size_t id = target; id != kNoNode && id < graph.nodes.size();
       id = graph.nodes[id].input) {
    needed[id] = true;
  }
  return needed;
}

ResolvedRound ResolveMaterializedRound(const PlanGraph& graph,
                                       const PlanNode& node,
                                       const ExecutionOptions& options) {
  ResolvedRound round;
  round.options = ResolveRoundOptions(node, options);
  const std::size_t n = node.input_size(graph);
  MRCOST_CHECK(n != kUnknownSize);
  round.prediction = PredictRound(graph, node, round.options.shuffle,
                                  static_cast<double>(n), options.recipe);
  const MapSample placement = node.sample(graph, kPlacementSampleInputs);
  RoundFacts facts;
  facts.num_threads = PoolSizing(options.pipeline).ResolvedThreads();
  facts.num_inputs = n;
  facts.prediction = &round.prediction;
  facts.sample = &placement;
  facts.multi_process = options.backend == ExecutionBackend::kMultiProcess;
  round.physical = ResolvePhysicalRound(round.options, facts);
  round.prediction.planned_strategy = round.physical.strategy;
  return round;
}

PipelineMetrics ExecutePlanGraph(PlanGraph& graph,
                                 const ExecutionOptions& options,
                                 std::size_t target) {
  if (options.backend == ExecutionBackend::kMultiProcess) {
    return ExecutePlanGraphMulti(graph, options, target);
  }
  // Tracing/metrics capture spans the whole execution; files are written
  // when the scope closes, after metrics are final.
  std::optional<obs::ScopedCapture> capture;
  if (!options.trace_out.empty() || !options.metrics_out.empty()) {
    capture.emplace(options.trace_out, options.metrics_out);
  }
  const std::vector<bool> needed = NeededNodes(graph, target);

  PoolRef pool(PoolSizing(options.pipeline));
  StageGraphExecutor exec(pool.get());
  graph.last_physical.clear();

  // One schedule: each round stages over the slot its producer
  // materialized, finalizes, and drains before the next one resolves.
  std::vector<std::shared_ptr<StagedHandleBase>> executed;  // node order
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    PlanNode& node = graph.nodes[id];
    if (node.is_source || !needed[id]) continue;
    const ResolvedRound round = ResolveMaterializedRound(graph, node, options);
    auto handle = node.stage(graph, exec, round.options, round.physical);
    handle->SetPrediction(round.prediction);
    handle->StageFinalize();
    exec.Wait();
    graph.last_physical.push_back(round.physical);
    executed.push_back(std::move(handle));
  }

  PipelineMetrics metrics;
  for (const auto& handle : executed) metrics.Add(handle->metrics());
  if (!executed.empty()) {
    const auto records = exec.SnapshotRecords();
    double begin = records.front().span.begin_ms;
    double end = records.front().span.end_ms;
    for (const auto& record : records) {
      begin = std::min(begin, record.span.begin_ms);
      end = std::max(end, record.span.end_ms);
    }
    metrics.exec_span_ms = end - begin;
  }
  return metrics;
}

PlanEstimate EstimatePlanGraph(const PlanGraph& graph,
                               const core::Recipe& recipe,
                               const ExecutionOptions& options) {
  PlanEstimate estimate;
  // Predicted output count per node, so each round reads its own
  // producer's prediction (node.input) — correct for branched plans and
  // multiple sources, not just a single chain.
  std::vector<double> predicted_outputs(graph.nodes.size(), 0);
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const PlanNode& node = graph.nodes[id];
    if (node.is_source) {
      predicted_outputs[id] = static_cast<double>(node.source_size);
      continue;
    }
    const std::size_t materialized = node.input_size(graph);
    const JobOptions resolved = ResolveRoundOptions(node, options);
    RoundEstimate round = PredictRound(
        graph, node, resolved.shuffle,
        materialized != kUnknownSize ? static_cast<double>(materialized)
                                     : predicted_outputs[node.input],
        &recipe);
    round.round = estimate.rounds.size() + 1;
    std::string why;
    round.planned_strategy = ChooseStrategy(resolved.shuffle, &round, why);

    const double outputs_per_reducer = node.hint.outputs_per_reducer > 0
                                           ? node.hint.outputs_per_reducer
                                           : 1.0;
    predicted_outputs[id] = round.predicted_reducers * outputs_per_reducer;
    estimate.rounds.push_back(std::move(round));
  }
  return estimate;
}

std::string ExplainPlanGraph(const PlanGraph& graph,
                             const ExecutionOptions& options) {
  std::ostringstream os;
  std::size_t round_index = 0;
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const PlanNode& node = graph.nodes[id];
    if (id > 0) os << "\n";
    if (node.is_source) {
      os << "source '" << node.label << "': " << node.source_size
         << " inputs materialized";
      continue;
    }
    ++round_index;
    os << "round " << round_index << " '" << node.label << "' ("
       << (node.combined ? "map+combine+reduce" : "map+reduce") << ")";

    const std::size_t materialized = node.input_size(graph);
    os << "\n  inputs: ";
    if (materialized != kUnknownSize) {
      os << materialized << " (materialized)";
    } else {
      os << "unmaterialized (produced by round upstream)";
    }

    const JobOptions resolved = ResolveRoundOptions(node, options);
    os << "\n  physical: ";
    if (materialized == kUnknownSize) {
      os << "chooser decides at run time, once the input is materialized";
    } else {
      const PhysicalRound physical =
          ResolveMaterializedRound(graph, node, options).physical;
      os << "chunks=" << physical.chunks << " shards=" << physical.shards
         << " strategy=" << ToString(physical.strategy)
         << " partitioner=" << ToString(physical.partitioner)
         << " fetch_credits=" << physical.fetch_credits
         << "\n  reason: " << physical.reason;
    }
    if (resolved.shuffle.memory_budget_bytes > 0) {
      os << "\n  memory budget: "
         << HumanBytes(
                static_cast<double>(resolved.shuffle.memory_budget_bytes))
         << (resolved.shuffle.spill_dir.empty()
                 ? std::string(", spill dir: <system temp>")
                 : ", spill dir: " + resolved.shuffle.spill_dir);
    }
  }
  return os.str();
}

}  // namespace internal

double PlanEstimate::total_predicted_pairs() const {
  double total = 0;
  for (const RoundEstimate& round : rounds) total += round.predicted_pairs;
  return total;
}

std::string PlanEstimate::ToString() const {
  std::ostringstream os;
  for (const RoundEstimate& round : rounds) {
    if (round.round > 1) os << "\n";
    os << "round " << round.round << " '" << round.label
       << "': inputs=" << round.num_inputs
       << (round.inputs_known ? "" : " (propagated)")
       << " q=" << round.predicted_q << " r=" << round.predicted_r
       << " pairs=" << round.predicted_pairs
       << " reducers=" << round.predicted_reducers
       << " bound=" << round.lower_bound_r
       << " ratio=" << round.optimality_ratio
       << " strategy=" << engine::ToString(round.planned_strategy) << " ("
       << internal::SourceLabel(round.source) << ")";
  }
  return os.str();
}

std::size_t Plan::num_rounds() const {
  std::size_t rounds = 0;
  for (const internal::PlanNode& node : graph_->nodes) {
    if (!node.is_source) ++rounds;
  }
  return rounds;
}

PlanEstimate Plan::Estimate(const core::Recipe& recipe,
                            const ExecutionOptions& options) const {
  return internal::EstimatePlanGraph(*graph_, recipe, options);
}

std::string Plan::Explain(const ExecutionOptions& options) const {
  return internal::ExplainPlanGraph(*graph_, options);
}

PipelineMetrics Plan::Execute(const ExecutionOptions& options) {
  return internal::ExecutePlanGraph(*graph_, options, internal::kNoNode);
}

std::future<PipelineMetrics> Plan::ExecuteAsync(ExecutionOptions options) {
  auto graph = graph_;
  return AsyncRunner::Global().Run([graph, options = std::move(options)]() {
    return internal::ExecutePlanGraph(*graph, options, internal::kNoNode);
  });
}

const std::vector<PhysicalRound>& Plan::last_physical_rounds() const {
  return graph_->last_physical;
}

}  // namespace mrcost::engine
