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

/// Pairs below this estimate run the serial reference shuffle — the same
/// regime where ResolveShardCount's auto mode would collapse to one shard
/// anyway (its kMinPairsPerShard), decided here before the map runs.
constexpr double kSerialCutoffPairs = 4096;

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

/// Inputs of a materialized round the map function is sampled over.
constexpr std::size_t kSampleInputs = 256;

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

/// The strategy rule behind both ResolvePhysicalRound and Estimate's
/// planned_strategy annotation. Negative estimates are unknown; unknown
/// bytes with a budget set fall back to Resolved() (budget => external).
/// An explicit shard request keeps a small round off the serial path.
ShuffleStrategy ChooseStrategy(const ShuffleConfig& config, double pairs,
                               double bytes, std::size_t requested_shards,
                               std::string& why) {
  if (config.strategy != ShuffleStrategy::kAuto) {
    why = "explicit";
    return config.strategy;
  }
  if (config.memory_budget_bytes > 0) {
    why = (bytes < 0 ? std::string("intermediate unknown")
                     : "~" + HumanBytes(bytes) + " intermediate") +
          " vs " +
          HumanBytes(static_cast<double>(config.memory_budget_bytes)) +
          " budget";
    if (bytes < 0) return config.Resolved();
    if (kInMemoryHeadroomFactor * bytes >
        static_cast<double>(config.memory_budget_bytes)) {
      return ShuffleStrategy::kExternal;
    }
    why += ", ";
  }
  if (pairs < 0) {
    why += "pairs unknown";
    return ShuffleStrategy::kSharded;
  }
  why += "~" + std::to_string(std::llround(pairs)) + " pairs";
  if (pairs <= kSerialCutoffPairs && requested_shards <= 1) {
    why += " under the serial cutoff";
    return ShuffleStrategy::kSerial;
  }
  return ShuffleStrategy::kSharded;
}

}  // namespace

PhysicalRound ResolvePhysicalRound(const JobOptions& options,
                                   const RoundFacts& facts) {
  const ShuffleConfig& config = options.shuffle;
  const StageEstimate hint =
      facts.estimate != nullptr ? *facts.estimate : StageEstimate{};
  const MapSample* sample =
      facts.sample != nullptr && facts.sample->valid ? facts.sample : nullptr;
  const double n = static_cast<double>(facts.num_inputs);
  // One pair and byte estimate sizes the round: declared hints first,
  // then the map sample; < 0 = unknown (neither declared nor sampled).
  const double pairs = hint.replication > 0 ? hint.replication * n
                       : sample != nullptr  ? sample->pairs_per_input * n
                                            : -1;
  const double bytes =
      pairs >= 0 && hint.bytes_per_pair > 0 ? hint.bytes_per_pair * pairs
      : sample != nullptr                   ? sample->bytes_per_input * n
                                            : -1;
  PhysicalRound round;
  std::ostringstream why;

  // Chunks follow the input's size.
  round.chunks = NumChunks(facts.num_inputs);
  why << "chunks " << round.chunks << " (" << facts.num_inputs << " inputs";

  std::string strategy_why;
  round.strategy =
      ChooseStrategy(config, pairs, bytes, options.num_shards, strategy_why);
  why << "); strategy " << ToString(round.strategy) << " (" << strategy_why
      << "); shards ";
  if (round.strategy == ShuffleStrategy::kExternal) {
    // Two hash-routed shards per thread keep every thread grouping and
    // reducing while the slowest shard finishes.
    round.shards = std::max<std::size_t>(1, facts.num_threads * 2);
    why << round.shards << " (two spill shards per thread)";
  } else if (round.strategy == ShuffleStrategy::kSharded) {
    round.shards = ResolveShardCount(
        options.num_shards, facts.num_threads,
        pairs < 0 ? static_cast<std::size_t>(-1)
                  : static_cast<std::size_t>(pairs));
    why << round.shards << " (";
    if (options.num_shards > 0) {
      why << "explicit)";
    } else {
      why << facts.num_threads << " threads, 4096+ pairs each)";
    }
  } else {
    why << "1 (serial)";
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

/// What the planner would tell the cost model about this round, mirroring
/// EstimatePlanGraph's pricing inputs: declared hints first, the round's
/// map sample as fallback. Attached to the round's trace span.
/// `input_size` is the round's materialized input count.
RoundPrediction PredictRound(const PlanNode& node, const MapSample& sample,
                             std::size_t input_size,
                             const core::Recipe* recipe) {
  RoundPrediction pred;
  const double n = static_cast<double>(input_size);
  const StageEstimate& hint = node.hint;
  const double r = hint.replication > 0
                       ? hint.replication
                       : (sample.valid ? sample.pairs_per_input : 0.0);
  if (r <= 0) return pred;  // nothing declared or sampled
  pred.r = r;
  pred.valid = true;
  const double reducers =
      hint.num_reducers > 0
          ? hint.num_reducers
          : (sample.valid && n > 0 ? ExtrapolateDistinct(sample, n) : 0.0);
  if (hint.num_reducers <= 0 && sample.valid && sample.exhaustive) {
    // An exhaustive sample knows the exact max input-list length.
    pred.q = static_cast<double>(sample.max_group);
  } else if (reducers > 0 && n > 0) {
    pred.q = r * n / reducers;
  }
  if (recipe != nullptr && pred.q >= 1) {
    const double lower_bound =
        core::ClampedReplicationLowerBound(*recipe, pred.q);
    if (lower_bound > 0) pred.bound_ratio = pred.r / lower_bound;
  }
  return pred;
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
  round.sample = node.sample(graph, kSampleInputs);
  RoundFacts facts;
  facts.num_threads = PoolSizing(options.pipeline).ResolvedThreads();
  facts.num_inputs = n;
  facts.estimate = &node.hint;
  facts.sample = &round.sample;
  facts.multi_process = options.backend == ExecutionBackend::kMultiProcess;
  round.physical = ResolvePhysicalRound(round.options, facts);
  round.prediction = PredictRound(node, round.sample, n, options.recipe);
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
                               const EstimateOptions& options) {
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
    RoundEstimate round;
    round.round = estimate.rounds.size() + 1;
    round.label = node.label;

    const std::size_t materialized = node.input_size(graph);
    if (materialized != kUnknownSize) {
      round.num_inputs = static_cast<double>(materialized);
      round.inputs_known = true;
    } else {
      round.num_inputs = predicted_outputs[node.input];
    }

    const StageEstimate& hint = node.hint;
    // The shuffle config the planned_strategy annotation is judged
    // against: per-stage overrides merged over the estimate's config,
    // the same order execution resolves.
    const ShuffleConfig stage_shuffle =
        node.options.has_value()
            ? node.options->shuffle.MergedOver(options.shuffle)
            : options.shuffle;
    // A stage declaring both r and its reducer count is priced without
    // executing anything; sampling runs only to fill a missing core
    // field — or, when the stage's resolved shuffle config sets a budget
    // and no bytes_per_pair is declared, to give the planned_strategy
    // annotation the bytes the budget comparison needs.
    MapSample sample;
    const bool need_sample =
        hint.replication <= 0 || hint.num_reducers <= 0 ||
        (stage_shuffle.memory_budget_bytes > 0 &&
         hint.bytes_per_pair <= 0);
    if (need_sample && materialized != kUnknownSize) {
      sample = node.sample(graph, options.max_sample_inputs);
    }
    round.sampled = sample.valid;

    const double replication =
        hint.replication > 0
            ? hint.replication
            : (sample.valid ? sample.pairs_per_input : 1.0);
    const double reducers =
        hint.num_reducers > 0
            ? hint.num_reducers
            : (sample.valid ? ExtrapolateDistinct(sample, round.num_inputs)
                            : round.num_inputs);
    round.predicted_r = replication;
    round.predicted_pairs = replication * round.num_inputs;
    round.predicted_reducers = reducers;
    if (hint.num_reducers <= 0 && sample.valid && sample.exhaustive) {
      // An exhaustive sample knows the exact max input-list length.
      round.predicted_q = static_cast<double>(sample.max_group);
    } else {
      round.predicted_q =
          reducers > 0 ? round.predicted_pairs / reducers : 0;
    }
    round.predicted_bytes =
        hint.bytes_per_pair > 0
            ? hint.bytes_per_pair * round.predicted_pairs
            : (sample.valid ? sample.bytes_per_input * round.num_inputs : 0);

    round.lower_bound_r =
        round.predicted_q >= 1
            ? core::ClampedReplicationLowerBound(recipe, round.predicted_q)
            : 0;
    round.optimality_ratio = round.lower_bound_r > 0
                                 ? round.predicted_r / round.lower_bound_r
                                 : 0;
    round.cost =
        options.cost_model.Cost(round.predicted_r, round.predicted_q);
    // The strategy rule ResolvePhysicalRound applies, fed by the round's
    // (declared or sampled) predictions.
    std::string why;
    round.planned_strategy = ChooseStrategy(
        stage_shuffle, round.predicted_pairs,
        round.predicted_bytes > 0 ? round.predicted_bytes : -1,
        node.options.has_value() ? node.options->num_shards : 0, why);

    const double outputs_per_reducer =
        hint.outputs_per_reducer > 0 ? hint.outputs_per_reducer : 1.0;
    predicted_outputs[id] = reducers * outputs_per_reducer;
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

double PlanEstimate::total_cost() const {
  double total = 0;
  for (const RoundEstimate& round : rounds) total += round.cost;
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
       << " ratio=" << round.optimality_ratio << " cost=" << round.cost
       << " strategy=" << engine::ToString(round.planned_strategy)
       << (round.sampled ? " (sampled)" : " (declared)");
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
                            const EstimateOptions& options) const {
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
