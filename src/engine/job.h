#ifndef MRCOST_ENGINE_JOB_H_
#define MRCOST_ENGINE_JOB_H_

#include <utility>
#include <vector>

#include "src/engine/plan.h"

namespace mrcost::engine {

// One-round entry points: each is a one-round Plan (src/engine/plan.h)
// executed at once, so a round run here is shaped, predicted and traced
// exactly like a round of any plan. JobOptions / JobResult /
// MergedJobOptions live in src/engine/executor.h.

/// Runs one map-reduce round.
///
/// `map_fn`   : void(const Input&, Emitter<Key, Value>&)
/// `reduce_fn`: void(const Key&, GroupView<Value>, std::vector<Output>&)
///
/// A reducer reads its values through a GroupView (src/engine/grouping.h):
/// pointer plus size over one contiguous, read-only buffer — in memory, a
/// slice of its shard's one value buffer. The view is valid only during
/// the call; copy what must outlive it.
///
/// Semantics mirror the paper's model: every input is mapped independently
/// (Section 2.3), pairs are shuffled by key, and each distinct key forms one
/// reducer whose input list is the values emitted for it, in input order.
/// Determinism: outputs are grouped in first-seen key order and value lists
/// preserve input order regardless of thread count, shard count, and task
/// schedule. The round's physical shape (chunks, shards, strategy) comes
/// from ResolvePhysicalRound over a map-fn sample of `inputs`, so a memory
/// budget sends the round to the external shuffle only when its estimated
/// intermediate does not fit. `inputs` is taken by value: a caller that
/// builds its input can move it in.
///
/// The external shuffle has no error channel here: environmental spill
/// failures (disk full, unwritable spill_dir, a corrupted run) CHECK-fail
/// the round; the storage APIs themselves return Status for callers that
/// need to handle them.
template <typename Input, typename Key, typename Value, typename Output,
          typename MapFn, typename ReduceFn>
JobResult<Output> RunMapReduce(std::vector<Input> inputs, MapFn&& map_fn,
                               ReduceFn&& reduce_fn,
                               const JobOptions& options = {}) {
  Plan plan;
  auto run = plan.Source(std::move(inputs))
                 .template Map<Key, Value>(std::forward<MapFn>(map_fn))
                 .template ReduceByKey<Output>(
                     std::forward<ReduceFn>(reduce_fn))
                 .Execute(ExecutionOptions(options));
  return {std::move(run.outputs), std::move(run.metrics.rounds.front())};
}

/// Runs one map-reduce round with a map-side combiner, the standard
/// Hadoop-style optimization: each mapper chunk pre-merges the values it
/// emitted for the same key with the associative `combine_fn`
/// (Value x Value -> Value) before the shuffle. Semantically equivalent to
/// RunMapReduce whenever `combine_fn` agrees with how `reduce_fn` folds
/// its value list; the difference shows up only in the metrics:
/// pairs_shuffled counts post-combine traffic while pairs_before_combine
/// preserves the raw map output count.
///
/// This is the footnote-1 point of the paper made executable: mapper-side
/// computation can trade against communication, but it cannot reduce the
/// number of *distinct* (reducer, key) deliveries a mapping schema
/// requires — combiners help aggregation-shaped problems (Examples 2.4,
/// 2.5) and do nothing for join-shaped ones.
template <typename Input, typename Key, typename Value, typename Output,
          typename MapFn, typename CombineFn, typename ReduceFn>
JobResult<Output> RunMapReduceCombined(std::vector<Input> inputs,
                                       MapFn&& map_fn, CombineFn&& combine_fn,
                                       ReduceFn&& reduce_fn,
                                       const JobOptions& options = {}) {
  Plan plan;
  auto run = plan.Source(std::move(inputs))
                 .template Map<Key, Value>(std::forward<MapFn>(map_fn))
                 .CombineByKey(std::forward<CombineFn>(combine_fn))
                 .template ReduceByKey<Output>(
                     std::forward<ReduceFn>(reduce_fn))
                 .Execute(ExecutionOptions(options));
  return {std::move(run.outputs), std::move(run.metrics.rounds.front())};
}

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_JOB_H_
