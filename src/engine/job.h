#ifndef MRCOST_ENGINE_JOB_H_
#define MRCOST_ENGINE_JOB_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "src/engine/executor.h"

namespace mrcost::engine {

// One-round entry points over the stage-graph executor (executor.h).
// JobOptions / JobResult / MergedJobOptions live there too — this header
// re-exports them, so callers keep including src/engine/job.h.

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
/// schedule — the staged executor tags every pair with its scan position
/// and merges on tags, so the barrier engine's ordering contract survives
/// the barriers' removal. The round executes as a task graph (map chunks ->
/// per-shard grouping -> per-shard reduce -> finalize): a shard whose group
/// is complete starts reducing while other shards still group, and
/// JobMetrics reports the stage timings, barrier wait, and overlap.
///
/// The external shuffle has no error channel here: environmental spill
/// failures (disk full, unwritable spill_dir, a corrupted run) CHECK-fail
/// the round; the storage APIs themselves return Status for callers that
/// need to handle them.
template <typename Input, typename Key, typename Value, typename Output,
          typename MapFn, typename ReduceFn>
JobResult<Output> RunMapReduce(const std::vector<Input>& inputs,
                               MapFn&& map_fn, ReduceFn&& reduce_fn,
                               const JobOptions& options = {}) {
  internal::PoolRef pool(options);
  StageGraphExecutor executor(pool.get());
  using Round =
      internal::StagedRound<Input, Key, Value, Output, std::decay_t<MapFn>,
                            internal::NoCombine, std::decay_t<ReduceFn>>;
  auto round = Round::StageMaterialized(
      executor, 0, inputs, /*keepalive=*/nullptr,
      std::forward<MapFn>(map_fn), internal::NoCombine{},
      std::forward<ReduceFn>(reduce_fn), options);
  round->StageFinalize({});
  executor.Wait();
  return round->TakeResult();
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
JobResult<Output> RunMapReduceCombined(const std::vector<Input>& inputs,
                                       MapFn&& map_fn,
                                       CombineFn&& combine_fn,
                                       ReduceFn&& reduce_fn,
                                       const JobOptions& options = {}) {
  internal::PoolRef pool(options);
  StageGraphExecutor executor(pool.get());
  using Round =
      internal::StagedRound<Input, Key, Value, Output, std::decay_t<MapFn>,
                            std::decay_t<CombineFn>, std::decay_t<ReduceFn>>;
  auto round = Round::StageMaterialized(
      executor, 0, inputs, /*keepalive=*/nullptr,
      std::forward<MapFn>(map_fn), std::forward<CombineFn>(combine_fn),
      std::forward<ReduceFn>(reduce_fn), options);
  round->StageFinalize({});
  executor.Wait();
  return round->TakeResult();
}

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_JOB_H_
