#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/byte_size.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/lower_bound.h"
#include "src/engine/emitter.h"
#include "src/engine/grouping.h"
#include "src/engine/hashing.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/storage/block.h"
#include "src/storage/serde.h"
#include "tests/shuffle_inputs.h"

namespace mrcost::engine {
namespace {

// ------------------------------------------------------------ hashing

TEST(Hashing, IntegralStability) {
  EXPECT_EQ(HashValue(42), HashValue(42));
  EXPECT_NE(HashValue(42), HashValue(43));
}

TEST(Hashing, PairAndTuple) {
  EXPECT_EQ(HashValue(std::pair{1, 2}), HashValue(std::pair{1, 2}));
  EXPECT_NE(HashValue(std::pair{1, 2}), HashValue(std::pair{2, 1}));
  EXPECT_EQ(HashValue(std::tuple{1, 2, 3}), HashValue(std::tuple{1, 2, 3}));
  EXPECT_NE(HashValue(std::tuple{1, 2, 3}), HashValue(std::tuple{3, 2, 1}));
}

TEST(Hashing, Strings) {
  EXPECT_EQ(HashValue(std::string("abc")), HashValue(std::string("abc")));
  EXPECT_NE(HashValue(std::string("abc")), HashValue(std::string("abd")));
  EXPECT_NE(HashValue(std::string()), HashValue(std::string("a")));
}

TEST(Hashing, Vectors) {
  EXPECT_NE(HashValue(std::vector<int>{1, 2}),
            HashValue(std::vector<int>{2, 1}));
  EXPECT_NE(HashValue(std::vector<int>{}),
            HashValue(std::vector<int>{0}));
}

// ---------------------------------------------------------- byte size

TEST(ByteSize, TriviallyCopyable) {
  EXPECT_EQ(common::ByteSizeOf(1), sizeof(int));
  EXPECT_EQ(common::ByteSizeOf(1.0), sizeof(double));
}

TEST(ByteSize, Composites) {
  // The in-memory footprint convention of src/common/byte_size.h:
  // composites sum their members, containers count their object plus the
  // heap payload their elements own.
  EXPECT_EQ(common::ByteSizeOf(std::pair<int, double>{1, 2.0}),
            sizeof(int) + sizeof(double));
  EXPECT_EQ(common::ByteSizeOf(std::vector<int>{1, 2, 3}),
            sizeof(std::vector<int>) + 3 * sizeof(int));
  EXPECT_EQ(common::ByteSizeOf(std::pair<int, std::vector<int>>{1, {2, 3}}),
            sizeof(int) + sizeof(std::vector<int>) + 2 * sizeof(int));
}

TEST(ByteSize, StringSmallBufferConvention) {
  // Strings at or under the modeled SSO capacity cost only the object;
  // longer strings add their heap payload.
  EXPECT_EQ(common::ByteSizeOf(std::string("hello")), sizeof(std::string));
  const std::string sso_edge(common::kStringSsoCapacity, 'x');
  EXPECT_EQ(common::ByteSizeOf(sso_edge), sizeof(std::string));
  const std::string heap(common::kStringSsoCapacity + 1, 'x');
  EXPECT_EQ(common::ByteSizeOf(heap),
            sizeof(std::string) + common::kStringSsoCapacity + 1);
  // A vector of heap strings prices both levels of the hierarchy.
  const std::vector<std::string> v{heap, heap};
  EXPECT_EQ(common::ByteSizeOf(v),
            sizeof(std::vector<std::string>) + 2 * common::ByteSizeOf(heap));
}

TEST(ByteSize, StringViewConvention) {
  // A view prices the view object plus the full viewed payload — no SSO
  // discount, because the viewed bytes always live somewhere else (a
  // block's key arena, typically) regardless of their length.
  EXPECT_EQ(common::ByteSizeOf(std::string_view{}), sizeof(std::string_view));
  EXPECT_EQ(common::ByteSizeOf(std::string_view{"abc"}),
            sizeof(std::string_view) + 3);
  const std::string heap(100, 'x');
  EXPECT_EQ(common::ByteSizeOf(std::string_view{heap}),
            sizeof(std::string_view) + 100);
}

TEST(ByteSize, BlockTypesConvention) {
  // Blocks and runs follow the same convention: object plus every owned
  // payload. An empty block is just the object plus its slab's offset
  // sentinel.
  storage::KVBlock<std::string, std::uint64_t> block;
  EXPECT_EQ(common::ByteSizeOf(block),
            sizeof(block) + sizeof(std::uint64_t));  // offset sentinel
  block.Append(std::string("hello block"), 7);
  const std::size_t key_arena = sizeof(std::uint64_t) + 11;  // length + bytes
  ASSERT_EQ(block.KeyPayloadBytes(), key_arena);
  EXPECT_EQ(common::ByteSizeOf(block),
            sizeof(block) + key_arena + 2 * sizeof(std::uint64_t)  // offsets
                + sizeof(std::uint64_t)                            // hash
                + sizeof(std::uint64_t));                          // value

  // An integer key lives in a typed column: no arena, no offsets.
  storage::KVBlock<std::uint64_t, std::uint64_t> typed;
  EXPECT_EQ(common::ByteSizeOf(typed), sizeof(typed));
  typed.Append(std::uint64_t{42}, 7);
  EXPECT_EQ(common::ByteSizeOf(typed),
            sizeof(typed) + sizeof(std::uint64_t)   // key
                + sizeof(std::uint64_t)             // hash
                + sizeof(std::uint64_t));           // value

  storage::ColumnarRun run;
  EXPECT_EQ(common::ByteSizeOf(run),
            sizeof(run) + 2 * sizeof(std::uint64_t));  // two slab sentinels
}

// ----------------------------------------------------------- grouping

/// GroupRows over `blocks`, every row in order at its global position.
template <typename K>
internal::CsrGroups<K, int> GroupAll(
    std::vector<storage::KVBlock<K, int>>& blocks) {
  std::size_t rows = 0;
  for (const auto& block : blocks) rows += block.rows();
  const auto for_each_row = [&](auto&& visit) {
    std::uint64_t pos = 0;
    for (auto& block : blocks) {
      for (std::uint32_t r = 0; r < block.rows(); ++r, ++pos) {
        visit(block, r, pos);
      }
    }
  };
  const auto take = [](storage::KVBlock<K, int>& block, std::uint32_t r) {
    return block.value(r);
  };
  return internal::GroupRows<K, int>(rows, for_each_row, take);
}

using testutil::SlabKey;

template <typename T>
void ExpectSlotGroupingMatchesKeyIndex(const std::vector<T>& keys) {
  // Three blocks, as a shard sees rows routed from three map tasks.
  std::vector<storage::KVBlock<T, int>> typed(3);
  std::vector<storage::KVBlock<SlabKey<T>, int>> slab(3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    typed[i % 3].Append(keys[i], static_cast<int>(i));
    slab[i % 3].Append(SlabKey<T>{keys[i]}, static_cast<int>(i));
  }
  const auto got = GroupAll(typed);
  const auto want = GroupAll(slab);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < got.size(); ++g) {
    ASSERT_EQ(got.keys[g], want.keys[g].v) << g;
  }
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.values, want.values);
}

TEST(GroupRows, SlotLookupMatchesKeyIndexGrouping) {
  // Rows = 2000, so the slot bound is 2000: ids below it take the slot
  // array, ids at or above it, the extremes and negative keys go through
  // KeyIndex, all in one pass.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::SplitMix64 rng(seed);
    std::vector<std::uint64_t> ids;
    std::vector<std::int64_t> signed_ids;
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t id = rng.UniformBelow(300);  // below the bound
      switch (rng.UniformBelow(8)) {
        case 0:
          id = 2000 + rng.UniformBelow(40);  // at or above the bound
          break;
        case 1:
          id = UINT64_MAX - rng.UniformBelow(2);
          break;
        case 2:
          id = 1999;  // the last slot
          break;
        default:
          break;
      }
      ids.push_back(id);
      signed_ids.push_back(rng.Bernoulli(0.3)
                               ? -static_cast<std::int64_t>(
                                     rng.UniformBelow(50)) - 1
                               : static_cast<std::int64_t>(id >> 1));
    }
    ExpectSlotGroupingMatchesKeyIndex(ids);
    ExpectSlotGroupingMatchesKeyIndex(signed_ids);
    std::vector<int> narrow(signed_ids.begin(), signed_ids.end());
    ExpectSlotGroupingMatchesKeyIndex(narrow);
  }
}

// ------------------------------------------------------------- emitter

TEST(Emitter, EmitBatchEmptyBatchIsNoOp) {
  Emitter<int, int> emitter;
  std::uint64_t flushes = 0;
  // Budget 0: any flush-eligible call would trigger the sink at once.
  emitter.SetOverflow(0, [&flushes](Emitter<int, int>::Block&) { ++flushes; });
  Emitter<int, int>::Batch batch;
  emitter.EmitBatch(batch);
  EXPECT_EQ(emitter.num_emitted(), 0u);
  EXPECT_EQ(emitter.bytes(), 0u);
  EXPECT_EQ(emitter.blocks_emitted(), 0u);
  EXPECT_EQ(flushes, 0u);  // empty batch must not trigger a flush
}

TEST(Emitter, EmitBatchExactlyAtFlushBoundary) {
  // Budget equal to the batch's exact ByteSizeOf: the batch lands and the
  // block flushes once, leaving the buffer empty (>= boundary, not >).
  Emitter<int, int> emitter;
  Emitter<int, int>::Batch batch{{1, 10}, {2, 20}};
  std::uint64_t batch_bytes = 0;
  for (const auto& [k, v] : batch) {
    batch_bytes += common::ByteSizeOf(k) + common::ByteSizeOf(v);
  }
  std::uint64_t flushes = 0;
  std::uint64_t flushed_rows = 0;
  emitter.SetOverflow(batch_bytes,
                      [&](Emitter<int, int>::Block& block) {
                        ++flushes;
                        flushed_rows += block.rows();
                      });
  emitter.EmitBatch(batch);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(flushed_rows, 2u);
  EXPECT_TRUE(emitter.block().empty());
  EXPECT_EQ(emitter.num_emitted(), 2u);
  EXPECT_EQ(emitter.bytes(), batch_bytes);
  EXPECT_EQ(emitter.blocks_emitted(), 1u);
}

TEST(Emitter, EmitBatchReusesMovedFromBatch) {
  // EmitBatch consumes the batch but keeps its capacity, so one buffer
  // can be refilled across inputs (the thread_local pattern the graph
  // and join mappers use).
  Emitter<std::string, int> emitter;
  Emitter<std::string, int>::Batch batch;
  batch.emplace_back(std::string(64, 'a'), 1);
  batch.emplace_back(std::string(64, 'b'), 2);
  emitter.EmitBatch(batch);
  EXPECT_TRUE(batch.empty());
  const std::size_t kept_capacity = batch.capacity();
  EXPECT_GE(kept_capacity, 2u);

  // Refill the moved-from slots and emit again: the second round must be
  // fully counted and must not disturb the first round's rows.
  batch.emplace_back(std::string(64, 'c'), 3);
  batch.emplace_back(std::string(64, 'd'), 4);
  emitter.EmitBatch(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), kept_capacity);
  EXPECT_EQ(emitter.num_emitted(), 4u);
  ASSERT_EQ(emitter.block().rows(), 4u);
  EXPECT_EQ(emitter.block().value(0), 1);
  EXPECT_EQ(emitter.block().value(3), 4);
  EXPECT_EQ(emitter.block().KeyAt(0), std::string(64, 'a'));
  EXPECT_EQ(emitter.block().KeyAt(3), std::string(64, 'd'));
}

// ---------------------------------------------------------------- job

/// A toy job: map each integer x to key x % modulus; reducer sums values.
ExecutionResult<std::pair<int, std::int64_t>> SumByResidue(
    const std::vector<int>& inputs, int modulus, const JobOptions& options) {
  auto map_fn = [modulus](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x % modulus, x);
  };
  auto reduce_fn = [](const int& key, GroupView<int> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t sum = 0;
    for (int v : values) sum += v;
    out.emplace_back(key, sum);
  };
  return Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
      .Execute(ExecutionOptions(options));
}

TEST(Job, BasicGroupingAndMetrics) {
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto result = SumByResidue(inputs, 10, {});
  ASSERT_EQ(result.outputs.size(), 10u);
  std::int64_t total = 0;
  for (const auto& [key, sum] : result.outputs) total += sum;
  EXPECT_EQ(total, 99 * 100 / 2);

  const JobMetrics& m = result.metrics.rounds[0];
  EXPECT_EQ(m.num_inputs, 100u);
  EXPECT_EQ(m.pairs_shuffled, 100u);  // one pair per input
  EXPECT_EQ(m.num_reducers, 10u);
  EXPECT_EQ(m.max_reducer_input, 10u);
  EXPECT_DOUBLE_EQ(m.replication_rate(), 1.0);
  EXPECT_EQ(m.num_outputs, 10u);
}

TEST(Job, ReplicationRateCountsAllEmits) {
  // Map each input to 3 distinct keys: r must be exactly 3.
  std::vector<int> inputs(50);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, x);
    emitter.Emit(x + 1000, x);
    emitter.Emit(x + 2000, x);
  };
  auto reduce_fn = [](const int& key, GroupView<int> values,
                      std::vector<int>& out) {
    (void)key;
    out.push_back(static_cast<int>(values.size()));
  };
  auto result = Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_DOUBLE_EQ(result.metrics.rounds[0].replication_rate(), 3.0);
  EXPECT_EQ(result.metrics.rounds[0].num_reducers, 150u);
}

TEST(Job, ValueOrderIsInputOrder) {
  // All inputs to one key; values must arrive in input order regardless of
  // the number of map threads.
  std::vector<int> inputs(1000);
  std::iota(inputs.begin(), inputs.end(), 0);
  for (std::size_t threads : {1u, 4u, 16u}) {
    JobOptions options;
    options.num_threads = threads;
    auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
      emitter.Emit(0, x);
    };
    auto reduce_fn = [](const int&, GroupView<int> values,
                        std::vector<std::vector<int>>& out) {
      out.emplace_back(values.begin(), values.end());
    };
    auto result = Plan()
        .Source(inputs)
        .Map<int, int>(map_fn)
        .ReduceByKey<std::vector<int>>(reduce_fn)
        .Execute(ExecutionOptions(options));
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0], inputs) << "threads=" << threads;
  }
}

TEST(Job, DeterministicAcrossThreadCounts) {
  std::vector<int> inputs(997);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions one;
  one.num_threads = 1;
  JobOptions many;
  many.num_threads = 8;
  auto a = SumByResidue(inputs, 13, one);
  auto b = SumByResidue(inputs, 13, many);
  EXPECT_EQ(a.outputs, b.outputs);
  const JobMetrics& ma = a.metrics.rounds[0];
  const JobMetrics& mb = b.metrics.rounds[0];
  EXPECT_EQ(ma.pairs_shuffled, mb.pairs_shuffled);
  EXPECT_EQ(ma.num_reducers, mb.num_reducers);
}

TEST(Job, EmptyInput) {
  auto result = SumByResidue({}, 10, {});
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.metrics.rounds[0].num_inputs, 0u);
  EXPECT_EQ(result.metrics.rounds[0].pairs_shuffled, 0u);
  EXPECT_EQ(result.metrics.rounds[0].replication_rate(), 0.0);
}

TEST(Job, MapCanEmitNothing) {
  std::vector<int> inputs{1, 2, 3};
  auto map_fn = [](const int&, Emitter<int, int>&) {};
  auto reduce_fn = [](const int&, GroupView<int>,
                      std::vector<int>&) {};
  auto result = Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_EQ(result.metrics.rounds[0].pairs_shuffled, 0u);
  EXPECT_EQ(result.metrics.rounds[0].num_reducers, 0u);
}

TEST(Job, BytesShuffledAccounting) {
  std::vector<int> inputs{1, 2, 3};
  auto map_fn = [](const int& x, Emitter<int, double>& emitter) {
    emitter.Emit(x, 1.5);
  };
  auto reduce_fn = [](const int&, GroupView<double>,
                      std::vector<int>&) {};
  auto result = Plan()
      .Source(inputs)
      .Map<int, double>(map_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_EQ(result.metrics.rounds[0].bytes_shuffled,
            3 * (sizeof(int) + sizeof(double)));
}

TEST(Job, ReducerSizeDistribution) {
  // Keys 0..4 get 1, 2, 3, 4, 5 values respectively.
  std::vector<int> inputs;
  for (int key = 0; key < 5; ++key) {
    for (int i = 0; i <= key; ++i) inputs.push_back(key);
  }
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn = [](const int&, GroupView<int>,
                      std::vector<int>&) {};
  auto result = Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_EQ(result.metrics.rounds[0].max_reducer_input, 5u);
  EXPECT_EQ(result.metrics.rounds[0].reducer_sizes.count(), 5);
  EXPECT_DOUBLE_EQ(result.metrics.rounds[0].reducer_sizes.mean(), 3.0);
}

TEST(Job, ShardPairsCoverEveryShuffledPair) {
  // One entry per shard, and every shuffled pair routed to exactly one.
  std::vector<int> inputs(300);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions options;
  options.num_shards = 7;
  const JobMetrics m = SumByResidue(inputs, 100, options).metrics.rounds[0];
  ASSERT_EQ(m.shard_pairs.size(), 7u);
  EXPECT_EQ(std::accumulate(m.shard_pairs.begin(), m.shard_pairs.end(),
                            std::uint64_t{0}),
            m.pairs_shuffled);
  const std::uint64_t max_pairs =
      *std::max_element(m.shard_pairs.begin(), m.shard_pairs.end());
  EXPECT_DOUBLE_EQ(m.partition_skew_ratio,
                   static_cast<double>(max_pairs) /
                       (static_cast<double>(m.pairs_shuffled) / 7.0));
}

TEST(Job, StringKeysWork) {
  std::vector<std::string> inputs{"a", "bb", "a", "ccc", "bb", "a"};
  auto map_fn = [](const std::string& w,
                   Emitter<std::string, std::uint64_t>& emitter) {
    emitter.Emit(w, 1);
  };
  auto reduce_fn = [](const std::string& w,
                      GroupView<std::uint64_t> ones,
                      std::vector<std::pair<std::string, std::size_t>>& out) {
    out.emplace_back(w, ones.size());
  };
  auto result = Plan()
      .Source(inputs)
      .Map<std::string, std::uint64_t>(map_fn)
      .ReduceByKey<std::pair<std::string, std::size_t>>(reduce_fn)
      .Execute();
  ASSERT_EQ(result.outputs.size(), 3u);
  // First-seen key order is deterministic.
  EXPECT_EQ(result.outputs[0], (std::pair<std::string, std::size_t>{"a", 3}));
  EXPECT_EQ(result.outputs[1],
            (std::pair<std::string, std::size_t>{"bb", 2}));
}

// ----------------------------------------------------------- combiner

TEST(Combiner, SameResultLessCommunication) {
  // Word-count shape: many repeated keys per chunk. The combiner must not
  // change the output but must shrink pairs_shuffled.
  std::vector<int> inputs(10000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 7);  // 7 distinct keys
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, 1);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      GroupView<std::int64_t> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto plain = Plan()
      .Source(inputs)
      .Map<int, std::int64_t>(map_fn)
      .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
      .Execute();
  auto combined = Plan()
      .Source(inputs)
      .Map<int, std::int64_t>(map_fn)
      .CombineByKey(combine_fn)
      .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
      .Execute();
  auto sort_pairs = [](auto& v) { std::sort(v.begin(), v.end()); };
  sort_pairs(plain.outputs);
  sort_pairs(combined.outputs);
  EXPECT_EQ(plain.outputs, combined.outputs);
  EXPECT_EQ(combined.metrics.rounds[0].pairs_before_combine, inputs.size());
  EXPECT_LT(combined.metrics.rounds[0].pairs_shuffled,
            combined.metrics.rounds[0].pairs_before_combine / 100);
  EXPECT_EQ(plain.metrics.rounds[0].pairs_before_combine,
            plain.metrics.rounds[0].pairs_shuffled);
}

TEST(Combiner, NoOpWhenKeysAreUnique) {
  // Join-shaped traffic (all keys distinct): a combiner cannot help — the
  // footnote-1 point that combining does not reduce schema-mandated
  // deliveries.
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, x);
  };
  auto combine_fn = [](int a, int) { return a; };
  auto reduce_fn = [](const int&, GroupView<int>,
                      std::vector<int>&) {};
  auto result = Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .CombineByKey(combine_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_EQ(result.metrics.rounds[0].pairs_shuffled,
            result.metrics.rounds[0].pairs_before_combine);
}

TEST(Combiner, DeterministicAcrossThreadCounts) {
  std::vector<int> inputs(4321);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 13);
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, x);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      GroupView<std::int64_t> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  JobOptions one;
  one.num_threads = 1;
  JobOptions many;
  many.num_threads = 8;
  auto a = Plan()
      .Source(inputs)
      .Map<int, std::int64_t>(map_fn)
      .CombineByKey(combine_fn)
      .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
      .Execute(ExecutionOptions(one));
  auto b = Plan()
      .Source(inputs)
      .Map<int, std::int64_t>(map_fn)
      .CombineByKey(combine_fn)
      .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
      .Execute(ExecutionOptions(many));
  std::sort(a.outputs.begin(), a.outputs.end());
  std::sort(b.outputs.begin(), b.outputs.end());
  EXPECT_EQ(a.outputs, b.outputs);
  // Sums are thread-layout independent even though per-chunk combining
  // differs.
  EXPECT_EQ(a.metrics.rounds[0].pairs_before_combine,
            b.metrics.rounds[0].pairs_before_combine);
}

TEST(Combiner, EmptyInput) {
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto combine_fn = [](int a, int b) { return a + b; };
  auto reduce_fn = [](const int&, GroupView<int>,
                      std::vector<int>&) {};
  auto result = Plan()
      .Source(std::vector<int>{})
      .Map<int, int>(map_fn)
      .CombineByKey(combine_fn)
      .ReduceByKey<int>(reduce_fn)
      .Execute();
  EXPECT_EQ(result.metrics.rounds[0].pairs_shuffled, 0u);
  EXPECT_TRUE(result.outputs.empty());
}

// ------------------------------------------------------------ shuffle

/// Fanout-3 workload with colliding keys: enough key reuse that grouping
/// order matters and enough keys that every shard owns some.
ExecutionResult<std::pair<int, std::uint64_t>> FanoutJob(
    const JobOptions& options) {
  std::vector<int> inputs(3000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x % 97, x);
    emitter.Emit(x % 251, x + 1);
    emitter.Emit(x % 599, x + 2);
  };
  auto reduce_fn = [](const int& key, GroupView<int> values,
                      std::vector<std::pair<int, std::uint64_t>>& out) {
    // Order-sensitive fold; unsigned so the deliberate wraparound is
    // defined (the sanitized CI job runs this test under UBSan).
    auto acc = static_cast<std::uint64_t>(key);
    for (int v : values) acc = acc * 31 + static_cast<std::uint64_t>(v);
    out.emplace_back(key, acc);
  };
  return Plan()
      .Source(inputs)
      .Map<int, int>(map_fn)
      .ReduceByKey<std::pair<int, std::uint64_t>>(reduce_fn)
      .Execute(ExecutionOptions(options));
}

TEST(Shuffle, DeterministicAcrossThreadAndShardCounts) {
  JobOptions baseline;
  baseline.num_threads = 1;
  baseline.num_shards = 1;
  const auto reference = FanoutJob(baseline);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t shards : {0u, 1u, 2u, 8u, 16u}) {
      JobOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      const auto run = FanoutJob(options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(run.outputs, reference.outputs);
      const JobMetrics& m = run.metrics.rounds[0];
      const JobMetrics& want = reference.metrics.rounds[0];
      EXPECT_EQ(m.pairs_shuffled, want.pairs_shuffled);
      EXPECT_EQ(m.bytes_shuffled, want.bytes_shuffled);
      EXPECT_EQ(m.num_reducers, want.num_reducers);
      EXPECT_EQ(m.max_reducer_input, want.max_reducer_input);
    }
  }
}

TEST(Shuffle, CombinedDeterministicAcrossThreadAndShardCounts) {
  std::vector<int> inputs(5000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 613);
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, x);
    emitter.Emit(x + 1000, 2 * x);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      GroupView<std::int64_t> values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto run = [&](std::size_t threads, std::size_t shards) {
    JobOptions options;
    options.num_threads = threads;
    options.num_shards = shards;
    auto result = Plan()
        .Source(inputs)
        .Map<int, std::int64_t>(map_fn)
        .CombineByKey(combine_fn)
        .ReduceByKey<std::pair<int, std::int64_t>>(reduce_fn)
        .Execute(ExecutionOptions(options));
    std::sort(result.outputs.begin(), result.outputs.end());
    return result;
  };
  const auto reference = run(1, 1);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t shards : {1u, 4u, 16u}) {
      const auto sharded = run(threads, shards);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(sharded.outputs, reference.outputs);
      const JobMetrics& m = sharded.metrics.rounds[0];
      const JobMetrics& want = reference.metrics.rounds[0];
      EXPECT_EQ(m.pairs_before_combine, want.pairs_before_combine);
      // pairs_shuffled depends on the chunking (per-chunk combining), which
      // is fixed per thread count; at equal thread counts it must match.
      if (threads == 1) {
        EXPECT_EQ(m.pairs_shuffled, want.pairs_shuffled);
        EXPECT_EQ(m.bytes_shuffled, want.bytes_shuffled);
      }
    }
  }
}

/// Shuffles `chunks` through a one-round Plan whose sharded shuffle is
/// pinned to `shards` shards: each input is one pair, the map re-emits
/// it, and each reducer copies its view out. The outputs are therefore
/// the plan's groups in its output (first-seen) order, in the shape
/// SerialShuffle returns.
template <typename Key, typename Value>
ShuffleResult<Key, Value> PlanShuffle(
    const std::vector<std::vector<std::pair<Key, Value>>>& chunks,
    std::size_t shards, common::ThreadPool& pool) {
  using Pair = std::pair<Key, Value>;
  using Group = std::pair<Key, std::vector<Value>>;
  std::vector<Pair> pairs;
  for (const auto& chunk : chunks) {
    pairs.insert(pairs.end(), chunk.begin(), chunk.end());
  }
  JobOptions options;
  options.pool = &pool;
  options.num_shards = shards;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  Plan plan;
  auto run = plan.Source(std::move(pairs))
                 .template Map<Key, Value>(
                     [](const Pair& p, Emitter<Key, Value>& e) {
                       e.Emit(p.first, p.second);
                     })
                 .template ReduceByKey<Group>(
                     [](const Key& key, GroupView<Value> values,
                        std::vector<Group>& out) {
                       out.emplace_back(key, std::vector<Value>(
                                                 values.begin(), values.end()));
                     })
                 .Execute(ExecutionOptions(options));
  EXPECT_EQ(run.physical_rounds.at(0).shards, shards);
  ShuffleResult<Key, Value> result;
  for (Group& group : run.outputs) {
    result.keys.push_back(group.first);
    result.groups.push_back(std::move(group.second));
  }
  return result;
}

TEST(Shuffle, ShardedMatchesSerialDirectly) {
  // The sharded shuffle of a one-round plan against SerialShuffle, with
  // enough pairs for several map chunks and repeated keys straddling
  // chunk boundaries.
  std::vector<std::vector<std::pair<int, int>>> chunks(5);
  int v = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (int i = 0; i < 1000; ++i) {
      chunks[c].emplace_back((v * 7) % 143, v);
      ++v;
    }
  }
  auto serial_chunks = chunks;
  const auto serial = SerialShuffle(serial_chunks);
  common::ThreadPool pool(4);
  for (std::size_t shards : {2u, 3u, 8u, 64u}) {
    const auto sharded = PlanShuffle(chunks, shards, pool);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(sharded.keys, serial.keys);
    EXPECT_EQ(sharded.groups, serial.groups);
  }
}

TEST(Shuffle, ResolveShardCount) {
  EXPECT_EQ(ResolveShardCount(7, 4, 1 << 20), 7u);   // explicit wins
  EXPECT_EQ(ResolveShardCount(0, 1, 1 << 20), 1u);   // single thread
  EXPECT_EQ(ResolveShardCount(0, 8, 1 << 20), 8u);   // one per thread
  EXPECT_EQ(ResolveShardCount(0, 8, 100), 1u);       // tiny job stays serial
}

TEST(Shuffle, IndexOfHashRangeAndBalance) {
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    std::vector<std::uint64_t> load(n, 0);
    const std::size_t kKeys = 100000;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::size_t idx = IndexOfHash(HashValue(k), n);
      ASSERT_LT(idx, n);
      ++load[idx];
    }
    const double mean = static_cast<double>(kKeys) / n;
    for (std::uint64_t l : load) {
      EXPECT_LT(static_cast<double>(l), 1.15 * mean) << "n=" << n;
      EXPECT_GT(static_cast<double>(l), 0.85 * mean) << "n=" << n;
    }
  }
}

TEST(Shuffle, HashShardLoadBalance) {
  // Hash placement must spread many uniform keys evenly over the shards
  // (a biased low-bit placement could collapse structured keys onto a
  // subset of them).
  std::vector<int> inputs(40000);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions options;
  options.num_shards = 16;
  options.shuffle.partitioner = PartitionerKind::kHash;
  auto result = SumByResidue(inputs, 20000, options);
  const std::vector<std::uint64_t>& loads =
      result.metrics.rounds[0].shard_pairs;
  ASSERT_EQ(loads.size(), 16u);
  const double mean = 40000.0 / 16;
  for (std::uint64_t load : loads) {
    EXPECT_LT(static_cast<double>(load), 1.15 * mean);
    EXPECT_GT(static_cast<double>(load), 0.85 * mean);
  }
}

// ------------------------------------------- shuffle property harness

using testutil::kAllKeyDists;
using testutil::KeyDist;
using testutil::Name;
using testutil::RandomChunks;

TEST(ShuffleProperty, SerialVsShardedEquivalence) {
  // For every distribution, seed, and shard count 1..16: the plan's
  // sharded shuffle keys, group contents, and global first-seen order must
  // match the serial reference exactly.
  common::ThreadPool pool(4);
  for (KeyDist dist : kAllKeyDists) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto chunks = RandomChunks(dist, seed);
      auto serial_chunks = chunks;
      const auto serial = SerialShuffle(serial_chunks);
      for (std::size_t shards = 1; shards <= 16; ++shards) {
        const auto sharded = PlanShuffle(chunks, shards, pool);
        SCOPED_TRACE(std::string(Name(dist)) +
                     " seed=" + std::to_string(seed) +
                     " shards=" + std::to_string(shards));
        ASSERT_EQ(sharded.keys, serial.keys);
        ASSERT_EQ(sharded.groups, serial.groups);
      }
    }
  }
}

TEST(Shuffle, IndexOfHashSingleBucket) {
  // n = 1: every hash, including the extremes, must land in bucket 0.
  EXPECT_EQ(IndexOfHash(0, 1), 0u);
  EXPECT_EQ(IndexOfHash(~std::uint64_t{0}, 1), 0u);
  common::SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(IndexOfHash(rng.Next(), 1), 0u);
  }
}

TEST(Shuffle, IndexOfHashCoversFullRange) {
  // fastrange maps the hash's high bits onto [0, n): the extremes of the
  // hash space must reach the extremes of the bucket range.
  for (std::size_t n : {2u, 7u, 64u, 1000u}) {
    EXPECT_EQ(IndexOfHash(0, n), 0u) << n;
    EXPECT_EQ(IndexOfHash(~std::uint64_t{0}, n), n - 1) << n;
  }
}

TEST(Shuffle, ResolveShardCountZeroPairs) {
  // A zero-pair job must stay serial under auto sharding (no useful
  // shards), while an explicit request still wins.
  EXPECT_EQ(ResolveShardCount(0, 8, 0), 1u);
  EXPECT_EQ(ResolveShardCount(3, 8, 0), 3u);
}

// ------------------------------------------------------ shard placement

/// A key-skewed job: `inputs` keys drawn Zipf(exponent) over `num_keys`
/// (exponent 0 = uniform), one pair per input.
ExecutionResult<std::pair<std::uint64_t, std::int64_t>> ZipfJob(
    double exponent, const JobOptions& options) {
  common::SplitMix64 rng(99);
  const common::ZipfDistribution zipf(512, exponent);
  std::vector<std::uint64_t> inputs(20000);
  for (auto& x : inputs) x = zipf.Sample(rng);
  auto map_fn = [](const std::uint64_t& x,
                   Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn = [](const std::uint64_t& key, GroupView<int> values,
                      std::vector<std::pair<std::uint64_t, std::int64_t>>&
                          out) {
    out.emplace_back(key, static_cast<std::int64_t>(values.size()));
  };
  return Plan()
      .Source(inputs)
      .Map<std::uint64_t, int>(map_fn)
      .ReduceByKey<std::pair<std::uint64_t, std::int64_t>>(reduce_fn)
      .Execute(ExecutionOptions(options));
}

TEST(ShardPlacement, HashPlacesEachKeyOnIndexOfHash) {
  // Under hash placement each key's pairs land on shard IndexOfHash of
  // the hash of its serialized bytes, and nowhere else; the round's skew
  // ratio is its fullest shard over the mean.
  JobOptions options;
  options.num_shards = 16;
  options.shuffle.strategy = ShuffleStrategy::kSharded;
  options.shuffle.partitioner = PartitionerKind::kHash;
  const auto run = ZipfJob(1.3, options);
  const JobMetrics& m = run.metrics.rounds[0];
  std::vector<std::uint64_t> expected(16, 0);
  for (const auto& [key, count] : run.outputs) {
    std::string bytes;
    storage::SerializeValue(key, bytes);
    expected[IndexOfHash(storage::HashBytes(bytes), 16)] +=
        static_cast<std::uint64_t>(count);
  }
  EXPECT_EQ(m.shard_pairs, expected);
  const std::uint64_t fullest =
      *std::max_element(expected.begin(), expected.end());
  EXPECT_DOUBLE_EQ(m.partition_skew_ratio,
                   static_cast<double>(fullest) /
                       (static_cast<double>(m.pairs_shuffled) / 16.0));
}

TEST(ShardPlacement, ZipfSkewRaisesImbalance) {
  JobOptions options;
  options.num_shards = 8;
  options.shuffle.partitioner = PartitionerKind::kHash;
  const JobMetrics uniform = ZipfJob(0.0, options).metrics.rounds[0];
  const JobMetrics skewed = ZipfJob(1.5, options).metrics.rounds[0];
  // Uniform keys spread evenly; heavy Zipf concentrates pairs on whichever
  // shard owns key rank 0.
  EXPECT_LT(uniform.partition_skew_ratio, 1.3);
  EXPECT_GT(skewed.partition_skew_ratio, 1.5 * uniform.partition_skew_ratio);
}

/// Two rounds over 0..n-1: sum by residue mod 10, then regroup the ten
/// sums by parity and sum again.
Dataset<std::pair<int, std::int64_t>> ResidueThenParity(Plan& plan, int n) {
  std::vector<int> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto sum = [](const int& key, auto values,
                std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (auto v : values) total += v;
    out.emplace_back(key, total);
  };
  return plan.Source(std::move(inputs))
      .Map<int, int>(
          [](const int& x, Emitter<int, int>& e) { e.Emit(x % 10, x); })
      .ReduceByKey<std::pair<int, std::int64_t>>(sum)
      .Map<int, std::int64_t>([](const std::pair<int, std::int64_t>& p,
                                 Emitter<int, std::int64_t>& e) {
        e.Emit(p.first % 2, p.second);
      })
      .ReduceByKey<std::pair<int, std::int64_t>>(sum);
}

TEST(Pipeline, ShardPairsRideAlongInCostReports) {
  // The round defaults' shard count reaches every round, each round
  // records its own placement, and CompareToLowerBound's per-round
  // reports carry it.
  ExecutionOptions options;
  options.pipeline.round_defaults.num_shards = 4;
  options.pipeline.round_defaults.shuffle.partitioner = PartitionerKind::kHash;
  Plan plan;
  const PipelineMetrics m = ResidueThenParity(plan, 100).Execute(options).metrics;
  ASSERT_EQ(m.rounds.size(), 2u);
  for (const JobMetrics& round : m.rounds) {
    ASSERT_EQ(round.shard_pairs.size(), 4u);
    EXPECT_EQ(std::accumulate(round.shard_pairs.begin(),
                              round.shard_pairs.end(), std::uint64_t{0}),
              round.pairs_shuffled);
    EXPECT_GE(round.partition_skew_ratio, 1.0);
  }
  // Round 2 routes 10 pairs onto at most 2 of the 4 shards.
  EXPECT_GE(m.max_partition_skew_ratio(), 2.0);

  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q; };
  recipe.num_inputs = 100;
  recipe.num_outputs = 100;
  const auto reports = CompareToLowerBound(m, recipe);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[1].metrics.shard_pairs, m.rounds[1].shard_pairs);
  EXPECT_NE(ToString(reports).find("partition_skew="), std::string::npos);
}

// --------------------------------------------------------- caller pool

TEST(Job, CallerOwnedPoolIsReused) {
  common::ThreadPool pool(3);
  JobOptions options;
  options.pool = &pool;
  EXPECT_EQ(options.ResolvedThreads(), 3u);
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  const auto baseline = SumByResidue(inputs, 17, {});
  // Two consecutive rounds on the same pool: both must match a fresh-pool
  // run exactly.
  for (int round = 0; round < 2; ++round) {
    const auto pooled = SumByResidue(inputs, 17, options);
    EXPECT_EQ(pooled.outputs, baseline.outputs);
    EXPECT_EQ(pooled.metrics.rounds[0].pairs_shuffled,
              baseline.metrics.rounds[0].pairs_shuffled);
  }
}

// ----------------------------------------------------------- pipeline

TEST(Pipeline, TwoRoundMetricsAccumulate) {
  Plan plan;
  const auto run = ResidueThenParity(plan, 100).Execute();
  ASSERT_EQ(run.outputs.size(), 2u);
  std::int64_t grand = 0;
  for (const auto& [parity, sum] : run.outputs) grand += sum;
  EXPECT_EQ(grand, 99 * 100 / 2);

  const PipelineMetrics& m = run.metrics;
  ASSERT_EQ(m.rounds.size(), 2u);
  EXPECT_EQ(m.rounds[0].num_inputs, 100u);
  EXPECT_EQ(m.rounds[1].num_inputs, 10u);
  EXPECT_EQ(m.total_pairs(), 110u);
  EXPECT_DOUBLE_EQ(m.replication_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(m.replication_rate(1), 1.0);
  // All 110 shuffled pairs charged against the 100 round-1 inputs.
  EXPECT_DOUBLE_EQ(m.total_replication_rate(), 1.1);
}

TEST(Pipeline, SharedPoolAndPerRoundOptions) {
  // Every round of an execution reduces on the caller's pool, and a
  // round's own options (here a shard count) reach that round alone.
  common::ThreadPool pool(2);
  ExecutionOptions options;
  options.pipeline.pool = &pool;
  std::mutex mu;
  std::set<std::thread::id> reducer_threads;
  const auto note_thread = [&] {
    std::lock_guard<std::mutex> lock(mu);
    reducer_threads.insert(std::this_thread::get_id());
  };
  std::vector<int> inputs(200);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions round;
  round.num_shards = 3;
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, int>(
              [](const int& x, Emitter<int, int>& e) { e.Emit(x % 5, x); })
          .WithOptions(round)
          .ReduceByKey<std::pair<int, std::size_t>>(
              [&](const int& key, GroupView<int> values,
                  std::vector<std::pair<int, std::size_t>>& out) {
                note_thread();
                out.emplace_back(key, values.size());
              })
          .Map<int, std::size_t>([](const std::pair<int, std::size_t>& p,
                                    Emitter<int, std::size_t>& e) {
            e.Emit(0, p.second);
          })
          .ReduceByKey<std::size_t>(
              [&](const int&, GroupView<std::size_t> values,
                  std::vector<std::size_t>& out) {
                note_thread();
                std::size_t total = 0;
                for (std::size_t v : values) total += v;
                out.push_back(total);
              })
          .Execute(options);
  EXPECT_EQ(run.outputs, std::vector<std::size_t>{200});
  ASSERT_EQ(run.metrics.rounds.size(), 2u);
  EXPECT_EQ(run.metrics.rounds[0].num_outputs, 5u);
  EXPECT_EQ(run.metrics.rounds[0].shard_pairs.size(), 3u);
  EXPECT_EQ(run.metrics.rounds[1].shard_pairs.size(), 1u);
  // Both rounds reduced on the two pool threads, never on this one.
  EXPECT_LE(reducer_threads.size(), 2u);
  EXPECT_EQ(reducer_threads.count(std::this_thread::get_id()), 0u);
}

TEST(Pipeline, RoundDefaultsMergeFieldWise) {
  // The historical footgun: per-round options used to replace the
  // defaults wholesale, so a round overriding only num_shards silently
  // dropped the execution's memory budget. MergedJobOptions inherits
  // every unset field instead — the round below must still spill.
  ExecutionOptions options;
  options.pipeline.round_defaults.shuffle.memory_budget_bytes = 1 << 10;
  options.pipeline.round_defaults.speculation.enabled = true;
  options.pipeline.round_defaults.speculation.slowdown_factor = 7.0;
  std::vector<int> inputs(4000);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions round;
  round.num_shards = 2;  // the only field the round overrides
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, int>(
              [](const int& x, Emitter<int, int>& e) { e.Emit(x % 512, x); })
          .WithOptions(round)
          .ReduceByKey<std::pair<int, std::size_t>>(
              [](const int& key, GroupView<int> values,
                 std::vector<std::pair<int, std::size_t>>& out) {
                out.emplace_back(key, values.size());
              })
          .Execute(options);
  EXPECT_EQ(run.outputs.size(), 512u);
  const JobMetrics& m = run.metrics.rounds[0];
  // Budget inherited from the defaults: the round ran externally...
  EXPECT_TRUE(m.external_shuffle());
  EXPECT_GT(m.spill_runs, 0u);
  // ...while every pair it shuffled was still placed.
  EXPECT_EQ(std::accumulate(m.shard_pairs.begin(), m.shard_pairs.end(),
                            std::uint64_t{0}),
            m.pairs_shuffled);

  // The execution-wide shuffle backstop composes field-wise as well: a
  // round forcing only the strategy still inherits the backstop budget.
  JobOptions merged =
      MergedJobOptions(round, options.pipeline.round_defaults);
  EXPECT_EQ(merged.num_shards, 2u);
  EXPECT_EQ(merged.shuffle.memory_budget_bytes, std::uint64_t{1} << 10);
  EXPECT_TRUE(merged.speculation.enabled);
  EXPECT_EQ(merged.speculation.slowdown_factor, 7.0);
}

// ------------------------------------------- shuffle-config resolution

/// A fully populated config, distinct from the per-field overrides below.
ShuffleConfig FullShuffleDefaults() {
  ShuffleConfig defaults;
  defaults.strategy = ShuffleStrategy::kSharded;
  defaults.memory_budget_bytes = 1 << 20;
  defaults.spill_dir = "/tmp/mrcost-default-spill";
  defaults.partitioner = PartitionerKind::kSampledRange;
  return defaults;
}

TEST(ShuffleConfigResolution, SingleFieldOverridesInheritTheRest) {
  // The documented resolution order, exercised field by field: a round
  // overriding exactly one field keeps that field and inherits the other
  // three from the fallback.
  const ShuffleConfig defaults = FullShuffleDefaults();

  {
    ShuffleConfig round;
    round.strategy = ShuffleStrategy::kExternal;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, ShuffleStrategy::kExternal);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.partitioner, defaults.partitioner);
  }
  {
    ShuffleConfig round;
    round.memory_budget_bytes = 1 << 12;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, std::uint64_t{1} << 12);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.partitioner, defaults.partitioner);
  }
  {
    ShuffleConfig round;
    round.spill_dir = "/tmp/mrcost-round-spill";
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, "/tmp/mrcost-round-spill");
    EXPECT_EQ(merged.partitioner, defaults.partitioner);
  }
  {
    ShuffleConfig round;
    round.partitioner = PartitionerKind::kHash;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.partitioner, PartitionerKind::kHash);
  }
}

TEST(ShuffleConfigResolution, UnsetInheritsEverythingAndZeroStaysZero) {
  const ShuffleConfig defaults = FullShuffleDefaults();
  const ShuffleConfig inherited = ShuffleConfig{}.MergedOver(defaults);
  EXPECT_EQ(inherited.strategy, defaults.strategy);
  EXPECT_EQ(inherited.memory_budget_bytes, defaults.memory_budget_bytes);
  EXPECT_EQ(inherited.spill_dir, defaults.spill_dir);
  EXPECT_EQ(inherited.partitioner, defaults.partitioner);
  EXPECT_TRUE(inherited.configured());

  const ShuffleConfig untouched = ShuffleConfig{}.MergedOver(ShuffleConfig{});
  EXPECT_EQ(untouched.strategy, ShuffleStrategy::kAuto);
  EXPECT_EQ(untouched.memory_budget_bytes, 0u);
  EXPECT_TRUE(untouched.spill_dir.empty());
  EXPECT_EQ(untouched.partitioner, PartitionerKind::kAuto);
  EXPECT_FALSE(untouched.configured());
}

TEST(ShuffleConfigResolution, ThreeLayerOrderRoundBeatsDefaultsBeatsBackstop) {
  // The full chain the plan executor applies: per-round fields win, then
  // the round defaults, then the execution-wide backstop
  // — field by field, not wholesale.
  ShuffleConfig backstop;
  backstop.strategy = ShuffleStrategy::kSharded;
  backstop.memory_budget_bytes = 1 << 22;
  backstop.spill_dir = "/tmp/mrcost-backstop-spill";
  backstop.partitioner = PartitionerKind::kSampledRange;

  ShuffleConfig defaults;  // sets two of four fields
  defaults.memory_budget_bytes = 1 << 16;
  defaults.partitioner = PartitionerKind::kSampledRange;

  ShuffleConfig round;  // sets one field the defaults also set, one not
  round.partitioner = PartitionerKind::kHash;
  round.strategy = ShuffleStrategy::kExternal;

  const ShuffleConfig merged =
      round.MergedOver(defaults).MergedOver(backstop);
  EXPECT_EQ(merged.strategy, ShuffleStrategy::kExternal);  // round
  EXPECT_EQ(merged.memory_budget_bytes,
            std::uint64_t{1} << 16);                       // defaults
  EXPECT_EQ(merged.spill_dir, backstop.spill_dir);         // backstop
  EXPECT_EQ(merged.partitioner, PartitionerKind::kHash);  // round
}

TEST(ShuffleConfigResolution, ResolvedStrategyFollowsBudget) {
  ShuffleConfig config;
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kSharded);
  config.memory_budget_bytes = 1;
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kExternal);
  config.strategy = ShuffleStrategy::kSharded;  // explicit beats the rule
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kSharded);
}

TEST(Pipeline, CombinedRound) {
  std::vector<int> inputs(1000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 4);
  }
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, std::int64_t>(
              [](const int& x, Emitter<int, std::int64_t>& e) { e.Emit(x, 1); })
          .CombineByKey([](std::int64_t a, std::int64_t b) { return a + b; })
          .ReduceByKey<std::pair<int, std::int64_t>>(
              [](const int& key, GroupView<std::int64_t> values,
                 std::vector<std::pair<int, std::int64_t>>& out) {
                std::int64_t total = 0;
                for (std::int64_t v : values) total += v;
                out.emplace_back(key, total);
              })
          .Execute();
  ASSERT_EQ(run.outputs.size(), 4u);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_EQ(m.pairs_before_combine, 1000u);
  EXPECT_LT(m.pairs_shuffled, m.pairs_before_combine);
}

TEST(Pipeline, CompareToLowerBound) {
  // A synthetic recipe with g(q) = q and |O| = 2|I|: Equation 4 gives
  // r >= q*|O| / (g(q)*|I|) = 2 at every q.
  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q; };
  recipe.num_inputs = 100;
  recipe.num_outputs = 200;

  PipelineMetrics metrics;
  JobMetrics round;
  round.num_inputs = 100;
  round.pairs_shuffled = 300;  // realized r = 3
  round.max_reducer_input = 10;
  metrics.Add(round);

  const auto reports = CompareToLowerBound(metrics, recipe);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].round, 1u);
  EXPECT_DOUBLE_EQ(reports[0].realized_q, 10.0);
  EXPECT_DOUBLE_EQ(reports[0].realized_r, 3.0);
  EXPECT_DOUBLE_EQ(reports[0].lower_bound_r, 2.0);
  EXPECT_DOUBLE_EQ(reports[0].optimality_ratio, 1.5);
  EXPECT_NE(ToString(reports).find("ratio=1.5"), std::string::npos);
}

// ------------------------------------------------------------ metrics

TEST(Metrics, PipelineAccumulates) {
  PipelineMetrics pipeline;
  JobMetrics round1;
  round1.pairs_shuffled = 100;
  round1.bytes_shuffled = 800;
  round1.max_reducer_input = 10;
  JobMetrics round2;
  round2.pairs_shuffled = 50;
  round2.bytes_shuffled = 400;
  round2.max_reducer_input = 25;
  pipeline.Add(round1);
  pipeline.Add(round2);
  EXPECT_EQ(pipeline.total_pairs(), 150u);
  EXPECT_EQ(pipeline.total_bytes(), 1200u);
  EXPECT_EQ(pipeline.max_reducer_input(), 25u);
  EXPECT_NE(pipeline.ToString().find("2 round(s)"), std::string::npos);
}

TEST(Metrics, ReplicationRateFormula) {
  JobMetrics m;
  m.num_inputs = 10;
  m.pairs_shuffled = 35;
  EXPECT_DOUBLE_EQ(m.replication_rate(), 3.5);
}

}  // namespace
}  // namespace mrcost::engine
