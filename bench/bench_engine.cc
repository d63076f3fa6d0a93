// Engine micro-benchmarks (E17): google-benchmark throughput numbers for
// the in-process map-reduce substrate itself — shuffle rate, thread
// scaling, and two end-to-end kernels (word count, one-phase matmul).
// These validate that the substrate is fast enough that the paper-level
// benches measure schema behaviour, not harness overhead.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/lower_bound.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/join/aggregate.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"

namespace {

/// The BENCH_JSON row of BM_ShuffleThroughput's last run per n. The
/// library calls a benchmark function once per warm-up step and once per
/// iteration-count probe, and the last call is the measured run, so rows
/// are kept here and printed once each after every benchmark has run.
std::map<std::size_t, std::string>& ShuffleThroughputRows() {
  static std::map<std::size_t, std::string> rows;
  return rows;
}

// Shuffle throughput on string keys (where the columnar layout pays: one
// serialize+hash per key at emit time, zero key copies afterwards): a
// one-round Plan over n inputs on 4 threads and 8 pinned shards, whose
// map emits one pair per input and whose reducer only counts its group.
// Timed on the wall clock after a warm-up: the first rounds of a process
// pay for page faults and allocator growth that steady state does not.
// Arguments: {n}.
void BM_ShuffleThroughput(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mrcost::common::ThreadPool pool(4);
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::engine::JobOptions options;
  options.pool = &pool;
  options.num_shards = 8;
  options.shuffle.strategy = mrcost::engine::ShuffleStrategy::kSharded;

  auto key_of = [](std::uint64_t x) {
    return "user:" + std::to_string(mrcost::common::Mix64(x) % (1 << 16)) +
           ":metric";
  };

  std::size_t keys_seen = 0;
  double total_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    mrcost::engine::Plan plan;
    auto run =
        plan.Source(inputs)
            .Map<std::string, std::uint64_t>(
                [&key_of](const std::uint64_t& x,
                          mrcost::engine::Emitter<std::string, std::uint64_t>&
                              emitter) { emitter.Emit(key_of(x), x); })
            .ReduceByKey<std::size_t>(
                [](const std::string&,
                   mrcost::engine::GroupView<std::uint64_t> values,
                   std::vector<std::size_t>& out) {
                  out.push_back(values.size());
                })
            .Execute(mrcost::engine::ExecutionOptions(options));
    keys_seen = run.outputs.size();
    benchmark::DoNotOptimize(run.outputs);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["keys"] = static_cast<double>(keys_seen);
  // Wall time (mean per iteration) covers the whole round — map (emit into
  // blocks), route, group, reduce and finalize — on a plan built per
  // iteration (its input copy included).
  const double wall_ms =
      state.iterations() > 0
          ? total_ms / static_cast<double>(state.iterations())
          : 0.0;
  char row[256];
  std::snprintf(
      row, sizeof(row),
      "BENCH_JSON {\"bench\":\"shuffle_throughput\",\"mode\":\"blocks\","
      "\"n\":%zu,\"keys\":%zu,\"wall_ms\":%.3f,\"mpairs_per_s\":%.3f}",
      n, keys_seen, wall_ms,
      wall_ms > 0 ? static_cast<double>(n) / wall_ms / 1e3 : 0.0);
  ShuffleThroughputRows()[n] = row;
}
BENCHMARK(BM_ShuffleThroughput)
    ->ArgNames({"n"})
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->UseRealTime()
    ->MinWarmUpTime(0.3);

void BM_ReplicationFanout(benchmark::State& state) {
  // Each input emitted to `fanout` keys: stresses the replication path the
  // paper's schemas exercise.
  const std::size_t n = 1 << 14;
  const int fanout = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [fanout](const std::uint64_t& x,
                         mrcost::engine::Emitter<std::uint64_t,
                                                 std::uint64_t>& emitter) {
    for (int i = 0; i < fanout; ++i) {
      emitter.Emit(mrcost::common::Mix64(x * 31 + i) % 4096, x);
    }
  };
  auto reduce_fn = [](const std::uint64_t&,
                      mrcost::engine::GroupView<std::uint64_t> values,
                      std::vector<std::size_t>& out) {
    out.push_back(values.size());
  };
  for (auto _ : state) {
    auto result = mrcost::engine::Plan()
                      .Source(inputs)
                      .Map<std::uint64_t, std::uint64_t>(map_fn)
                      .ReduceByKey<std::size_t>(reduce_fn)
                      .Execute();
    benchmark::DoNotOptimize(result.metrics.rounds[0].pairs_shuffled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          fanout);
}
BENCHMARK(BM_ReplicationFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_ThreadScaling(benchmark::State& state) {
  const std::size_t n = 1 << 17;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::engine::JobOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::uint64_t, std::uint64_t>&
                       emitter) {
    // A mildly expensive map body so threads have work to share.
    std::uint64_t h = x;
    for (int i = 0; i < 64; ++i) h = mrcost::common::Mix64(h);
    emitter.Emit(h % 997, h);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      mrcost::engine::GroupView<std::uint64_t> values,
                      std::vector<std::uint64_t>& out) {
    std::uint64_t acc = 0;
    for (std::uint64_t v : values) acc ^= v;
    out.push_back(acc);
  };
  for (auto _ : state) {
    auto result = mrcost::engine::Plan()
                      .Source(inputs)
                      .Map<std::uint64_t, std::uint64_t>(map_fn)
                      .ReduceByKey<std::uint64_t>(reduce_fn)
                      .Execute(mrcost::engine::ExecutionOptions(options));
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --------------------------------------------------------------- shuffle
// Sharded-vs-serial shuffle comparison on a 1M-pair workload with ~512k
// distinct keys — enough that the serial shuffle's single hash table falls
// out of cache. Shards = 1 groups every key in one table, the serial
// baseline; larger shard counts exercise the radix-partitioned parallel
// path. Arguments: {num_threads, num_shards}.
void BM_ShuffleShardedSweep(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::engine::JobOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  options.num_shards = static_cast<std::size_t>(state.range(1));
  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::uint64_t, std::uint64_t>&
                       emitter) {
    emitter.Emit(mrcost::common::Mix64(x) % (1 << 19), x);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      mrcost::engine::GroupView<std::uint64_t> values,
                      std::vector<std::size_t>& out) {
    out.push_back(values.size());
  };
  for (auto _ : state) {
    auto result = mrcost::engine::Plan()
                      .Source(inputs)
                      .Map<std::uint64_t, std::uint64_t>(map_fn)
                      .ReduceByKey<std::size_t>(reduce_fn)
                      .Execute(mrcost::engine::ExecutionOptions(options));
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ShuffleShardedSweep)
    ->ArgNames({"threads", "shards"})
    // Seed serial baseline at each thread count.
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    // Sharded shuffle: shard-count sweep at fixed threads, then thread
    // scaling at matching shard counts.
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Args({4, 16})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({8, 8})
    ->Args({8, 16});

// ------------------------------------------------- pipeline accounting
// Two-phase matrix multiplication as a two-round Plan, reporting
// each round's realized replication rate r alongside the Section 2.4
// recipe lower bound at the realized reducer load q. The ratio lands
// BELOW 1 by design: round 1 only computes partial sums, so it beats the
// one-round bound — the measured form of Section 6.3's observation that
// two-phase algorithms evade the single-round tradeoff. Compare with
// BM_MatMulOnePhase, whose one-round schema meets the bound exactly.
void BM_TwoPhaseMatmulPipeline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(5);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  mrcost::engine::PipelineMetrics last;
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyTwoPhase(a, b, n / 4, n / 8);
    benchmark::DoNotOptimize(result->product);
    last = result->metrics;
  }
  const auto reports = mrcost::engine::CompareToLowerBound(
      last, mrcost::matmul::MatMulRecipe(n));
  if (!reports.empty()) {
    state.counters["r1"] = reports[0].realized_r;
    state.counters["r1_bound"] = reports[0].lower_bound_r;
    state.counters["r1_ratio"] = reports[0].optimality_ratio;
    state.counters["q1"] = reports[0].realized_q;
  }
  if (reports.size() > 1) {
    state.counters["r2"] = reports[1].realized_r;
  }
  state.counters["total_r"] = last.total_replication_rate();
}
BENCHMARK(BM_TwoPhaseMatmulPipeline)->Arg(32)->Arg(64);

void BM_WordCount(benchmark::State& state) {
  std::vector<std::string> docs;
  mrcost::common::SplitMix64 rng(1);
  for (int d = 0; d < 200; ++d) {
    std::string doc;
    for (int w = 0; w < 100; ++w) {
      doc += "word" + std::to_string(rng.UniformBelow(500)) + " ";
    }
    docs.push_back(doc);
  }
  const auto words = mrcost::join::Tokenize(docs);
  for (auto _ : state) {
    auto result = mrcost::join::WordCount(words);
    benchmark::DoNotOptimize(result.counts);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * words.size());
}
BENCHMARK(BM_WordCount);

void BM_MatMulOnePhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(2);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  mrcost::engine::JobMetrics last;
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyOnePhase(a, b, n / 4);
    benchmark::DoNotOptimize(result->product);
    last = result->metrics;
  }
  // One-round schema: realized r meets the recipe bound r >= 2n^2/q
  // exactly (ratio 1), the counterpart of BM_TwoPhaseMatmulPipeline.
  mrcost::engine::PipelineMetrics wrapped;
  wrapped.Add(last);
  const auto reports = mrcost::engine::CompareToLowerBound(
      wrapped, mrcost::matmul::MatMulRecipe(n));
  if (!reports.empty()) {
    state.counters["r"] = reports[0].realized_r;
    state.counters["r_bound"] = reports[0].lower_bound_r;
    state.counters["r_ratio"] = reports[0].optimality_ratio;
  }
}
BENCHMARK(BM_MatMulOnePhase)->Arg(32)->Arg(64);

void BM_MatMulTwoPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(3);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyTwoPhase(a, b, n / 4, n / 8);
    benchmark::DoNotOptimize(result->product);
  }
}
BENCHMARK(BM_MatMulTwoPhase)->Arg(32)->Arg(64);

}  // namespace

// Expanded BENCHMARK_MAIN so the bench accepts the shared
// --trace_out=/--metrics_out= capture flags (same convention as the
// examples): when set, every iteration records into one capture scope
// written at exit. Leave them unset when measuring — the perf guard's
// baseline runs with tracing disabled.
int main(int argc, char** argv) {
  const mrcost::obs::CaptureFlags capture =
      mrcost::obs::ParseCaptureFlags(argc, argv);
  // Strip the capture flags before handing argv to google-benchmark, which
  // treats anything it does not know as an error.
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace_out=", 0) == 0 ||
        arg.rfind("--metrics_out=", 0) == 0 ||
        arg.rfind("--spill_dir=", 0) == 0 || arg == "--keep_spills") {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  mrcost::obs::ScopedCapture trace_scope(capture.trace_out,
                                         capture.metrics_out);
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& [n, row] : ShuffleThroughputRows()) {
    std::printf("%s\n", row.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
