// External-shuffle sweep: in-memory (sharded) vs spill-to-disk (external)
// throughput on a dataset whose intermediate size is ~4x the memory
// budget, across budget x shards. Prints a human table plus one
// machine-readable JSON line per configuration (prefix BENCH_JSON) for
// BENCH_*.json trajectory tracking.
//
// What to expect: the external shuffle pays serialization + disk + a
// re-read for its bounded memory, so the in-memory path wins while data
// fits in RAM — the point of the sweep is to measure that price and to
// watch the spill counters (runs, bytes) respond to the budget, the way
// Section 2.2's communication cost responds to q.
//
// A second table times spill-run *ordering* alone (no encode, no disk):
// storage::SpillOrder's radix order against the comparator row sort it
// replaced, on 125K rows at four key densities and on one small block
// (median of 11 runs each).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/obs/export.h"
#include "src/storage/block.h"

namespace {

namespace engine = mrcost::engine;

struct RunResult {
  double seconds = 0;
  engine::JobMetrics metrics;
};

/// The swept workload: `n` inputs, fanout 2, ~4k distinct keys.
RunResult RunConfig(const std::vector<std::uint64_t>& inputs,
                    const engine::JobOptions& options) {
  auto map_fn = [](const std::uint64_t& x,
                   engine::Emitter<std::uint64_t, std::uint64_t>& emitter) {
    emitter.Emit(mrcost::common::Mix64(x) % 4096, x);
    emitter.Emit(mrcost::common::Mix64(x ^ 0x9e3779b97f4a7c15ULL) % 4096,
                 x + 1);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      mrcost::engine::GroupView<std::uint64_t> values,
                      std::vector<std::uint64_t>& out) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : values) sum += v;
    out.push_back(sum);
  };
  const auto start = std::chrono::steady_clock::now();
  auto result = engine::Plan()
                    .Source(inputs)
                    .Map<std::uint64_t, std::uint64_t>(map_fn)
                    .ReduceByKey<std::uint64_t>(reduce_fn)
                    .Execute(engine::ExecutionOptions(options));
  const auto stop = std::chrono::steady_clock::now();
  RunResult out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.metrics = std::move(result.metrics.rounds[0]);
  return out;
}

void PrintJson(const std::string& strategy, std::size_t shards,
               std::uint64_t budget, std::size_t n, const RunResult& run) {
  std::printf(
      "BENCH_JSON {\"bench\":\"external_shuffle\",\"strategy\":\"%s\","
      "\"shards\":%zu,\"memory_budget_bytes\":%llu,\"inputs\":%zu,"
      "\"pairs\":%llu,\"bytes_shuffled\":%llu,\"seconds\":%.6f,"
      "\"mpairs_per_sec\":%.3f,\"spill_runs\":%llu,"
      "\"spill_bytes_written\":%llu,\"merge_passes\":%llu}\n",
      strategy.c_str(), shards,
      static_cast<unsigned long long>(budget), n,
      static_cast<unsigned long long>(run.metrics.pairs_shuffled),
      static_cast<unsigned long long>(run.metrics.bytes_shuffled),
      run.seconds,
      static_cast<double>(run.metrics.pairs_shuffled) / 1e6 / run.seconds,
      static_cast<unsigned long long>(run.metrics.spill_runs),
      static_cast<unsigned long long>(run.metrics.spill_bytes_written),
      static_cast<unsigned long long>(run.metrics.merge_passes));
}

/// The ordering spill runs used before storage::SpillOrder: a comparator
/// sort of row indices by (hash, key bytes, row). Kept as the baseline.
std::vector<std::uint32_t> ComparatorOrder(
    const mrcost::storage::KVBlock<std::uint64_t, std::uint64_t>& block) {
  std::vector<std::uint32_t> order(block.rows());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (block.hash(a) != block.hash(b)) return block.hash(a) < block.hash(b);
    const int c = block.key_bytes(a).compare(block.key_bytes(b));
    if (c != 0) return c < 0;
    return a < b;
  });
  return order;
}

template <typename Fn>
double MedianMs(int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Spill-run ordering alone, radix vs comparator: 125K rows at four key
/// densities, plus one block below the radix cutoff.
void OrderingTable() {
  constexpr int kReps = 11;
  struct Shape {
    std::uint64_t rows;
    std::uint64_t keys;
  };
  mrcost::common::Table table({"rows", "keys", "rows_per_key",
                               "comparator_ms", "radix_ms", "speedup"});
  for (const Shape shape : {Shape{125000, 16}, Shape{125000, 4096},
                            Shape{125000, 31250}, Shape{125000, 125000},
                            Shape{2000, 500}}) {
    mrcost::storage::KVBlock<std::uint64_t, std::uint64_t> block;
    for (std::uint64_t i = 0; i < shape.rows; ++i) {
      block.Append((i * 0x9e3779b97f4a7c15ULL) % shape.keys,
                   std::uint64_t{i});
    }
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    const double comparator_ms =
        MedianMs(kReps, [&] { a = ComparatorOrder(block); });
    const double radix_ms = MedianMs(kReps, [&] {
      std::vector<std::uint32_t> rows(block.rows());
      std::iota(rows.begin(), rows.end(), 0u);
      b = mrcost::storage::SpillOrder(block, rows);
    });
    if (a != b) {
      std::cerr << "spill order mismatch at keys=" << shape.keys << "\n";
      std::exit(1);
    }
    table.AddRow()
        .Add(shape.rows)
        .Add(shape.keys)
        .Add(static_cast<double>(shape.rows) /
             static_cast<double>(shape.keys))
        .Add(comparator_ms)
        .Add(radix_ms)
        .Add(comparator_ms / radix_ms);
  }
  table.Print(std::cout, "spill-run ordering, median of " +
                             std::to_string(kReps) + " runs");
}

}  // namespace

int main(int argc, char** argv) {
  // Optional --trace_out=/--metrics_out= capture over the whole sweep:
  // the spill spans make the external strategy's disk writes
  // visible. Leave unset when measuring.
  const mrcost::obs::CaptureFlags capture =
      mrcost::obs::ParseCaptureFlags(argc, argv);
  mrcost::obs::ScopedCapture trace_scope(capture.trace_out,
                                         capture.metrics_out);

  // Dataset sized so the intermediate data is ~4x the largest swept
  // budget: n inputs x fanout 2 x 16 bytes/pair = 32n bytes of
  // ByteSizeOf-intermediate.
  const std::size_t n = 1 << 19;
  const std::uint64_t intermediate = 32ull * n;  // = 16 MiB at n = 2^19
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);

  mrcost::common::Table table(
      {"strategy", "shards", "budget", "x_over_budget", "sec", "Mpairs/s",
       "spill_runs", "spill_MB", "merge_passes"});

  for (std::size_t shards : {1u, 4u}) {
    engine::JobOptions options;
    options.num_shards = shards;
    options.shuffle.strategy = engine::ShuffleStrategy::kSharded;
    const RunResult run = RunConfig(inputs, options);
    table.AddRow()
        .Add(shards == 1 ? "serial" : "sharded")
        .Add(static_cast<std::uint64_t>(shards))
        .Add("-")
        .Add("-")
        .Add(run.seconds)
        .Add(static_cast<double>(run.metrics.pairs_shuffled) / 1e6 /
             run.seconds)
        .Add(std::uint64_t{0})
        .Add(std::uint64_t{0})
        .Add(std::uint64_t{0});
    PrintJson(shards == 1 ? "serial" : "sharded", shards, 0, n, run);
  }

  for (std::uint64_t budget = intermediate / 4; budget >= intermediate / 32;
       budget /= 2) {
    engine::JobOptions options;
    options.shuffle.strategy = engine::ShuffleStrategy::kExternal;
    options.shuffle.memory_budget_bytes = budget;
    options.shuffle.spill_dir = capture.spill_dir;
    const RunResult run = RunConfig(inputs, options);
    table.AddRow()
        .Add("external")
        .Add("-")
        .Add(budget)
        .Add(static_cast<double>(intermediate) / budget)
        .Add(run.seconds)
        .Add(static_cast<double>(run.metrics.pairs_shuffled) / 1e6 /
             run.seconds)
        .Add(run.metrics.spill_runs)
        .Add(static_cast<double>(run.metrics.spill_bytes_written) / 1e6)
        .Add(run.metrics.merge_passes);
    PrintJson("external", 0, budget, n, run);
  }

  table.Print(std::cout,
              "external vs in-memory shuffle, intermediate = " +
                  std::to_string(intermediate) + " bytes (dataset ~4x the "
                  "largest budget)");
  OrderingTable();
  return 0;
}
