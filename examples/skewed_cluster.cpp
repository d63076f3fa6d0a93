// Skewed cluster walkthrough: what the paper's q/r tradeoff feels like
// on a (simulated) cluster once keys stop being uniform. Every step runs a
// real 16-shard round and then prices the placement it made: each shard
// is one simulated worker draining the rows the shuffle routed to it.
//
//   1. Count uniform keys: load imbalance ~1, makespan ~ ideal.
//   2. Re-run with Zipf-skewed keys: same r, same number of reducers —
//      but one shard owns the hot key and the makespan with it.
//   3. Provision a reducer capacity q for the uniform case and compare
//      the realized q (max_reducer_input) of both runs against it.
//   4. Add stragglers (heterogeneous machine speeds) and see makespan
//      stretch even under perfectly uniform keys.
//
// Build: cmake -B build && cmake --build build
// Run:   ./build/example_skewed_cluster [--trace_out=trace.json]

#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/engine/plan.h"
#include "src/engine/simulator.h"
#include "src/obs/export.h"

namespace {

using namespace mrcost;  // NOLINT: example brevity

/// Counts 100k keys drawn Zipf(exponent) over 2048 (exponent 0 = uniform)
/// on 16 hash-placed shards and returns the round's metrics.
engine::JobMetrics CountJob(double exponent) {
  common::SplitMix64 rng(1);
  const common::ZipfDistribution zipf(2048, exponent);
  std::vector<std::uint64_t> inputs(100000);
  for (auto& x : inputs) x = zipf.Sample(rng);
  auto map_fn = [](const std::uint64_t& x,
                   engine::Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn =
      [](const std::uint64_t& key, engine::GroupView<int> values,
         std::vector<std::pair<std::uint64_t, std::int64_t>>& out) {
        out.emplace_back(key, static_cast<std::int64_t>(values.size()));
      };
  engine::JobOptions options;
  options.num_shards = 16;  // 16 shards = 16 simulated workers
  options.shuffle.strategy = engine::ShuffleStrategy::kSharded;
  options.shuffle.partitioner = engine::PartitionerKind::kHash;
  auto run = engine::Plan()
                 .Source(std::move(inputs))
                 .Map<std::uint64_t, int>(map_fn)
                 .ReduceByKey<std::pair<std::uint64_t, std::int64_t>>(reduce_fn)
                 .Execute(engine::ExecutionOptions(options));
  return std::move(run.metrics.rounds[0]);
}

void Report(const char* label, const engine::JobMetrics& m,
            const engine::SimulationOptions& cluster = {}) {
  std::cout << label << "\n  " << m.ToString() << "\n  sim: "
            << engine::SimulateCluster(m.shard_pairs, cluster).ToString()
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional capture: every round below records into one trace, the
  // simulated workers appearing as virtual-time lanes on their own pid.
  const obs::CaptureFlags flags = obs::ParseCaptureFlags(argc, argv);
  obs::ScopedCapture trace_scope(flags.trace_out, flags.metrics_out);

  // 1. Uniform keys. The simulation never touches the round — it only
  //    prices what the placement costs.
  const auto uniform = CountJob(0.0);
  Report("1. Uniform keys: imbalance ~1, makespan ~ total/16", uniform);

  // 2. Zipf(1.2) keys: replication rate r is *unchanged* (still one pair
  //    per input — skew is invisible to the paper's communication cost),
  //    but the shard owning key rank 0 now defines the round.
  const auto skewed = CountJob(1.2);
  Report("\n2. Zipf(1.2) keys: same r, same reducers — skewed makespan",
         skewed);

  // 3. Capacity: provision q = 4x the uniform mean group size. The
  //    uniform run's realized q fits it; the skewed run's hot reducer
  //    breaks the schema's promise, and no placement can fix that.
  const double provisioned_q = 4.0 * 100000.0 / 2048.0;  // ~195 pairs
  auto fit = [&](const engine::JobMetrics& m) {
    return static_cast<double>(m.max_reducer_input) <= provisioned_q
               ? " (fits)"
               : " (over q)";
  };
  std::cout << "\n3. Realized q against a provisioned q=" << provisioned_q
            << ":\n  uniform: max_reducer_input=" << uniform.max_reducer_input
            << fit(uniform)
            << "\n  zipf(1.2): max_reducer_input=" << skewed.max_reducer_input
            << fit(skewed) << "\n";

  // 4. Stragglers: uniform keys, but 4 of 16 workers run 4x slower.
  //    Placement cannot see machine speed, so imbalance stays ~1 while
  //    makespan stretches ~4x — the paper's model (Section 2.2) prices
  //    communication, and the simulator prices where it lands.
  engine::SimulationOptions stragglers;
  stragglers.straggler_fraction = 0.25;
  stragglers.straggler_slowdown = 4.0;
  stragglers.seed = 5;
  Report("\n4. Uniform keys + 25% stragglers at 4x: balanced load, "
         "stretched makespan",
         uniform, stragglers);

  std::cout << "\nTakeaway: r (communication) and q (reducer capacity) "
               "bound what a schema ships;\nmakespan and imbalance show "
               "what the shipped pairs do to a cluster once keys\nskew or "
               "machines differ.\n";
  return 0;
}
