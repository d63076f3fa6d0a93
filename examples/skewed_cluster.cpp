// Skewed cluster walkthrough: what the paper's q/r tradeoff feels like
// on a real (simulated) cluster once keys stop being uniform.
//
//   1. Run a word-count-shaped job with uniform keys on a simulated
//      16-worker cluster: load imbalance ~1, makespan ~ ideal.
//   2. Re-run with Zipf-skewed keys: same r, same number of reducers —
//      but one worker owns the hot key and the makespan with it.
//   3. Provision a reducer capacity q for the uniform case and watch the
//      skewed run report capacity violations instead of silently
//      overfilling.
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
/// and returns the round's metrics.
engine::JobMetrics CountJob(double exponent,
                            const engine::JobOptions& options) {
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
  auto run = engine::Plan()
                 .Source(std::move(inputs))
                 .Map<std::uint64_t, int>(map_fn)
                 .ReduceByKey<std::pair<std::uint64_t, std::int64_t>>(reduce_fn)
                 .Execute(engine::ExecutionOptions(options));
  return std::move(run.metrics.rounds[0]);
}

void Report(const char* label, const engine::JobMetrics& m) {
  std::cout << label << "\n  " << m.ToString() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional capture: every round below records into one trace, the
  // simulated workers appearing as virtual-time lanes on their own pid.
  const obs::CaptureFlags flags = obs::ParseCaptureFlags(argc, argv);
  obs::ScopedCapture trace_scope(flags.trace_out, flags.metrics_out);

  // 1. Uniform keys on a 16-worker simulated cluster. The simulation never
  //    changes reduce outputs — it only measures what the placement costs.
  engine::JobOptions options;
  options.simulation.num_workers = 16;
  const auto uniform = CountJob(0.0, options);
  Report("1. Uniform keys: imbalance ~1, makespan ~ total/16", uniform);

  // 2. Zipf(1.2) keys: replication rate r is *unchanged* (still one pair
  //    per input — skew is invisible to the paper's communication cost),
  //    but the worker owning key rank 0 now defines the round.
  const auto skewed = CountJob(1.2, options);
  Report("\n2. Zipf(1.2) keys: same r, same reducers — skewed makespan",
         skewed);

  // 3. Capacity: provision q = 4x the uniform mean group size. The
  //    uniform run fits; the skewed run's hot reducers violate q, and the
  //    simulator counts them (the schema's promise q was broken).
  options.simulation.reducer_capacity_q =
      4.0 * 100000.0 / 2048.0;  // ~195 pairs
  Report("\n3a. Uniform under provisioned q (no violations)",
         CountJob(0.0, options));
  Report("3b. Zipf(1.2) under the same q (violations reported)",
         CountJob(1.2, options));
  options.simulation.reducer_capacity_q = 0;

  // 4. Stragglers: uniform keys, but 4 of 16 workers run 4x slower.
  //    Placement cannot see machine speed, so imbalance stays ~1 while
  //    makespan stretches ~4x — the paper's model (Section 2.2) prices
  //    communication, and this layer prices where it lands.
  options.simulation.straggler_fraction = 0.25;
  options.simulation.straggler_slowdown = 4.0;
  options.simulation.seed = 5;
  Report("\n4. Uniform keys + 25% stragglers at 4x: balanced load, "
         "stretched makespan",
         CountJob(0.0, options));

  std::cout << "\nTakeaway: r (communication) and q (reducer capacity) "
               "bound what a schema ships;\nmakespan, imbalance, and "
               "capacity violations show what the shipped bytes do to a\n"
               "cluster once keys skew or machines differ.\n";
  return 0;
}
