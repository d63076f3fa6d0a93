// Quickstart: the full mrcost workflow on one problem.
//
//   1. Model a problem (Hamming-distance-1 on 12-bit strings).
//   2. Get a lower bound on replication rate from the Section 2.4 recipe.
//   3. Build a mapping schema (the Splitting algorithm) and validate it.
//   4. Build the join as a lazy Plan, Estimate its (q, r) against the
//      bound BEFORE running, Explain the physical plan, then Execute and
//      compare the realized communication.
//   5. Pick the cost-optimal reducer size for a made-up cluster price.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
//        ./build/examples/quickstart --trace_out=trace.json
//            --metrics_out=metrics.json   # Perfetto trace + registry dump
//        ./build/examples/quickstart --backend=multi_process --workers=4
//            # re-runs the join on worker processes and checks the
//            # outputs byte-identical; --kill_worker=0 SIGKILLs a worker
//            # mid-round to exercise task re-issue

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/cost_model.h"
#include "src/core/lower_bound.h"
#include "src/core/schema_stats.h"
#include "src/core/schema_validator.h"
#include "src/dist/registry.h"
#include "src/engine/plan.h"
#include "src/hamming/bounds.h"
#include "src/hamming/problem.h"
#include "src/hamming/schemas.h"
#include "src/hamming/similarity_join.h"
#include "src/obs/export.h"

int main(int argc, char** argv) {
  using namespace mrcost;  // NOLINT: example brevity
  const obs::CaptureFlags capture = obs::ParseCaptureFlags(argc, argv);
  std::string backend = "in_process";
  std::size_t workers = 2;
  int kill_worker = -1;
  int kill_fetch = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      backend = arg.substr(10);
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--kill_worker=", 0) == 0) {
      kill_worker = std::atoi(arg.c_str() + 14);
    } else if (arg.rfind("--kill_fetch=", 0) == 0) {
      kill_fetch = std::atoi(arg.c_str() + 13);
    }
  }

  // 1. The problem: all 2^12 bit strings; outputs are pairs at distance 1.
  const int b = 12;
  const hamming::HammingProblem problem(b, /*d=*/1);
  std::cout << "Problem: " << problem.name() << "\n"
            << "  |I| = " << problem.num_inputs()
            << ", |O| = " << problem.num_outputs() << "\n\n";

  // 2. Lower bound: no schema with reducer size q can replicate less than
  //    b/log2(q) (Theorem 3.2).
  const core::Recipe recipe = hamming::Hamming1Recipe(b);
  for (double q : {2.0, 16.0, 64.0, 4096.0}) {
    std::cout << "  q = " << q << "  ->  r >= "
              << core::ClampedReplicationLowerBound(recipe, q) << "\n";
  }

  // 3. A matching algorithm: Splitting with c = 3 segments (q = 2^4 = 16).
  auto schema = hamming::SplittingSchema::Make(b, /*c=*/3);
  if (!schema.ok()) {
    std::cerr << schema.status() << "\n";
    return 1;
  }
  const auto valid =
      core::ValidateSchema(problem, *schema, schema->reducer_size());
  std::cout << "\nSchema " << schema->name() << ": "
            << (valid.ok() ? "valid (covers every output, q respected)"
                           : valid.ToString())
            << "\n";
  const auto stats =
      core::ComputeSchemaStats(*schema, problem.num_inputs());
  std::cout << "  measured: " << stats.ToString() << "\n"
            << "  bound at q=" << stats.max_reducer_load << ": r >= "
            << hamming::Hamming1LowerBound(
                   b, static_cast<double>(stats.max_reducer_load))
            << "  -> the algorithm is exactly optimal\n\n";

  // 4. Build the join as a lazy plan: nothing runs yet, but the cost is
  //    already knowable — the paper's point, as an API.
  auto plan = hamming::BuildSplittingSimilarityJoinPlan(
      hamming::AllStrings(b), b, /*k=*/3, /*d=*/1);
  if (!plan.ok()) {
    std::cerr << plan.status() << "\n";
    return 1;
  }

  //    Estimate: predicted q, r, and the bound ratio, before any data
  //    moves (the splitting schema declares its analytic geometry).
  std::cout << "Estimate (before execution):\n  "
            << plan->plan.Estimate(recipe).ToString() << "\n\n";

  //    Explain: the physical plan Execute would run.
  engine::ExecutionOptions exec_options;
  exec_options.trace_out = capture.trace_out;
  exec_options.metrics_out = capture.metrics_out;
  exec_options.recipe = &recipe;  // annotates rounds with the bound ratio
  std::cout << "Explain:\n" << plan->plan.Explain(exec_options) << "\n\n";

  //    Execute: lowers onto the stage-graph executor.
  auto run = plan->pairs.Execute(exec_options);
  std::cout << "Engine run: found " << run.outputs.size()
            << " distance-1 pairs (expected " << problem.num_outputs()
            << ")\n  " << run.metrics.rounds[0].ToString() << "\n\n";

  //    Optional: the same join on the multi-process backend. The
  //    "quickstart" dist recipe rebuilds this exact plan (b=12, k=3,
  //    d=1) in each worker process, so the coordinator can ship (recipe,
  //    args) instead of closures; the streamed shuffle must reproduce
  //    the in-process run byte for byte — including when --kill_worker
  //    SIGKILLs a worker mid-round and its tasks are re-issued.
  if (backend == "multi_process") {
    auto dist_plan = dist::PlanRegistry::Global().Build("quickstart", "");
    MRCOST_CHECK_OK(dist_plan.status());
    engine::ExecutionOptions dist_options;
    dist_options.backend = engine::ExecutionBackend::kMultiProcess;
    // Re-point the capture at the distributed run: its trace (worker
    // lanes, FetchRun spans) and registry supersede the in-process one
    // written above.
    dist_options.trace_out = capture.trace_out;
    dist_options.metrics_out = capture.metrics_out;
    dist_options.dist.num_workers = workers;
    dist_options.dist.spill_dir = capture.spill_dir;
    dist_options.dist.keep_spills = capture.keep_spills;
    dist_options.dist.kill_worker_index = kill_worker;
    dist_options.dist.kill_after_fetches = kill_fetch;
    dist_plan->Execute(dist_options);
    const auto& slots = dist_plan->graph()->slots;
    const auto* dist_pairs =
        static_cast<const std::vector<std::pair<hamming::BitString,
                                                hamming::BitString>>*>(
            slots.back().get());
    MRCOST_CHECK(dist_pairs != nullptr);
    MRCOST_CHECK(*dist_pairs == run.outputs);
    std::cout << "Multi-process run (" << workers << " workers"
              << (kill_worker >= 0 ? ", one SIGKILLed mid-round" : "")
              << "): " << dist_pairs->size()
              << " pairs, byte-identical to the in-process engine\n\n";
  }

  // 5. Cost model (Example 1.1): suppose communication costs 50 units per
  //    replicated input and reducers do quadratic work at 0.002/pair.
  const core::CostModel model{/*a=*/50.0, /*b=*/0.0, /*c=*/0.002};
  std::vector<core::TradeoffPoint> curve;
  for (int c = 1; c <= b; ++c) {
    if (b % c != 0) continue;
    curve.push_back({std::ldexp(1.0, b / c), static_cast<double>(c),
                     "splitting c=" + std::to_string(c)});
  }
  const auto best = core::PickCheapest(curve, model);
  std::cout << "Cheapest configuration for this cluster: " << best.label
            << " (q=" << best.q << ", r=" << best.r
            << ", cost=" << model.Cost(best.r, best.q) << ")\n";
  return 0;
}
