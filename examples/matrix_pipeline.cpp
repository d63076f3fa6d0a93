// Two-round dataflow for matrix multiplication — the Section 6.3 result
// that a two-phase map-reduce pipeline always communicates less than the
// best one-phase algorithm at the same reducer size.
//
// A 96x96 dense product is computed three ways under a per-reducer input
// budget q: serially (ground truth), with one-phase square tiling
// (Sec 6.2), and with the two-phase 2:1-tile pipeline (Sec 6.3). The
// program prints the measured communication of each and the paper's
// closed forms.
//
// Run: ./build/examples/matrix_pipeline [--trace_out=trace.json]

#include <cstdint>
#include <iostream>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"

int main(int argc, char** argv) {
  using namespace mrcost;  // NOLINT: example brevity
  const obs::CaptureFlags capture = obs::ParseCaptureFlags(argc, argv);

  const int n = 96;
  common::SplitMix64 rng(31);
  matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  const matmul::Matrix truth = matmul::SerialMultiply(a, b);

  // Reducer budget: q = 1152 inputs. One-phase needs q = 2sn -> s = 6;
  // two-phase takes s = sqrt(q), t = sqrt(q)/2 (2:1 tiles).
  const double q = 1152;
  const int one_phase_tile = static_cast<int>(q / (2 * n));  // s = 6
  const auto [s2, t2] = matmul::OptimalTwoPhaseTiles(n, q);
  std::cout << "n = " << n << ", reducer budget q = " << q
            << "\n  one-phase tile s = " << one_phase_tile
            << "; two-phase tiles (s, t) = (" << s2 << ", " << t2 << ")\n\n";

  // One capture scope over both algorithms: the trace shows the one-phase
  // round and the two-phase pipeline, whose round 2 reads the partial sums
  // round 1 materialized.
  obs::ScopedCapture trace_scope(capture.trace_out, capture.metrics_out);
  auto one = matmul::MultiplyOnePhase(a, b, one_phase_tile);
  auto two = matmul::MultiplyTwoPhase(a, b, s2, t2);
  if (!one.ok() || !two.ok()) {
    std::cerr << one.status() << " / " << two.status() << "\n";
    return 1;
  }

  common::Table t({"algorithm", "rounds", "pairs moved", "paper closed form",
                   "max reducer input", "max |error| vs serial"});
  t.AddRow()
      .Add("one-phase (square tiles)")
      .Add(1)
      .Add(one->metrics.pairs_shuffled)
      .Add(matmul::OnePhaseCommunication(n, q))
      .Add(one->metrics.max_reducer_input)
      .Add(one->product.MaxAbsDiff(truth));
  t.AddRow()
      .Add("two-phase (2:1 tiles)")
      .Add(2)
      .Add(two->metrics.total_pairs())
      .Add(matmul::TwoPhaseCommunication(
          n, 2.0 * s2 * t2))
      .Add(two->metrics.max_reducer_input())
      .Add(two->product.MaxAbsDiff(truth));
  t.Print(std::cout, "Dense 96x96 product under a reducer budget");

  const double saving =
      static_cast<double>(one->metrics.pairs_shuffled) /
      static_cast<double>(two->metrics.total_pairs());
  std::cout << "\nTwo-phase moves " << saving
            << "x fewer bytes-on-the-wire at the same reducer budget — the "
               "Section 6.3\nresult (crossover only at q = n^2 = " << n * n
            << ").\n";
  return 0;
}
