#include "src/matmul/mr_multiply.h"

#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/matmul/problem.h"

namespace mrcost::matmul {
namespace {

/// Flattens both matrices into tagged elements (the job's input list).
/// Elements are built through Element's constructor so that each is stored
/// field by field into the vector: a brace-initialized aggregate lets GCC,
/// when it does not inline the vector's grow path, assemble a stack
/// temporary with narrow stores and copy it with one wide load — a
/// store-forwarding stall on every element.
std::vector<Element> FlattenInputs(const Matrix& r, const Matrix& s) {
  std::vector<Element> inputs;
  inputs.reserve(static_cast<std::size_t>(r.rows()) * r.cols() +
                 static_cast<std::size_t>(s.rows()) * s.cols());
  for (int i = 0; i < r.rows(); ++i) {
    for (int j = 0; j < r.cols(); ++j) {
      inputs.push_back(Element(0, static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(j), r.At(i, j)));
    }
  }
  for (int j = 0; j < s.rows(); ++j) {
    for (int k = 0; k < s.cols(); ++k) {
      inputs.push_back(Element(1, static_cast<std::uint32_t>(j),
                               static_cast<std::uint32_t>(k), s.At(j, k)));
    }
  }
  return inputs;
}

/// An element's input id in MatMulProblem's numbering (R row-major, then
/// S), the ids the matmul schemas assign.
auto ElementInputId(int n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  return [nn](const Element& e) {
    return core::InputId{e.matrix * nn * nn + e.row * nn + e.col};
  };
}

}  // namespace

common::Result<OnePhasePlan> BuildMultiplyOnePhasePlan(const Matrix& r,
                                                       const Matrix& s,
                                                       int tile) {
  const int n = r.rows();
  if (r.cols() != n || s.rows() != n || s.cols() != n) {
    return common::Status::InvalidArgument(
        "MultiplyOnePhase: matrices must be square and congruent");
  }
  if (tile < 1 || n % tile != 0) {
    return common::Status::InvalidArgument(
        "MultiplyOnePhase: tile must divide n");
  }
  const std::uint32_t groups = static_cast<std::uint32_t>(n / tile);

  auto reduce_fn = [n, tile, groups](const std::uint32_t& key,
                                     engine::GroupView<Element> elems,
                                     std::vector<Cell>& out) {
    const int gi = static_cast<int>(key / groups);
    const int gk = static_cast<int>(key % groups);
    // Local dense blocks: s rows of R, s columns of S.
    Matrix rows(tile, n);
    Matrix cols(n, tile);
    for (const Element& e : elems) {
      if (e.matrix == 0) {
        rows.At(static_cast<int>(e.row) - gi * tile,
                static_cast<int>(e.col)) = e.value;
      } else {
        cols.At(static_cast<int>(e.row),
                static_cast<int>(e.col) - gk * tile) = e.value;
      }
    }
    const Matrix block = SerialMultiply(rows, cols);
    out.reserve(static_cast<std::size_t>(tile) * tile);
    for (int bi = 0; bi < tile; ++bi) {
      for (int bk = 0; bk < tile; ++bk) {
        out.push_back(Cell{static_cast<std::uint32_t>(gi * tile + bi),
                           static_cast<std::uint32_t>(gk * tile + bk),
                           block.At(bi, bk)});
      }
    }
  };

  // The map is Section 6.2's schema: key = row-group * groups + col-group,
  // r = n/s replication onto (n/s)^2 tile reducers of q = 2sn inputs each,
  // s*s product cells out of each.
  engine::Plan plan;
  auto cells =
      plan.Source(FlattenInputs(r, s), "matrix elements")
          .MapBySchema<std::uint32_t>(
              std::make_shared<OnePhaseSchema>(*OnePhaseSchema::Make(n, tile)),
              ElementInputId(n), "one-phase tiles",
              static_cast<double>(tile) * tile)
          .ReduceByKey<Cell>(reduce_fn);
  return OnePhasePlan{std::move(plan), std::move(cells)};
}

common::Result<OnePhaseResult> MultiplyOnePhase(
    const Matrix& r, const Matrix& s, int tile,
    const engine::JobOptions& options) {
  auto plan = BuildMultiplyOnePhasePlan(r, s, tile);
  if (!plan.ok()) return plan.status();
  auto run = plan->cells.Execute(engine::ExecutionOptions(options));

  const int n = r.rows();
  OnePhaseResult result{Matrix(n, n), std::move(run.metrics.rounds[0])};
  for (const Cell& c : run.outputs) {
    result.product.At(static_cast<int>(c.i), static_cast<int>(c.k)) = c.value;
  }
  return result;
}

common::Result<TwoPhasePlan> BuildMultiplyTwoPhasePlan(const Matrix& r,
                                                       const Matrix& s,
                                                       int s_rows, int t_js) {
  const int n = r.rows();
  if (r.cols() != n || s.rows() != n || s.cols() != n) {
    return common::Status::InvalidArgument(
        "MultiplyTwoPhase: matrices must be square and congruent");
  }
  if (s_rows < 1 || n % s_rows != 0 || t_js < 1 || n % t_js != 0) {
    return common::Status::InvalidArgument(
        "MultiplyTwoPhase: s and t must divide n");
  }
  const std::uint32_t i_groups = static_cast<std::uint32_t>(n / s_rows);
  const std::uint32_t j_groups = static_cast<std::uint32_t>(n / t_js);

  // ---- Round 1: the Figure 5 cube schema, key = (I-group, K-group,
  // J-group) flattened.
  auto reduce1 = [i_groups, j_groups, s_rows, t_js](
                     const std::uint64_t& key,
                     engine::GroupView<Element> elems,
                     std::vector<Cell>& out) {
    const std::uint32_t gj = static_cast<std::uint32_t>(key % j_groups);
    const std::uint64_t ik = key / j_groups;
    const std::uint32_t gk = static_cast<std::uint32_t>(ik % i_groups);
    const std::uint32_t gi = static_cast<std::uint32_t>(ik / i_groups);
    // Local blocks: s x t slab of R, t x s slab of S.
    Matrix rblock(s_rows, t_js);
    Matrix sblock(t_js, s_rows);
    for (const Element& e : elems) {
      if (e.matrix == 0) {
        rblock.At(static_cast<int>(e.row) - gi * s_rows,
                  static_cast<int>(e.col) - gj * t_js) = e.value;
      } else {
        sblock.At(static_cast<int>(e.row) - gj * t_js,
                  static_cast<int>(e.col) - gk * s_rows) = e.value;
      }
    }
    const Matrix partial = SerialMultiply(rblock, sblock);
    for (int bi = 0; bi < s_rows; ++bi) {
      for (int bk = 0; bk < s_rows; ++bk) {
        out.push_back(Cell{static_cast<std::uint32_t>(gi * s_rows + bi),
                           static_cast<std::uint32_t>(gk * s_rows + bk),
                           partial.At(bi, bk)});
      }
    }
  };

  // ---- Round 2: group partial sums by (i, k) and add (embarrassingly
  // parallel; Sec. 6.3).
  using Keyed = std::pair<std::uint64_t, double>;
  auto map2 = [n](const Cell& c,
                  engine::Emitter<std::uint64_t, double>& emitter) {
    emitter.Emit(static_cast<std::uint64_t>(c.i) * n + c.k, c.value);
  };
  auto reduce2 = [](const std::uint64_t& key,
                    engine::GroupView<double> partials,
                    std::vector<Keyed>& out) {
    double total = 0.0;
    for (double p : partials) total += p;
    out.emplace_back(key, total);
  };

  // Round 2: one pair per partial sum onto n^2 cell reducers, q = n/t.
  engine::StageEstimate estimate2;
  estimate2.replication = 1.0;
  estimate2.num_reducers = static_cast<double>(n) * n;
  estimate2.outputs_per_reducer = 1.0;

  // Round 1 of Section 6.3: every element fans to n/s cubes, of
  // (n/s)^2 * (n/t) total, q = 2st each, s*s partial sums out.
  engine::Plan plan;
  auto partials =
      plan.Source(FlattenInputs(r, s), "matrix elements")
          .MapBySchema<std::uint64_t>(
              std::make_shared<TwoPhaseCubeSchema>(
                  *TwoPhaseCubeSchema::Make(n, s_rows, t_js)),
              ElementInputId(n), "two-phase cubes",
              static_cast<double>(s_rows) * s_rows)
          .ReduceByKey<Cell>(reduce1);
  // Round 2 reads the partial sums round 1 materialized, and is priced on
  // them (Sec. 6.3).
  auto sums = partials.Map<std::uint64_t, double>(map2, "partial-sum add")
                  .WithEstimate(estimate2)
                  .ReduceByKey<Keyed>(reduce2);
  return TwoPhasePlan{std::move(plan), std::move(sums)};
}

common::Result<TwoPhaseResult> MultiplyTwoPhase(
    const Matrix& r, const Matrix& s, int s_rows, int t_js,
    const engine::JobOptions& options) {
  auto plan = BuildMultiplyTwoPhasePlan(r, s, s_rows, t_js);
  if (!plan.ok()) return plan.status();
  auto run = plan->sums.Execute(engine::ExecutionOptions(options));

  const int n = r.rows();
  TwoPhaseResult result{Matrix(n, n), std::move(run.metrics)};
  for (const auto& [key, value] : run.outputs) {
    result.product.At(static_cast<int>(key / n), static_cast<int>(key % n)) =
        value;
  }
  return result;
}

std::pair<int, int> OptimalTwoPhaseTiles(int n, double q) {
  // Ideal: s = sqrt(q), t = sqrt(q)/2. Snap each down to a divisor of n.
  auto snap_divisor = [n](double target) {
    int best = 1;
    for (int d = 1; d <= n; ++d) {
      if (n % d == 0 && d <= target) best = d;
    }
    return best;
  };
  const int s = snap_divisor(std::sqrt(q));
  const int t = snap_divisor(std::sqrt(q) / 2.0);
  return {s, std::max(1, t)};
}

}  // namespace mrcost::matmul
