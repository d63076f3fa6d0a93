#ifndef MRCOST_CORE_COST_MODEL_H_
#define MRCOST_CORE_COST_MODEL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace mrcost::core {

/// The execution-cost model of Section 1.2 / Example 1.1: once the tradeoff
/// curve r = f(q) of a problem is known, the cost of running on a concrete
/// cluster is
///     cost(q) = a * f(q) + b * q + c * q^2
/// where `a` prices communication (proportional to r), `b` prices total
/// processing for reducers with linear work, and `c` adds a wall-clock term
/// for reducers that compare all pairs of inputs (O(q^2) work per reducer).
struct CostModel {
  double communication_weight = 1.0;  // a
  double processing_weight = 0.0;     // b
  double wallclock_weight = 0.0;      // c

  double Cost(double r, double q) const {
    return communication_weight * r + processing_weight * q +
           wallclock_weight * q * q;
  }
};

/// One point on a tradeoff curve: an algorithm (or bound) achieving
/// replication rate `r` at reducer size `q`.
struct TradeoffPoint {
  double q = 0;
  double r = 0;
  std::string label;
};

/// Returns the point of `curve` minimizing model.Cost; ties broken toward
/// smaller q (more parallelism at equal cost). Precondition: !curve.empty().
TradeoffPoint PickCheapest(const std::vector<TradeoffPoint>& curve,
                           const CostModel& model);

/// Minimizes a unimodal function over [lo, hi] by golden-section search,
/// for continuous cost curves cost(q) = a*f(q) + b*q (+ c*q^2).
/// Returns the minimizing q (within `tol` relative tolerance).
double GoldenSectionMinimize(const std::function<double(double)>& f,
                             double lo, double hi, double tol = 1e-9);

/// Section 1.2 end to end: treats the lower-bound curve r(q) of a recipe
/// as the achievable tradeoff (exact for problems with matching
/// algorithms, e.g. Hamming-1 and matmul) and returns the q in
/// [q_lo, q_hi] minimizing model.Cost(r(q), q). The bound is clamped at
/// the trivial r >= 1.
double OptimalQOnCurve(const struct Recipe& recipe, const CostModel& model,
                       double q_lo, double q_hi);

}  // namespace mrcost::core

#endif  // MRCOST_CORE_COST_MODEL_H_
