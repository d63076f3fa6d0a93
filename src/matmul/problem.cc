#include "src/matmul/problem.h"

#include <cmath>
#include <sstream>

namespace mrcost::matmul {

MatMulProblem::MatMulProblem(int n) : n_(n) { MRCOST_CHECK(n >= 1); }

std::string MatMulProblem::name() const {
  std::ostringstream os;
  os << "matmul (n=" << n_ << ")";
  return os.str();
}

std::vector<core::InputId> MatMulProblem::InputsOfOutput(
    core::OutputId output) const {
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  const std::uint64_t i = output / n;
  const std::uint64_t k = output % n;
  std::vector<core::InputId> deps;
  deps.reserve(2 * n_);
  for (std::uint64_t j = 0; j < n; ++j) {
    deps.push_back(i * n + j);          // r_ij
    deps.push_back(n * n + j * n + k);  // s_jk
  }
  return deps;
}

common::Result<OnePhaseSchema> OnePhaseSchema::Make(int n, int s) {
  if (n < 1 || s < 1 || n % s != 0) {
    std::ostringstream os;
    os << "OnePhaseSchema: s=" << s << " must divide n=" << n;
    return common::Status::InvalidArgument(os.str());
  }
  return OnePhaseSchema(n, s);
}

std::string OnePhaseSchema::name() const {
  std::ostringstream os;
  os << "matmul-1phase(s=" << s_ << ")";
  return os.str();
}

std::uint64_t OnePhaseSchema::num_reducers() const {
  const std::uint64_t groups = n_ / s_;
  return groups * groups;
}

double OnePhaseSchema::replication() const {
  return static_cast<double>(n_ / s_);
}

void OnePhaseSchema::ForEachReducer(core::InputId input,
                                    const ReducerSink& sink) const {
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  const std::uint64_t groups = n / s_;
  if (input < n * n) {
    const std::uint64_t i = input / n;  // r_ij: fixed row group, all column
    const std::uint64_t gi = i / s_;    // groups
    for (std::uint64_t gk = 0; gk < groups; ++gk) sink(gi * groups + gk);
  } else {
    const std::uint64_t k = (input - n * n) % n;  // s_jk: fixed column group
    const std::uint64_t gk = k / s_;
    for (std::uint64_t gi = 0; gi < groups; ++gi) sink(gi * groups + gk);
  }
}

MatMulPhase1Problem::MatMulPhase1Problem(int n) : n_(n) {
  MRCOST_CHECK(n >= 1);
}

std::string MatMulPhase1Problem::name() const {
  std::ostringstream os;
  os << "matmul-phase1 (n=" << n_ << ")";
  return os.str();
}

std::vector<core::InputId> MatMulPhase1Problem::InputsOfOutput(
    core::OutputId output) const {
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  const std::uint64_t k = output % n;
  const std::uint64_t ij = output / n;
  const std::uint64_t j = ij % n;
  const std::uint64_t i = ij / n;
  // x_ijk = r_ij * s_jk.
  return {i * n + j, n * n + j * n + k};
}

common::Result<TwoPhaseCubeSchema> TwoPhaseCubeSchema::Make(int n, int s,
                                                            int t) {
  if (n < 1 || s < 1 || t < 1 || n % s != 0 || n % t != 0) {
    return common::Status::InvalidArgument(
        "TwoPhaseCubeSchema: s and t must divide n");
  }
  return TwoPhaseCubeSchema(n, s, t);
}

std::string TwoPhaseCubeSchema::name() const {
  std::ostringstream os;
  os << "matmul-2phase-cube(s=" << s_ << ",t=" << t_ << ")";
  return os.str();
}

std::uint64_t TwoPhaseCubeSchema::num_reducers() const {
  const std::uint64_t i_groups = n_ / s_;
  const std::uint64_t j_groups = n_ / t_;
  return i_groups * i_groups * j_groups;
}

double TwoPhaseCubeSchema::replication() const {
  return static_cast<double>(n_ / s_);
}

void TwoPhaseCubeSchema::ForEachReducer(core::InputId input,
                                        const ReducerSink& sink) const {
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  const std::uint64_t i_groups = n / s_;
  const std::uint64_t j_groups = n / t_;
  auto cell = [&](std::uint64_t gi, std::uint64_t gk, std::uint64_t gj) {
    return (gi * i_groups + gk) * j_groups + gj;
  };
  if (input < n * n) {
    // r_ij: fixed I-group and J-group; all K-groups (Fig. 5).
    const std::uint64_t gi = (input / n) / s_;
    const std::uint64_t gj = (input % n) / t_;
    for (std::uint64_t gk = 0; gk < i_groups; ++gk) sink(cell(gi, gk, gj));
  } else {
    // s_jk: fixed J-group and K-group; all I-groups.
    const std::uint64_t local = input - n * n;
    const std::uint64_t gj = (local / n) / t_;
    const std::uint64_t gk = (local % n) / s_;
    for (std::uint64_t gi = 0; gi < i_groups; ++gi) sink(cell(gi, gk, gj));
  }
}

core::Recipe MatMulRecipe(int n) {
  core::Recipe recipe;
  recipe.problem_name = "matmul";
  const double nn = static_cast<double>(n) * n;
  recipe.g = [nn](double q) { return q * q / (4.0 * nn); };
  recipe.num_inputs = 2.0 * nn;
  recipe.num_outputs = nn;
  return recipe;
}

double MatMulLowerBound(int n, double q) {
  return 2.0 * static_cast<double>(n) * n / q;
}

double OnePhaseCommunication(int n, double q) {
  const double nd = static_cast<double>(n);
  return 4.0 * nd * nd * nd * nd / q;
}

double TwoPhaseCommunication(int n, double q) {
  const double nd = static_cast<double>(n);
  return 4.0 * nd * nd * nd / std::sqrt(q);
}

}  // namespace mrcost::matmul
