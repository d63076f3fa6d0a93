#include "src/join/problem.h"

#include <sstream>

#include "src/common/status.h"

namespace mrcost::join {

NaturalJoinProblem::NaturalJoinProblem(int na, int nb, int nc)
    : na_(na), nb_(nb), nc_(nc) {
  MRCOST_CHECK(na >= 1 && nb >= 1 && nc >= 1);
}

std::string NaturalJoinProblem::name() const {
  std::ostringstream os;
  os << "natural-join R(A,B)|x|S(B,C) (" << na_ << "x" << nb_ << "x" << nc_
     << ")";
  return os.str();
}

std::vector<core::InputId> NaturalJoinProblem::InputsOfOutput(
    core::OutputId output) const {
  // output = ((a * NB) + b) * NC + c.
  const std::uint64_t c = output % nc_;
  const std::uint64_t ab = output / nc_;
  const std::uint64_t b = ab % nb_;
  const std::uint64_t a = ab / nb_;
  const core::InputId r_tuple = a * nb_ + b;
  const core::InputId s_tuple =
      static_cast<std::uint64_t>(na_) * nb_ + b * nc_ + c;
  return {r_tuple, s_tuple};
}

void HashJoinSchema::ForEachReducer(core::InputId input,
                                    const ReducerSink& sink) const {
  const std::uint64_t r_count = static_cast<std::uint64_t>(na_) * nb_;
  if (input < r_count) {
    sink(input % nb_);  // R(a,b) -> reducer b
  } else {
    sink((input - r_count) / nc_);  // S(b,c) -> reducer b
  }
}

GroupByProblem::GroupByProblem(int na, int nb) : na_(na), nb_(nb) {
  MRCOST_CHECK(na >= 1 && nb >= 1);
}

std::string GroupByProblem::name() const {
  std::ostringstream os;
  os << "group-by-sum (" << na_ << " groups x " << nb_ << " values)";
  return os.str();
}

std::vector<core::InputId> GroupByProblem::InputsOfOutput(
    core::OutputId output) const {
  std::vector<core::InputId> deps;
  deps.reserve(nb_);
  for (int b = 0; b < nb_; ++b) {
    deps.push_back(output * nb_ + b);
  }
  return deps;
}

}  // namespace mrcost::join
