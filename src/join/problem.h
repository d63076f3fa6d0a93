#ifndef MRCOST_JOIN_PROBLEM_H_
#define MRCOST_JOIN_PROBLEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mapping_schema.h"
#include "src/core/problem.h"

namespace mrcost::join {

/// Example 2.1 as a model problem: the natural join R(A,B) |x| S(B,C) over
/// finite domains of sizes NA, NB, NC. Inputs are the NA*NB possible R
/// tuples (ids 0 .. NA*NB-1, row-major (a,b)) followed by the NB*NC
/// possible S tuples (ids NA*NB .. NA*NB+NB*NC-1, row-major (b,c)).
/// Outputs are the NA*NB*NC triples (a,b,c), each depending on R(a,b) and
/// S(b,c).
class NaturalJoinProblem final : public core::Problem {
 public:
  NaturalJoinProblem(int na, int nb, int nc);

  std::string name() const override;
  std::uint64_t num_inputs() const override {
    return static_cast<std::uint64_t>(na_) * nb_ +
           static_cast<std::uint64_t>(nb_) * nc_;
  }
  std::uint64_t num_outputs() const override {
    return static_cast<std::uint64_t>(na_) * nb_ * nc_;
  }
  std::vector<core::InputId> InputsOfOutput(
      core::OutputId output) const override;

  int na() const { return na_; }
  int nb() const { return nb_; }
  int nc() const { return nc_; }

 private:
  int na_;
  int nb_;
  int nc_;
};

/// The canonical hash-join mapping schema for NaturalJoinProblem: one
/// reducer per B-value; both R(a,b) and S(b,c) go to reducer b. This is
/// the r = 1 extreme of the join tradeoff with q = NA + NC, the schema
/// every MapReduce join tutorial teaches.
class HashJoinSchema final : public core::MappingSchema {
 public:
  explicit HashJoinSchema(const NaturalJoinProblem& problem)
      : na_(problem.na()), nb_(problem.nb()), nc_(problem.nc()) {}

  std::string name() const override { return "hash-join-by-B"; }
  std::uint64_t num_reducers() const override { return nb_; }
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

 private:
  int na_;
  int nb_;
  int nc_;
};

/// Example 2.4 as a model problem: SELECT A, SUM(B) FROM R GROUP BY A
/// over domains of sizes NA and NB. Inputs are the NA*NB possible tuples
/// (a,b) (row-major); outputs are the NA sums, each depending on all NB
/// tuples with its A-value.
class GroupByProblem final : public core::Problem {
 public:
  GroupByProblem(int na, int nb);

  std::string name() const override;
  std::uint64_t num_inputs() const override {
    return static_cast<std::uint64_t>(na_) * nb_;
  }
  std::uint64_t num_outputs() const override { return na_; }
  std::vector<core::InputId> InputsOfOutput(
      core::OutputId output) const override;

 private:
  int na_;
  int nb_;
};

/// The canonical group-by schema: one reducer per A-value, r = 1, q = NB.
/// Like word count (Example 2.5), the problem is embarrassingly parallel:
/// there is no replication/parallelism tradeoff at all.
class GroupBySchema final : public core::MappingSchema {
 public:
  explicit GroupBySchema(const GroupByProblem& problem, int nb)
      : nb_(nb), num_groups_(problem.num_outputs()) {}

  std::string name() const override { return "group-by-A"; }
  std::uint64_t num_reducers() const override { return num_groups_; }
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override {
    sink(input / nb_);
  }

 private:
  int nb_;
  std::uint64_t num_groups_;
};

}  // namespace mrcost::join

#endif  // MRCOST_JOIN_PROBLEM_H_
