#ifndef MRCOST_CORE_MAPPING_SCHEMA_H_
#define MRCOST_CORE_MAPPING_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/problem.h"

namespace mrcost::core {

/// A mapping schema (Section 2.2): an assignment of each input to a set of
/// reducers. A valid schema for reducer-size limit q must (1) assign at most
/// q inputs to every reducer and (2) cover every output — some reducer
/// receives all of the output's inputs. Validation is performed by
/// ValidateSchema in schema_validator.h.
///
/// Implementations are deterministic pure functions of the input id, which
/// is exactly the paper's independence assumption for mappers (Section 2.3).
///
/// The same object is what runs: engine::Dataset::MapBySchema turns a schema
/// into a round's map function and estimate, so the assignment the validator
/// proves is the one the engine shuffles.
class MappingSchema {
 public:
  /// Receives one reducer id per call. A lambda capturing up to two
  /// references fits std::function's small buffer, so passing one per input
  /// allocates nothing.
  using ReducerSink = std::function<void(ReducerId)>;

  virtual ~MappingSchema() = default;

  virtual std::string name() const = 0;

  /// Total number of reducers used by the schema; reducer ids are
  /// 0..num_reducers()-1.
  virtual std::uint64_t num_reducers() const = 0;

  /// Calls `sink` with each reducer to which `input` is sent, in the
  /// schema's order. The number of calls summed over all inputs, divided by
  /// |I|, is the schema's replication rate.
  virtual void ForEachReducer(InputId input, const ReducerSink& sink) const = 0;

  /// The number of reducers every input is sent to, when the schema sends
  /// each input to the same number — r is then known before any input is
  /// seen. 0 = not declared: a plan round samples its map instead.
  virtual double replication() const { return 0; }

  /// ForEachReducer collected into a list.
  std::vector<ReducerId> ReducersOfInput(InputId input) const {
    std::vector<ReducerId> reducers;
    ForEachReducer(input, [&reducers](ReducerId r) { reducers.push_back(r); });
    return reducers;
  }
};

/// A schema given by explicit per-input lists, for tests.
class ExplicitSchema final : public MappingSchema {
 public:
  ExplicitSchema(std::string name, std::uint64_t num_reducers,
                 std::vector<std::vector<ReducerId>> assignment)
      : name_(std::move(name)),
        num_reducers_(num_reducers),
        assignment_(std::move(assignment)) {}

  std::string name() const override { return name_; }
  std::uint64_t num_reducers() const override { return num_reducers_; }
  void ForEachReducer(InputId input, const ReducerSink& sink) const override {
    for (ReducerId r : assignment_[input]) sink(r);
  }

 private:
  std::string name_;
  std::uint64_t num_reducers_;
  std::vector<std::vector<ReducerId>> assignment_;
};

}  // namespace mrcost::core

#endif  // MRCOST_CORE_MAPPING_SCHEMA_H_
