#include "src/join/two_round.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/join/hypercube.h"
#include "src/join/serial_join.h"

namespace mrcost::join {
namespace {

/// Round-1 output: one partial contribution to a group's sum. Without
/// pre-aggregation there is one per joined tuple; with it, one per
/// (cell, group).
struct Partial {
  Value group;
  std::int64_t sum;
};

}  // namespace

common::Result<JoinAggregatePlan> BuildHyperCubeJoinAggregatePlan(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, int group_attr, int sum_attr,
    bool pre_aggregate, std::uint64_t seed) {
  if (auto status = internal::CheckHyperCubeArgs(query, relations, shares);
      !status.ok()) {
    return status;
  }
  if (group_attr < 0 || group_attr >= query.num_attributes() ||
      sum_attr < 0 || sum_attr >= query.num_attributes()) {
    return common::Status::InvalidArgument(
        "HyperCubeJoinAggregate: attribute index out of range");
  }

  const int num_atoms = query.num_atoms();
  using Input = std::pair<int, Tuple>;
  std::vector<Input> inputs;
  for (int e = 0; e < num_atoms; ++e) {
    for (const Tuple& t : relations[e]->tuples()) inputs.emplace_back(e, t);
  }

  // ---- Round 1: HyperCube join, emitting per-group contributions. The
  // per-tuple cell fan-out is batched (see HyperCubeJoin). The closures
  // outlive this function (the plan is lazy): query/shares/seed captured
  // by value, the relation pointers must stay valid until Execute.
  auto map1 = [query, shares, seed](
                  const Input& input,
                  engine::Emitter<std::uint64_t, Input>& emitter) {
    static thread_local engine::Emitter<std::uint64_t, Input>::Batch batch;
    internal::ForEachHyperCubeCell(
        query, shares, input.first, input.second, seed,
        [&](std::uint64_t cell) { batch.emplace_back(cell, input); });
    emitter.EmitBatch(batch);
  };

  auto reduce1 = [query, relations, num_atoms, group_attr, sum_attr,
                  pre_aggregate](const std::uint64_t& /*cell*/,
                                 engine::GroupView<Input> values,
                                 std::vector<Partial>& out) {
    std::vector<Relation> fragments;
    fragments.reserve(num_atoms);
    for (int e = 0; e < num_atoms; ++e) {
      fragments.emplace_back(relations[e]->name(),
                             relations[e]->attributes());
    }
    for (const auto& [atom_idx, tuple] : values) {
      fragments[atom_idx].Add(tuple);
    }
    std::vector<const Relation*> fragment_ptrs;
    for (const Relation& r : fragments) fragment_ptrs.push_back(&r);
    const std::vector<Tuple> joined =
        SerialMultiwayJoin(query, fragment_ptrs);
    if (pre_aggregate) {
      // Collapse to one partial per group — the Section 6.3 partial-sum
      // idea (ordered map for deterministic output order).
      std::map<Value, std::int64_t> partials;
      for (const Tuple& t : joined) {
        partials[t[group_attr]] += t[sum_attr];
      }
      for (const auto& [group, sum] : partials) {
        out.push_back(Partial{group, sum});
      }
    } else {
      for (const Tuple& t : joined) {
        out.push_back(Partial{t[group_attr], t[sum_attr]});
      }
    }
  };

  // ---- Round 2: group by the grouping attribute and add.
  auto map2 = [](const Partial& p,
                 engine::Emitter<Value, std::int64_t>& emitter) {
    emitter.Emit(p.group, p.sum);
  };
  auto reduce2 = [](const Value& group,
                    engine::GroupView<std::int64_t> partials,
                    std::vector<std::pair<Value, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t p : partials) total += p;
    out.emplace_back(group, total);
  };

  engine::Plan plan;
  auto partials =
      plan.Source(std::move(inputs), "tagged tuples")
          .Map<std::uint64_t, Input>(map1, "hypercube join")
          .WithEstimate(
              internal::HyperCubeStageEstimate(query, relations, shares))
          .ReduceByKey<Partial>(reduce1);
  // Round 2 reads the partials round 1 materialized.
  auto sums = partials
                  .Map<Value, std::int64_t>(map2, pre_aggregate
                                                      ? "sum partials"
                                                      : "group and sum")
                  .ReduceByKey<std::pair<Value, std::int64_t>>(reduce2);
  return JoinAggregatePlan{std::move(plan), std::move(sums)};
}

common::Result<JoinAggregateResult> HyperCubeJoinAggregate(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, int group_attr, int sum_attr,
    bool pre_aggregate, std::uint64_t seed,
    const engine::JobOptions& options) {
  auto plan = BuildHyperCubeJoinAggregatePlan(
      query, relations, shares, group_attr, sum_attr, pre_aggregate, seed);
  if (!plan.ok()) return plan.status();
  auto run = plan->sums.Execute(engine::ExecutionOptions(options));

  JoinAggregateResult result;
  std::sort(run.outputs.begin(), run.outputs.end());
  result.sums = std::move(run.outputs);
  result.metrics = std::move(run.metrics);
  return result;
}

std::vector<std::pair<Value, std::int64_t>> SerialJoinAggregate(
    const Query& query, const std::vector<const Relation*>& relations,
    int group_attr, int sum_attr) {
  std::map<Value, std::int64_t> sums;
  for (const Tuple& t : SerialMultiwayJoin(query, relations)) {
    sums[t[group_attr]] += t[sum_attr];
  }
  return {sums.begin(), sums.end()};
}

}  // namespace mrcost::join
