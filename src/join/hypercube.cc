#include "src/join/hypercube.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/random.h"
#include "src/join/serial_join.h"

namespace mrcost::join {
namespace {

/// Deterministic per-attribute hash of a value into its share count.
int ValueBucket(Value v, int attribute, int share, std::uint64_t seed) {
  const std::uint64_t mixed = common::Mix64(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) *
          0x100000001ULL +
      static_cast<std::uint64_t>(attribute) + seed * 0x9e3779b97f4a7c15ULL);
  return static_cast<int>(mixed % static_cast<std::uint64_t>(share));
}

}  // namespace

namespace internal {

common::Status CheckHyperCubeArgs(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares) {
  if (relations.size() != static_cast<std::size_t>(query.num_atoms())) {
    return common::Status::InvalidArgument(
        "HyperCube: relations must align with atoms");
  }
  if (shares.size() != static_cast<std::size_t>(query.num_attributes())) {
    return common::Status::InvalidArgument(
        "HyperCube: shares must align with attributes");
  }
  for (int s : shares) {
    if (s < 1) {
      return common::Status::InvalidArgument(
          "HyperCube: shares must be >= 1");
    }
  }
  for (int e = 0; e < query.num_atoms(); ++e) {
    if (relations[e]->arity() !=
        static_cast<int>(query.atoms()[e].attributes.size())) {
      return common::Status::InvalidArgument(
          "HyperCube: relation arity mismatch for atom " +
          query.atoms()[e].relation);
    }
  }
  return common::Status::Ok();
}

void ForEachHyperCubeCell(const Query& query, const std::vector<int>& shares,
                          int atom_idx, const Tuple& tuple,
                          std::uint64_t seed,
                          const std::function<void(std::uint64_t)>& fn) {
  const int num_attrs = query.num_attributes();
  const Atom& atom = query.atoms()[atom_idx];
  std::vector<int> coord(num_attrs, -1);
  for (int pos = 0; pos < static_cast<int>(atom.attributes.size()); ++pos) {
    const int a = atom.attributes[pos];
    coord[a] = ValueBucket(tuple[pos], a, shares[a], seed);
  }
  std::vector<int> free_attrs;
  for (int a = 0; a < num_attrs; ++a) {
    if (coord[a] < 0) free_attrs.push_back(a);
  }
  auto cell_id = [&]() {
    std::uint64_t id = 0;
    for (int a = 0; a < num_attrs; ++a) {
      id = id * static_cast<std::uint64_t>(shares[a]) +
           static_cast<std::uint64_t>(coord[a]);
    }
    return id;
  };
  // Odometer over the free attributes' coordinates.
  std::vector<int> cursor(free_attrs.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < free_attrs.size(); ++i) {
      coord[free_attrs[i]] = cursor[i];
    }
    fn(cell_id());
    std::size_t i = 0;
    for (; i < free_attrs.size(); ++i) {
      if (++cursor[i] < shares[free_attrs[i]]) break;
      cursor[i] = 0;
    }
    if (i == free_attrs.size()) break;
  }
}

engine::StageEstimate HyperCubeStageEstimate(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares) {
  double cells = 1;
  for (int s : shares) cells *= static_cast<double>(s);
  double tuples = 0;
  double weighted_fanout = 0;
  for (int e = 0; e < query.num_atoms(); ++e) {
    double bound = 1;
    for (int a : query.atoms()[e].attributes) {
      bound *= static_cast<double>(shares[a]);
    }
    const double size = static_cast<double>(relations[e]->size());
    tuples += size;
    weighted_fanout += size * (cells / bound);
  }
  engine::StageEstimate estimate;
  estimate.replication = tuples > 0 ? weighted_fanout / tuples : 0;
  estimate.num_reducers = cells;
  return estimate;
}

}  // namespace internal

common::Result<MultiwayJoinPlan> BuildHyperCubeJoinPlan(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, std::uint64_t seed) {
  if (auto status = internal::CheckHyperCubeArgs(query, relations, shares);
      !status.ok()) {
    return status;
  }
  const int num_atoms = query.num_atoms();

  using Input = std::pair<int, Tuple>;
  std::vector<Input> inputs;
  for (int e = 0; e < num_atoms; ++e) {
    for (const Tuple& t : relations[e]->tuples()) inputs.emplace_back(e, t);
  }

  // A tuple is replicated to every cell matching its atom's shares, so the
  // fan-out is batched through a reused thread-local buffer. The closures
  // outlive this function (the plan is lazy): query/shares/seed are
  // captured by value, the relation pointers must stay valid until
  // Execute.
  auto map_fn = [query, shares, seed](
                    const Input& input,
                    engine::Emitter<std::uint64_t, Input>& emitter) {
    static thread_local engine::Emitter<std::uint64_t, Input>::Batch batch;
    internal::ForEachHyperCubeCell(
        query, shares, input.first, input.second, seed,
        [&](std::uint64_t cell) { batch.emplace_back(cell, input); });
    emitter.EmitBatch(batch);
  };

  auto reduce_fn = [query, relations, num_atoms](
                       const std::uint64_t& /*cell*/,
                       engine::GroupView<Input> values,
                       std::vector<Tuple>& out) {
    // Rebuild per-atom fragments and run the serial join on them.
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
    fragment_ptrs.reserve(num_atoms);
    for (const Relation& r : fragments) fragment_ptrs.push_back(&r);
    out = SerialMultiwayJoin(query, fragment_ptrs);
  };

  engine::Plan plan;
  auto tuples =
      plan.Source(std::move(inputs), "tagged tuples")
          .Map<std::uint64_t, Input>(map_fn, "hypercube cells")
          .WithEstimate(
              internal::HyperCubeStageEstimate(query, relations, shares))
          .ReduceByKey<Tuple>(reduce_fn);
  return MultiwayJoinPlan{std::move(plan), std::move(tuples)};
}

common::Result<MultiwayJoinResult> HyperCubeJoin(
    const Query& query, const std::vector<const Relation*>& relations,
    const std::vector<int>& shares, std::uint64_t seed,
    const engine::JobOptions& options) {
  auto plan = BuildHyperCubeJoinPlan(query, relations, shares, seed);
  if (!plan.ok()) return plan.status();
  auto run = plan->tuples.Execute(engine::ExecutionOptions(options));
  std::sort(run.outputs.begin(), run.outputs.end());
  return MultiwayJoinResult{std::move(run.outputs),
                            std::move(run.metrics.rounds[0])};
}

}  // namespace mrcost::join
