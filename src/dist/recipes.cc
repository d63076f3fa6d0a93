#include "src/dist/recipes.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/dist/registry.h"
#include "src/graph/generators.h"
#include "src/graph/sample_graph_mr.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"

namespace mrcost::dist {

common::Result<ArgMap> ArgMap::Parse(const std::string& args) {
  ArgMap map;
  std::size_t start = 0;
  while (start < args.size()) {
    std::size_t end = args.find(',', start);
    if (end == std::string::npos) end = args.size();
    if (end > start) {
      const std::string segment = args.substr(start, end - start);
      const std::size_t eq = segment.find('=');
      if (eq == std::string::npos) {
        return common::Status::InvalidArgument(
            "dist: recipe argument '" + segment + "' is not k=v");
      }
      map.values_[segment.substr(0, eq)] = segment.substr(eq + 1);
    }
    start = end + 1;
  }
  return map;
}

std::int64_t ArgMap::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoll(it->second.c_str(), nullptr, 10);
}

double ArgMap::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

std::string ArgMap::GetString(const std::string& key,
                              const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Recipe factories stamp the rebuild identity onto the graph so
/// ExecutePlanGraphMulti can tell workers how to reconstruct this exact
/// plan.
void Stamp(engine::Plan& plan, const std::string& recipe,
           const std::string& args) {
  plan.graph()->dist_recipe = recipe;
  plan.graph()->dist_args = args;
}

common::Result<engine::Plan> BuildHammingSplitting(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const int b = static_cast<int>(parsed->GetInt("b", 12));
  const int k = static_cast<int>(parsed->GetInt("k", 3));
  const int d = static_cast<int>(parsed->GetInt("d", 1));
  auto built = hamming::BuildSplittingSimilarityJoinPlan(
      hamming::AllStrings(b), b, k, d);
  if (!built.ok()) return built.status();
  engine::Plan plan = built->plan;
  Stamp(plan, "hamming_splitting", args);
  return plan;
}

common::Result<engine::Plan> BuildHammingBall(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const int b = static_cast<int>(parsed->GetInt("b", 10));
  const int d = static_cast<int>(parsed->GetInt("d", 1));
  auto built =
      hamming::BuildBallSimilarityJoinPlan(hamming::AllStrings(b), b, d);
  if (!built.ok()) return built.status();
  engine::Plan plan = built->plan;
  Stamp(plan, "hamming_ball", args);
  return plan;
}

/// HyperCube plans hold raw pointers into their relations, which must
/// outlive every Execute (src/join/hypercube.h). In-process callers keep
/// them on the stack; recipe-built plans escape the factory, so the
/// relations live in a process-lifetime cache keyed by the args string —
/// the same (recipe, args) always reads the same vectors.
const std::vector<join::Relation>& CachedTriangleRelations(
    const std::string& args, const join::Query& query,
    std::uint64_t tuples, join::Value domain, double exponent,
    std::uint64_t seed) {
  static std::mutex mu;
  static auto* cache =
      new std::map<std::string, std::vector<join::Relation>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(args);
  if (it == cache->end()) {
    it = cache
             ->emplace(args, join::ZipfRelationsForQuery(
                                 query, tuples, domain, exponent, seed))
             .first;
  }
  return it->second;
}

common::Result<engine::Plan> BuildJoinTriangle(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const auto tuples =
      static_cast<std::uint64_t>(parsed->GetInt("tuples", 2000));
  const auto domain =
      static_cast<join::Value>(parsed->GetInt("domain", 64));
  const double exponent = parsed->GetDouble("exponent", 0.4);
  const int share = static_cast<int>(parsed->GetInt("share", 2));
  const auto seed = static_cast<std::uint64_t>(parsed->GetInt("seed", 7));

  const join::Query query = join::CycleQuery(3);
  const std::vector<join::Relation>& relations = CachedTriangleRelations(
      args, query, tuples, domain, exponent, seed);
  std::vector<const join::Relation*> ptrs;
  ptrs.reserve(relations.size());
  for (const auto& r : relations) ptrs.push_back(&r);
  const std::vector<int> shares(query.num_attributes(), share);
  auto built = join::BuildHyperCubeJoinPlan(query, ptrs, shares, seed);
  if (!built.ok()) return built.status();
  engine::Plan plan = built->plan;
  Stamp(plan, "join_triangle", args);
  return plan;
}

/// Same lifetime story as the join relations: one-phase matmul closures
/// capture tile coordinates but the builder reads the matrices up front,
/// while two-phase reads them lazily per round — cache both to be safe.
const std::pair<matmul::Matrix, matmul::Matrix>& CachedMatrices(
    const std::string& args, int n, std::uint64_t seed) {
  static std::mutex mu;
  static auto* cache = new std::map<
      std::string, std::pair<matmul::Matrix, matmul::Matrix>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(args);
  if (it == cache->end()) {
    matmul::Matrix r(n, n);
    matmul::Matrix s(n, n);
    common::SplitMix64 rng(seed);
    r.FillRandom(rng);
    s.FillRandom(rng);
    it = cache->emplace(args, std::make_pair(std::move(r), std::move(s)))
             .first;
  }
  return it->second;
}

common::Result<engine::Plan> BuildMatmulOnePhase(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const int n = static_cast<int>(parsed->GetInt("n", 64));
  const int tile = static_cast<int>(parsed->GetInt("tile", 16));
  const auto seed = static_cast<std::uint64_t>(parsed->GetInt("seed", 11));
  const auto& [r, s] = CachedMatrices(args, n, seed);
  auto built = matmul::BuildMultiplyOnePhasePlan(r, s, tile);
  if (!built.ok()) return built.status();
  engine::Plan plan = built->plan;
  Stamp(plan, "matmul_one_phase", args);
  return plan;
}

common::Result<engine::Plan> BuildMatmulTwoPhase(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const int n = static_cast<int>(parsed->GetInt("n", 64));
  const int s_rows = static_cast<int>(parsed->GetInt("s_rows", 16));
  const int t_js = static_cast<int>(parsed->GetInt("t_js", 16));
  const auto seed = static_cast<std::uint64_t>(parsed->GetInt("seed", 11));
  const auto& [r, s] = CachedMatrices(args, n, seed);
  auto built = matmul::BuildMultiplyTwoPhasePlan(r, s, s_rows, t_js);
  if (!built.ok()) return built.status();
  engine::Plan plan = built->plan;
  Stamp(plan, "matmul_two_phase", args);
  return plan;
}

common::Result<engine::Plan> BuildGraphSample(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const auto nodes =
      static_cast<graph::NodeId>(parsed->GetInt("nodes", 400));
  const auto edges =
      static_cast<std::uint64_t>(parsed->GetInt("edges", 3000));
  const int k = static_cast<int>(parsed->GetInt("k", 8));
  const auto seed = static_cast<std::uint64_t>(parsed->GetInt("seed", 5));
  const graph::Graph data = graph::RandomGnm(nodes, edges, seed);
  const graph::Graph pattern = graph::CycleGraph(3);  // the triangle
  graph::SampleGraphPlan built =
      graph::BuildSampleGraphPlan(data, pattern, k, seed + 1);
  engine::Plan plan = built.plan;
  Stamp(plan, "graph_sample", args);
  return plan;
}

/// The bench/CI workhorse: `pairs` mixed u64 rows summed into `keys`
/// groups. Pure engine-level shuffle with no family math on top, so
/// bench_distd measures transport and merge, not reduce CPU. `combine=1`
/// sums map-side first (the word-count shape).
common::Result<engine::Plan> BuildShuffleSweep(const std::string& args) {
  auto parsed = ArgMap::Parse(args);
  if (!parsed.ok()) return parsed.status();
  const auto pairs =
      static_cast<std::uint64_t>(parsed->GetInt("pairs", 100000));
  const auto keys =
      static_cast<std::uint64_t>(parsed->GetInt("keys", 4096));
  const auto seed = static_cast<std::uint64_t>(parsed->GetInt("seed", 1));
  const bool combine = parsed->GetInt("combine", 0) != 0;

  std::vector<std::uint64_t> rows(pairs);
  std::iota(rows.begin(), rows.end(), seed);
  engine::Plan plan;
  auto source = plan.Source(std::move(rows), "shuffle-sweep-source");
  const std::uint64_t num_keys = keys == 0 ? 1 : keys;
  auto keyed = source.Map<std::uint64_t, std::uint64_t>(
      [num_keys](const std::uint64_t& row,
                 engine::Emitter<std::uint64_t, std::uint64_t>& emit) {
        // SplitMix64 finalizer as the key mix: spreads sequential rows
        // uniformly over the key space.
        std::uint64_t h = row;
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebULL;
        h ^= h >> 31;
        emit.Emit(h % num_keys, row);
      },
      "shuffle-sweep");
  if (combine) {
    keyed = keyed.CombineByKey(
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }
  keyed.ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
      [](const std::uint64_t& key, engine::GroupView<std::uint64_t> vs,
         std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : vs) sum += v;
        out.push_back({key, sum});
      });
  Stamp(plan, "shuffle_sweep", args);
  return plan;
}

}  // namespace

void RegisterBuiltinRecipes(PlanRegistry& registry) {
  registry.Register("hamming_splitting", BuildHammingSplitting);
  registry.Register("hamming_ball", BuildHammingBall);
  registry.Register("join_triangle", BuildJoinTriangle);
  registry.Register("matmul_one_phase", BuildMatmulOnePhase);
  registry.Register("matmul_two_phase", BuildMatmulTwoPhase);
  registry.Register("graph_sample", BuildGraphSample);
  registry.Register("quickstart", BuildHammingSplitting);
  registry.Register("shuffle_sweep", BuildShuffleSweep);
}

}  // namespace mrcost::dist
