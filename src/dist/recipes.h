#ifndef MRCOST_DIST_RECIPES_H_
#define MRCOST_DIST_RECIPES_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"
#include "src/engine/plan.h"

namespace mrcost::dist {

class PlanRegistry;

/// Registers the built-in recipes (one per algorithm family plus the bench
/// shuffle sweep) into `registry`. Called once by PlanRegistry::Global().
///
/// Built-ins (args are "k=v,k=v" with the defaults shown):
///   hamming_splitting  b=12,k=3,d=1        Splitting-schema similarity join
///                                          over all 2^b strings
///   hamming_ball       b=10,d=1            Ball-2 schema over all 2^b strings
///   join_triangle      tuples=2000,domain=64,exponent=0.4,share=2,seed=7
///                                          HyperCube triangle (cycle-3) join
///                                          over Zipf relations
///   matmul_one_phase   n=64,tile=16,seed=11    Section 6.2 tiled multiply
///   matmul_two_phase   n=64,s_rows=16,t_js=16,seed=11
///                                          Section 6.3 two-round multiply
///   graph_sample       nodes=400,edges=3000,k=8,seed=5
///                                          triangle enumeration over G(n, m)
///   quickstart         (alias of hamming_splitting)
///   shuffle_sweep      pairs=100000,keys=4096,seed=1,combine=0
///                                          synthetic sum-by-key shuffle used
///                                          by bench_distd; combine=1 sums
///                                          map-side first
///   word_count         words=5000,vocab=300,seed=3
///                                          Example 2.5 word count: string
///                                          keys
void RegisterBuiltinRecipes(PlanRegistry& registry);

/// "k=v,k=v" argument strings with typed defaulting accessors.
/// Unknown keys are kept (and ignored by readers) so recipes can grow
/// arguments without breaking old strings.
class ArgMap {
 public:
  /// kInvalidArgument on a segment without '='.
  static common::Result<ArgMap> Parse(const std::string& args);

  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mrcost::dist

#endif  // MRCOST_DIST_RECIPES_H_
