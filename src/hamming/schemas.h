#ifndef MRCOST_HAMMING_SCHEMAS_H_
#define MRCOST_HAMMING_SCHEMAS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/mapping_schema.h"
#include "src/hamming/bitstring.h"

namespace mrcost::hamming {

/// The q=2 extreme of Section 3.3: one reducer per unordered pair of strings
/// at Hamming distance 1. Replication rate is exactly b (the lower bound
/// b/log2(2)). Reducer ids are u*b + i for the pair {u, u ^ (1<<i)} with bit
/// i of u clear; ids whose bit is set are unused (and receive no input).
class PairsSchema final : public core::MappingSchema {
 public:
  explicit PairsSchema(int b);

  std::string name() const override { return "hamming1-pairs"; }
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

 private:
  int b_;
};

/// The q=2^b extreme: a single reducer receives everything; r = 1.
class SingleReducerSchema final : public core::MappingSchema {
 public:
  std::string name() const override { return "single-reducer"; }
  std::uint64_t num_reducers() const override { return 1; }
  void ForEachReducer(core::InputId /*input*/,
                      const ReducerSink& sink) const override {
    sink(0);
  }
};

/// The Splitting Algorithm of Section 3.3 generalized to c segments:
/// bit strings of length b are split into c segments of b/c bits; Group-i
/// reducers are indexed by the string with segment i deleted. Each input
/// goes to exactly c reducers (r = c), each reducer receives q = 2^{b/c}
/// inputs, matching the lower bound b/log2(q) = c exactly.
class SplittingSchema final : public core::MappingSchema {
 public:
  /// Requires 1 <= c <= b and c | b.
  static common::Result<SplittingSchema> Make(int b, int c);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  int b() const { return b_; }
  int c() const { return c_; }
  /// Reducer size: every reducer receives exactly 2^{b/c} inputs.
  std::uint64_t reducer_size() const { return std::uint64_t{1} << (b_ / c_); }

 private:
  SplittingSchema(int b, int c) : b_(b), c_(c) {}
  int b_;
  int c_;
};

/// Generalization of the Splitting Algorithm to segment counts c that do
/// not divide b: the b bits are cut into c segments of length floor(b/c)
/// or ceil(b/c) (the b mod c leading segments are one bit longer). The
/// covering argument of Section 3.3 is unchanged — a distance-1 pair
/// differs in exactly one segment — so r = c with reducer size
/// q = 2^{ceil(b/c)}, filling in the gaps between the paper's divisor-only
/// points on the Figure 1 hyperbola (within one bit of optimal).
class UnevenSplittingSchema final : public core::MappingSchema {
 public:
  /// Requires 1 <= c <= b <= 32.
  static common::Result<UnevenSplittingSchema> Make(int b, int c);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  int b() const { return b_; }
  int c() const { return c_; }
  /// Max reducer size: 2^{ceil(b/c)}.
  std::uint64_t reducer_size() const {
    return std::uint64_t{1} << ((b_ + c_ - 1) / c_);
  }
  /// Start bit position of segment i (segments ordered low to high).
  int SegmentStart(int i) const;
  /// Length in bits of segment i.
  int SegmentLength(int i) const;

 private:
  UnevenSplittingSchema(int b, int c) : b_(b), c_(c) {}
  int b_;
  int c_;
};

/// The large-q algorithm of Section 3.4: split strings into left/right
/// halves of b/2 bits and bucket by (left weight, right weight) into cells
/// of side k. Strings whose half-weight is the lowest of its group are
/// additionally replicated to the neighboring lower cell, giving
/// r ~= 1 + 2/k with q ~= k^2 2^b / (pi b) (the most populous cell).
class Weight2DSchema final : public core::MappingSchema {
 public:
  /// Requires b even and k | (b/2), k >= 1.
  static common::Result<Weight2DSchema> Make(int b, int k);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  int num_groups() const { return groups_; }

 private:
  Weight2DSchema(int b, int k, int groups)
      : b_(b), k_(k), groups_(groups) {}
  int b_;
  int k_;
  int groups_;  // b/(2k); the last group also takes weight b/2
};

/// Section 3.5: the d-dimensional generalization of Weight2DSchema. Strings
/// are split into d pieces of b/d bits; each piece's weight selects a cell
/// coordinate; lower-border strings are replicated one cell down per
/// dimension, giving r ~= 1 + d/k.
class WeightKDSchema final : public core::MappingSchema {
 public:
  /// Requires d | b and k | (b/d), d >= 1, k >= 1.
  static common::Result<WeightKDSchema> Make(int b, int d, int k);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  int num_groups_per_dim() const { return groups_; }

 private:
  WeightKDSchema(int b, int d, int k, int groups)
      : b_(b), d_(d), k_(k), groups_(groups) {}
  int b_;
  int d_;
  int k_;
  int groups_;
};

/// The Ball-2 algorithm of Section 3.6 (from [3]): one reducer per length-b
/// string s; input w is sent to the reducers of every string at distance 1
/// from w (and to its own reducer when `include_center`, which additionally
/// covers distance-1 pairs). Covers all pairs at Hamming distance 2 with
/// q = b (+1) and r = b (+1); each reducer covers Theta(q^2) outputs, the
/// reason the Section 3.1 style lower-bound argument fails for distance 2.
class BallSchema final : public core::MappingSchema {
 public:
  /// Requires 1 <= b <= 32.
  BallSchema(int b, bool include_center);

  std::string name() const override;
  std::uint64_t num_reducers() const override {
    return std::uint64_t{1} << b_;
  }
  /// The center (when included) first, then the b flips, lowest bit first.
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  /// b, plus one for the center.
  double replication() const override;

 private:
  int b_;
  bool include_center_;
};

/// The distance-d Splitting generalization of Section 3.6: strings are cut
/// into k segments; a reducer corresponds to a choice of d segments to
/// delete plus the remaining b(1 - d/k) bits. Each input goes to C(k,d)
/// reducers; every pair at distance <= d (hence exactly d) shares one.
/// q = 2^{bd/k}, r = C(k,d) ~= (ek/d)^d.
class SplittingDistanceDSchema final : public core::MappingSchema {
 public:
  /// Requires k | b and 1 <= d < k.
  static common::Result<SplittingDistanceDSchema> Make(int b, int k, int d);

  std::string name() const override;
  std::uint64_t num_reducers() const override;
  void ForEachReducer(core::InputId input,
                      const ReducerSink& sink) const override;

  /// C(k, d): every string goes to one reducer per deleted-segment subset.
  double replication() const override;

 private:
  SplittingDistanceDSchema(int b, int k, int d) : b_(b), k_(k), d_(d) {}
  int b_;
  int k_;
  int d_;
};

namespace internal {

/// Weight grouping shared by the Section 3.4/3.5 schemas: weights
/// 0..(k*groups) map to `groups` consecutive ranges of k weights, with the
/// top weight (== k*groups) folded into the last group.
int WeightGroup(int weight, int k, int groups);

/// True iff `weight` is the lowest weight of its group (and therefore needs
/// replication to the lower neighbor when one exists).
bool IsLowestInGroup(int weight, int k, int groups);

}  // namespace internal

}  // namespace mrcost::hamming

#endif  // MRCOST_HAMMING_SCHEMAS_H_
