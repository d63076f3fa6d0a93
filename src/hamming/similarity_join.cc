#include "src/hamming/similarity_join.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/bit_util.h"
#include "src/common/combinatorics.h"
#include "src/hamming/schemas.h"

namespace mrcost::hamming {
namespace {

using Pair = std::pair<BitString, BitString>;

/// Largest flip-mask table built, in C(k,d) * sum_{w<=d} C(d*b/k, w)
/// entries (512 KiB of masks). Above it every reducer runs the pairwise
/// loop; the benchmark's b=18, k=3, d=1 table has 21 entries.
constexpr double kMaxFlipMaskEntries = 1 << 16;

/// Bitmask of the segments (of length `seg` bits) in which `diff` has a set
/// bit.
std::uint32_t SegmentsOf(BitString diff, int seg) {
  std::uint32_t segs = 0;
  for (; diff != 0; diff &= diff - 1) {
    segs |= std::uint32_t{1} << (common::CountTrailingZeros(diff) / seg);
  }
  return segs;
}

/// The canonical deleted-segment set for a pair differing in segments
/// `segs`: pad with the lowest segment indexes not already present until
/// the set has d members. This is the lexicographically least d-superset
/// of `segs`, so exactly one reducer emits each pair.
std::uint32_t CanonicalSegments(std::uint32_t segs, int d) {
  while (common::PopCount(segs) < d) segs |= ~segs & (segs + 1);
  return segs;
}

/// The d-subset of k segments with lexicographic rank `rank`, as a
/// bitmask: CombinationUnrank without the vector.
std::uint32_t SegmentsOfRank(int k, int d, std::uint64_t rank) {
  std::uint32_t segs = 0;
  int v = 0;
  for (int i = 0; i < d; ++i) {
    while (true) {
      const std::uint64_t count = common::BinomialExact(k - v - 1, d - i - 1);
      if (rank < count) break;
      rank -= count;
      ++v;
    }
    segs |= std::uint32_t{1} << v++;
  }
  return segs;
}

/// Per deleted-segment subset (indexed by its rank), the subset as a
/// segment bitmask and every XOR mask of weight 1..d over the subset's bits
/// whose canonical segment set is the subset itself: the exact list of
/// differences a reducer must look for.
struct FlipMaskTable {
  std::vector<std::uint32_t> subsets;
  std::vector<std::uint32_t> offsets;  // rank r: [offsets[r], offsets[r+1])
  std::vector<BitString> masks;
};

/// Builds the table, or returns null when it would exceed
/// kMaxFlipMaskEntries.
std::shared_ptr<const FlipMaskTable> BuildFlipMaskTable(int b, int k, int d) {
  const int seg = b / k;
  const int span = d * seg;
  double entries = 0;
  for (int w = 0; w <= d; ++w) entries += common::BinomialDouble(span, w);
  if (common::BinomialDouble(k, d) * entries > kMaxFlipMaskEntries) {
    return nullptr;
  }
  auto table = std::make_shared<FlipMaskTable>();
  const std::uint64_t num_subsets = common::BinomialExact(k, d);
  std::vector<int> bits;  // the subset's bit positions, ascending
  for (std::uint64_t rank = 0; rank < num_subsets; ++rank) {
    const std::uint32_t subset = SegmentsOfRank(k, d, rank);
    table->subsets.push_back(subset);
    table->offsets.push_back(static_cast<std::uint32_t>(table->masks.size()));
    bits.clear();
    for (int s = 0; s < k; ++s) {
      if ((subset >> s & 1) == 0) continue;
      for (int i = 0; i < seg; ++i) bits.push_back(s * seg + i);
    }
    for (int w = 1; w <= d; ++w) {
      common::ForEachSubsetOfSize(span, w, [&](const std::vector<int>& idx) {
        BitString mask = 0;
        for (int i : idx) mask |= BitString{1} << bits[i];
        if (CanonicalSegments(SegmentsOf(mask, seg), d) == subset) {
          table->masks.push_back(mask);
        }
      });
    }
  }
  table->offsets.push_back(static_cast<std::uint32_t>(table->masks.size()));
  return table;
}

/// Open-addressing set over one reducer's values, reused per thread so the
/// probe branch allocates nothing once warm. Strings have at most 32 bits,
/// so an all-ones slot is free.
class GroupSet {
 public:
  void Assign(engine::GroupView<BitString> values) {
    int log_slots = 4;
    while ((std::size_t{1} << log_slots) < 2 * values.size()) ++log_slots;
    shift_ = 64 - log_slots;
    slots_.assign(std::size_t{1} << log_slots, kFree);
    for (const BitString v : values) {
      std::size_t i = Home(v);
      while (slots_[i] != kFree && slots_[i] != v) i = Next(i);
      slots_[i] = v;
    }
  }

  bool Contains(BitString v) const {
    for (std::size_t i = Home(v);; i = Next(i)) {
      if (slots_[i] == v) return true;
      if (slots_[i] == kFree) return false;
    }
  }

 private:
  static constexpr BitString kFree = ~BitString{0};
  std::size_t Home(BitString v) const {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t Next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  std::vector<BitString> slots_;
  int shift_ = 60;
};

/// True when some string has a bit at or above b: it lies outside the
/// schema's domain of length-b strings.
bool HasBitsAtOrAbove(const std::vector<BitString>& strings, int b) {
  BitString all_bits = 0;
  for (const BitString w : strings) all_bits |= w;
  return (all_bits >> b) != 0;
}

void SortPairs(std::vector<Pair>& pairs) {
  std::sort(pairs.begin(), pairs.end());
}

/// Builds a plan, executes it with the caller's round options, and sorts.
common::Result<SimilarityJoinResult> ExecuteJoinPlan(
    common::Result<SimilarityJoinPlan> plan,
    const engine::JobOptions& options) {
  if (!plan.ok()) return plan.status();
  auto run = plan->pairs.Execute(engine::ExecutionOptions(options));
  SortPairs(run.outputs);
  return SimilarityJoinResult{std::move(run.outputs),
                              std::move(run.metrics.rounds[0])};
}

}  // namespace

common::Result<SimilarityJoinPlan> BuildSplittingSimilarityJoinPlan(
    const std::vector<BitString>& strings, int b, int k, int d) {
  auto schema = SplittingDistanceDSchema::Make(b, k, d);
  if (!schema.ok()) return schema.status();
  // A bit at or above b would spill into the rank bits of the reducer key.
  if (HasBitsAtOrAbove(strings, b)) {
    return common::Status::InvalidArgument(
        "SplittingSimilarityJoin: a string has bits at or above b");
  }
  // All strings in one reducer agree outside its d deleted segments, so a
  // pair at distance 1..d differs by exactly one flip mask over those
  // segments. With the table, a reducer whose group outnumbers its masks
  // enough (n * |masks| <= n(n-1)/2) probes u ^ m for every value u and
  // mask m; otherwise it tests all pairs. Both emit a pair only from its
  // canonical reducer, so each pair appears exactly once.
  const int residual_bits = b - d * (b / k);
  auto table = BuildFlipMaskTable(b, k, d);
  auto reduce_fn = [k, d, seg = b / k, residual_bits, table](
                       const std::uint64_t& key,
                       engine::GroupView<BitString> values,
                       std::vector<Pair>& out) {
    const std::uint64_t rank = key >> residual_bits;
    const std::size_t n = values.size();
    if (table != nullptr) {
      const BitString* begin = table->masks.data() + table->offsets[rank];
      const BitString* end = table->masks.data() + table->offsets[rank + 1];
      const auto num_masks = static_cast<std::size_t>(end - begin);
      if (n * num_masks <= n * (n - 1) / 2) {
        static thread_local GroupSet group;
        group.Assign(values);
        for (const BitString u : values) {
          for (const BitString* m = begin; m != end; ++m) {
            const BitString v = u ^ *m;
            if (v > u && group.Contains(v)) out.emplace_back(u, v);
          }
        }
        return;
      }
    }
    const std::uint32_t subset =
        table != nullptr ? table->subsets[rank] : SegmentsOfRank(k, d, rank);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const BitString diff = values[i] ^ values[j];
        const int dist = common::PopCount(diff);
        if (dist < 1 || dist > d) continue;
        if (CanonicalSegments(SegmentsOf(diff, seg), d) == subset) {
          out.emplace_back(std::min(values[i], values[j]),
                           std::max(values[i], values[j]));
        }
      }
    }
  };

  // The map is the schema itself: key = reducer id (deleted-subset rank in
  // the high bits, residual bits below), value = the string, whose input id
  // is the string. Its declared C(k,d) replication over C(k,d) * 2^residual
  // reducers prices the round without sampling; on the full domain every
  // reducer holds exactly 2^(d*b/k) strings, so the mean load is the max.
  engine::Plan plan;
  auto pairs =
      plan.Source(strings, "bit strings")
          .MapBySchema<std::uint64_t>(
              std::make_shared<SplittingDistanceDSchema>(std::move(*schema)),
              [](const BitString& w) { return core::InputId{w}; },
              "splitting fan-out")
          .ReduceByKey<Pair>(reduce_fn);
  return SimilarityJoinPlan{std::move(plan), std::move(pairs)};
}

common::Result<SimilarityJoinResult> SplittingSimilarityJoin(
    const std::vector<BitString>& strings, int b, int k, int d,
    const engine::JobOptions& options) {
  return ExecuteJoinPlan(BuildSplittingSimilarityJoinPlan(strings, b, k, d),
                         options);
}

common::Result<SimilarityJoinPlan> BuildBallSimilarityJoinPlan(
    const std::vector<BitString>& strings, int b, int d) {
  if (d < 1 || d > 2) {
    return common::Status::InvalidArgument(
        "BallSimilarityJoin: only d in {1,2} is supported");
  }
  if (b < 1 || b > 32) {
    return common::Status::InvalidArgument("BallSimilarityJoin: 1<=b<=32");
  }
  // Flips cover only the low b bits: a pair differing above them would
  // never meet at a reducer.
  if (HasBitsAtOrAbove(strings, b)) {
    return common::Status::InvalidArgument(
        "BallSimilarityJoin: a string has bits at or above b");
  }

  auto reduce_fn = [d](const BitString& center,
                       engine::GroupView<BitString> values,
                       std::vector<Pair>& out) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        const BitString u = std::min(values[i], values[j]);
        const BitString v = std::max(values[i], values[j]);
        const int dist = HammingDistance(u, v);
        if (dist < 1 || dist > d) continue;
        // Canonical center: for a distance-1 pair the smaller endpoint; for
        // a distance-2 pair the smaller endpoint with its lowest differing
        // bit flipped (one of the exactly two centers seeing both).
        BitString canonical;
        if (dist == 1) {
          canonical = u;
        } else {
          const int low_bit = common::CountTrailingZeros(u ^ v);
          canonical = u ^ (BitString{1} << low_bit);
        }
        if (center == canonical) out.emplace_back(u, v);
      }
    }
  };

  // The map is the schema with its center: key = center string, value =
  // the string, sent to its own reducer first (so distance-1 pairs are
  // covered; see Section 3.6) and then to the b reducers at distance 1.
  // r = b + 1 is declared; on the full domain every center holds b + 1
  // strings, so the mean load is the max.
  engine::Plan plan;
  auto pairs = plan.Source(strings, "bit strings")
                   .MapBySchema<BitString>(
                       std::make_shared<BallSchema>(b, /*include_center=*/true),
                       [](const BitString& w) { return core::InputId{w}; },
                       "ball-2 fan-out")
                   .ReduceByKey<Pair>(reduce_fn);
  return SimilarityJoinPlan{std::move(plan), std::move(pairs)};
}

common::Result<SimilarityJoinResult> BallSimilarityJoin(
    const std::vector<BitString>& strings, int b, int d,
    const engine::JobOptions& options) {
  return ExecuteJoinPlan(BuildBallSimilarityJoinPlan(strings, b, d), options);
}

std::vector<std::pair<BitString, BitString>> SerialSimilarityJoin(
    const std::vector<BitString>& strings, int d) {
  std::vector<Pair> out;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    for (std::size_t j = i + 1; j < strings.size(); ++j) {
      const int dist = HammingDistance(strings[i], strings[j]);
      if (dist >= 1 && dist <= d) {
        out.emplace_back(std::min(strings[i], strings[j]),
                         std::max(strings[i], strings[j]));
      }
    }
  }
  SortPairs(out);
  return out;
}

}  // namespace mrcost::hamming
