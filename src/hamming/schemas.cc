#include "src/hamming/schemas.h"

#include <algorithm>
#include <sstream>

#include "src/common/combinatorics.h"

namespace mrcost::hamming {

// ---------------------------------------------------------------- Pairs

PairsSchema::PairsSchema(int b) : b_(b) { MRCOST_CHECK(b >= 1 && b <= 32); }

std::uint64_t PairsSchema::num_reducers() const {
  return (std::uint64_t{1} << b_) * static_cast<std::uint64_t>(b_);
}

void PairsSchema::ForEachReducer(core::InputId input,
                                 const ReducerSink& sink) const {
  // The pair {u, u ^ (1<<i)} is owned by the endpoint with bit i clear.
  for (int i = 0; i < b_; ++i) {
    const BitString owner = input & ~(BitString{1} << i);
    sink(owner * b_ + i);
  }
}

// ------------------------------------------------------------ Splitting

common::Result<SplittingSchema> SplittingSchema::Make(int b, int c) {
  if (b < 1 || b > 32) {
    return common::Status::InvalidArgument("SplittingSchema: need 1<=b<=32");
  }
  if (c < 1 || c > b || b % c != 0) {
    std::ostringstream os;
    os << "SplittingSchema: c=" << c << " must divide b=" << b;
    return common::Status::InvalidArgument(os.str());
  }
  return SplittingSchema(b, c);
}

std::string SplittingSchema::name() const {
  std::ostringstream os;
  os << "hamming1-splitting(c=" << c_ << ")";
  return os.str();
}

std::uint64_t SplittingSchema::num_reducers() const {
  // c groups, each indexed by the b - b/c remaining bits.
  return static_cast<std::uint64_t>(c_) << (b_ - b_ / c_);
}

void SplittingSchema::ForEachReducer(core::InputId input,
                                     const ReducerSink& sink) const {
  const int seg = b_ / c_;
  const std::uint64_t per_group = std::uint64_t{1} << (b_ - seg);
  for (int i = 0; i < c_; ++i) {
    const std::uint64_t residual =
        common::RemoveBitField(input, i * seg, seg);
    sink(static_cast<std::uint64_t>(i) * per_group + residual);
  }
}

// --------------------------------------------------- UnevenSplitting

common::Result<UnevenSplittingSchema> UnevenSplittingSchema::Make(int b,
                                                                  int c) {
  if (b < 1 || b > 32) {
    return common::Status::InvalidArgument(
        "UnevenSplittingSchema: need 1<=b<=32");
  }
  if (c < 1 || c > b) {
    return common::Status::InvalidArgument(
        "UnevenSplittingSchema: need 1 <= c <= b");
  }
  return UnevenSplittingSchema(b, c);
}

int UnevenSplittingSchema::SegmentLength(int i) const {
  // The first (b mod c) segments take the extra bit.
  const int base = b_ / c_;
  return i < b_ % c_ ? base + 1 : base;
}

int UnevenSplittingSchema::SegmentStart(int i) const {
  const int base = b_ / c_;
  const int longer = std::min(i, b_ % c_);
  return longer * (base + 1) + (i - longer) * base;
}

std::string UnevenSplittingSchema::name() const {
  std::ostringstream os;
  os << "hamming1-splitting-uneven(c=" << c_ << ")";
  return os.str();
}

std::uint64_t UnevenSplittingSchema::num_reducers() const {
  // Group i is indexed by b - len(i) residual bits; sum over groups.
  std::uint64_t total = 0;
  for (int i = 0; i < c_; ++i) {
    total += std::uint64_t{1} << (b_ - SegmentLength(i));
  }
  return total;
}

void UnevenSplittingSchema::ForEachReducer(core::InputId input,
                                           const ReducerSink& sink) const {
  std::uint64_t group_base = 0;
  for (int i = 0; i < c_; ++i) {
    const int len = SegmentLength(i);
    const std::uint64_t residual =
        common::RemoveBitField(input, SegmentStart(i), len);
    sink(group_base + residual);
    group_base += std::uint64_t{1} << (b_ - len);
  }
}

// ------------------------------------------------------------- Weights

namespace internal {

int WeightGroup(int weight, int k, int groups) {
  const int g = weight / k;
  return g >= groups ? groups - 1 : g;
}

bool IsLowestInGroup(int weight, int k, int groups) {
  return weight % k == 0 && weight / k < groups;
}

}  // namespace internal

common::Result<Weight2DSchema> Weight2DSchema::Make(int b, int k) {
  if (b < 2 || b > 32 || b % 2 != 0) {
    return common::Status::InvalidArgument(
        "Weight2DSchema: need even b in [2,32]");
  }
  if (k < 1 || (b / 2) % k != 0) {
    std::ostringstream os;
    os << "Weight2DSchema: k=" << k << " must divide b/2=" << b / 2;
    return common::Status::InvalidArgument(os.str());
  }
  return Weight2DSchema(b, k, (b / 2) / k);
}

std::string Weight2DSchema::name() const {
  std::ostringstream os;
  os << "hamming1-weight2d(k=" << k_ << ")";
  return os.str();
}

std::uint64_t Weight2DSchema::num_reducers() const {
  return static_cast<std::uint64_t>(groups_) * groups_;
}

void Weight2DSchema::ForEachReducer(core::InputId input,
                                    const ReducerSink& sink) const {
  const int half = b_ / 2;
  const int lw = SegmentWeight(input, 0, half);
  const int rw = SegmentWeight(input, half, half);
  const int gl = internal::WeightGroup(lw, k_, groups_);
  const int gr = internal::WeightGroup(rw, k_, groups_);
  sink(static_cast<std::uint64_t>(gl) * groups_ + gr);
  // Border replication (Fig. 2): a string at the lowest weight of its
  // group must also reach the cell below, in each half independently. A
  // distance-1 pair differs in exactly one half, so diagonal neighbors are
  // never needed.
  if (gl > 0 && internal::IsLowestInGroup(lw, k_, groups_)) {
    sink(static_cast<std::uint64_t>(gl - 1) * groups_ + gr);
  }
  if (gr > 0 && internal::IsLowestInGroup(rw, k_, groups_)) {
    sink(static_cast<std::uint64_t>(gl) * groups_ + (gr - 1));
  }
}

common::Result<WeightKDSchema> WeightKDSchema::Make(int b, int d, int k) {
  if (b < 1 || b > 32) {
    return common::Status::InvalidArgument("WeightKDSchema: need 1<=b<=32");
  }
  if (d < 1 || d > b || b % d != 0) {
    return common::Status::InvalidArgument(
        "WeightKDSchema: d must divide b");
  }
  const int piece = b / d;
  if (k < 1 || piece % k != 0) {
    std::ostringstream os;
    os << "WeightKDSchema: k=" << k << " must divide b/d=" << piece;
    return common::Status::InvalidArgument(os.str());
  }
  return WeightKDSchema(b, d, k, piece / k);
}

std::string WeightKDSchema::name() const {
  std::ostringstream os;
  os << "hamming1-weight" << d_ << "d(k=" << k_ << ")";
  return os.str();
}

std::uint64_t WeightKDSchema::num_reducers() const {
  std::uint64_t n = 1;
  for (int i = 0; i < d_; ++i) n *= groups_;
  return n;
}

void WeightKDSchema::ForEachReducer(core::InputId input,
                                    const ReducerSink& sink) const {
  const int piece = b_ / d_;
  std::vector<int> coord(d_);
  std::vector<int> weight(d_);
  for (int f = 0; f < d_; ++f) {
    weight[f] = SegmentWeight(input, f * piece, piece);
    coord[f] = internal::WeightGroup(weight[f], k_, groups_);
  }
  auto cell_id = [&](const std::vector<int>& c) {
    std::uint64_t id = 0;
    for (int f = 0; f < d_; ++f) id = id * groups_ + c[f];
    return id;
  };
  sink(cell_id(coord));
  for (int f = 0; f < d_; ++f) {
    if (coord[f] > 0 && internal::IsLowestInGroup(weight[f], k_, groups_)) {
      --coord[f];
      sink(cell_id(coord));
      ++coord[f];
    }
  }
}

// ----------------------------------------------------------------- Ball

BallSchema::BallSchema(int b, bool include_center)
    : b_(b), include_center_(include_center) {
  MRCOST_CHECK(b >= 1 && b <= 32);
}

std::string BallSchema::name() const {
  std::ostringstream os;
  os << "hamming-ball2" << (include_center_ ? "+center" : "");
  return os.str();
}

void BallSchema::ForEachReducer(core::InputId input,
                                const ReducerSink& sink) const {
  if (include_center_) sink(input);
  for (int i = 0; i < b_; ++i) sink(input ^ (BitString{1} << i));
}

double BallSchema::replication() const {
  return b_ + (include_center_ ? 1 : 0);
}

// ------------------------------------------------- Splitting, distance d

common::Result<SplittingDistanceDSchema> SplittingDistanceDSchema::Make(
    int b, int k, int d) {
  if (b < 1 || b > 32) {
    return common::Status::InvalidArgument(
        "SplittingDistanceDSchema: need 1<=b<=32");
  }
  if (k < 2 || k > b || b % k != 0) {
    return common::Status::InvalidArgument(
        "SplittingDistanceDSchema: k must divide b, k >= 2");
  }
  if (d < 1 || d >= k) {
    return common::Status::InvalidArgument(
        "SplittingDistanceDSchema: need 1 <= d < k");
  }
  return SplittingDistanceDSchema(b, k, d);
}

std::string SplittingDistanceDSchema::name() const {
  std::ostringstream os;
  os << "hamming" << d_ << "-splitting(k=" << k_ << ")";
  return os.str();
}

double SplittingDistanceDSchema::replication() const {
  return static_cast<double>(common::BinomialExact(k_, d_));
}

std::uint64_t SplittingDistanceDSchema::num_reducers() const {
  const int seg = b_ / k_;
  return common::BinomialExact(k_, d_) << (b_ - d_ * seg);
}

void SplittingDistanceDSchema::ForEachReducer(core::InputId input,
                                              const ReducerSink& sink) const {
  // Reducer id: the deleted-segment subset's rank in the high bits, the
  // residual bits below. Subsets come in lexicographic order, so a counter
  // is each one's CombinationRank.
  const int seg = b_ / k_;
  std::uint64_t rank = 0;
  common::ForEachSubsetOfSize(k_, d_, [&](const std::vector<int>& subset) {
    // Delete the chosen segments from highest position to lowest so earlier
    // removals do not shift later ones.
    BitString residual = input;
    for (auto it = subset.rbegin(); it != subset.rend(); ++it) {
      residual = common::RemoveBitField(residual, *it * seg, seg);
    }
    sink((rank++ << (b_ - d_ * seg)) | residual);
  });
}

}  // namespace mrcost::hamming
