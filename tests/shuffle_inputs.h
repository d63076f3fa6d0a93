#ifndef MRCOST_TESTS_SHUFFLE_INPUTS_H_
#define MRCOST_TESTS_SHUFFLE_INPUTS_H_

// Randomized shuffle inputs shared by the shuffle property tests: every
// shuffle kernel (in-memory, spilled-run merge, full external round) is
// held to SerialShuffle over the same chunks.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace mrcost::testutil {

/// Key distributions the equivalence properties are checked under: the
/// regimes where a sharded or external shuffle can diverge from the
/// serial reference (hot keys concentrating in one shard or run, every
/// key distinct, every pair the same key).
enum class KeyDist { kUniform, kZipf, kAllSame, kAllDistinct };

inline constexpr KeyDist kAllKeyDists[] = {
    KeyDist::kUniform, KeyDist::kZipf, KeyDist::kAllSame,
    KeyDist::kAllDistinct};

inline const char* Name(KeyDist dist) {
  switch (dist) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipf: return "zipf";
    case KeyDist::kAllSame: return "all-same";
    case KeyDist::kAllDistinct: return "all-distinct";
  }
  return "?";
}

/// Seed-deterministic random chunks: chunk count, chunk sizes (including
/// empty chunks), and keys all drawn from `seed`. Values number the pairs
/// in scan order.
inline std::vector<std::vector<std::pair<std::uint64_t, int>>> RandomChunks(
    KeyDist dist, std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  const common::ZipfDistribution zipf(64, 1.3);
  const std::size_t num_chunks = 1 + rng.UniformBelow(8);
  std::vector<std::vector<std::pair<std::uint64_t, int>>> chunks(num_chunks);
  int serial = 0;
  for (auto& chunk : chunks) {
    const std::size_t size = rng.UniformBelow(400);
    chunk.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      std::uint64_t key = 0;
      switch (dist) {
        case KeyDist::kUniform: key = rng.UniformBelow(150); break;
        case KeyDist::kZipf: key = zipf.Sample(rng); break;
        case KeyDist::kAllSame: key = 42; break;
        case KeyDist::kAllDistinct:
          key = static_cast<std::uint64_t>(serial);
          break;
      }
      chunk.emplace_back(key, serial++);
    }
  }
  return chunks;
}

/// A non-integral key with an integer's serialized bytes: a KVBlock keeps
/// it in the serialized byte slab and groups it through KeyIndex — the
/// reference a typed integer key column and its slot lookup must match.
template <typename T>
struct SlabKey {
  T v;
};

}  // namespace mrcost::testutil

#endif  // MRCOST_TESTS_SHUFFLE_INPUTS_H_
