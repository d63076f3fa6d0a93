#ifndef MRCOST_ENGINE_HASHING_H_
#define MRCOST_ENGINE_HASHING_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace mrcost::engine {

/// Generic, standard-library-independent hashing for keys of in-memory hash
/// tables (KeyHash), stable across platforms. The shuffle places rows by
/// storage::HashBytes of the serialized key instead. Supports integral and
/// enum types, strings, pairs, tuples, vectors, and any type exposing a
/// `std::uint64_t Hash() const` member.
template <typename T>
std::uint64_t HashValue(const T& value);

namespace internal {

inline std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t h) {
  // Boost-style combine strengthened with a 64-bit mix.
  return common::Mix64(seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                               (seed >> 2)));
}

template <typename T, typename = void>
struct HasHashMember : std::false_type {};

template <typename T>
struct HasHashMember<
    T, std::void_t<decltype(std::declval<const T&>().Hash())>>
    : std::true_type {};

}  // namespace internal

inline std::uint64_t HashValue(const std::string& s) {
  // FNV-1a, then mixed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return common::Mix64(h);
}

template <typename A, typename B>
std::uint64_t HashValue(const std::pair<A, B>& p) {
  return internal::HashCombine(HashValue(p.first), HashValue(p.second));
}

template <typename... Ts>
std::uint64_t HashValue(const std::tuple<Ts...>& t) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  std::apply(
      [&h](const Ts&... elems) {
        ((h = internal::HashCombine(h, HashValue(elems))), ...);
      },
      t);
  return h;
}

template <typename T>
std::uint64_t HashValue(const std::vector<T>& v) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const T& x : v) h = internal::HashCombine(h, HashValue(x));
  return h;
}

template <typename T>
std::uint64_t HashValue(const T& value) {
  if constexpr (internal::HasHashMember<T>::value) {
    return value.Hash();
  } else if constexpr (std::is_enum_v<T>) {
    return common::Mix64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  } else {
    static_assert(std::is_integral_v<T>,
                  "HashValue: unsupported key type; add an overload or a "
                  "Hash() member");
    return common::Mix64(static_cast<std::uint64_t>(value));
  }
}

/// Functor adapter so HashValue can be used as an unordered_map hasher.
struct KeyHash {
  template <typename T>
  std::size_t operator()(const T& key) const {
    return static_cast<std::size_t>(HashValue(key));
  }
};

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_HASHING_H_
