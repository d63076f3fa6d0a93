#ifndef MRCOST_COMMON_BYTE_SIZE_H_
#define MRCOST_COMMON_BYTE_SIZE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace mrcost::common {

/// Estimated in-memory footprint of a value, in bytes. One convention is
/// used everywhere the engine compares sizes — the shuffle's
/// bytes_shuffled accounting and the external shuffle's spill trigger — so
/// a budget derived from one of them always agrees with the other.
///
/// The convention measures what a value costs while buffered in engine
/// memory (the object itself plus the heap payload it owns), not its
/// serialized wire size:
///   * trivially copyable T: sizeof(T), padding included — that is what a
///     buffered element of vector<T> occupies;
///   * std::string: sizeof(std::string) for the object (which contains the
///     small-string buffer) plus the heap payload, counted only when the
///     string is too long for the small buffer. The small-buffer capacity
///     is modeled as the fixed kStringSsoCapacity below rather than probed
///     per platform, so sizes are deterministic across toolchains;
///   * std::vector<T>: sizeof(std::vector<T>) plus the footprint of every
///     element (for trivially copyable T that sum is exactly the heap
///     array);
///   * std::pair / std::tuple: the sum of the members' footprints
///     (padding between members is not modeled — composites are priced
///     the same whether or not the library makes them trivially
///     copyable, keeping sizes deterministic across platforms);
///   * user types: a `ByteSize()` member or a ByteSizeOf overload.
///
/// All overloads are declared before any definition so that overloads for
/// std:: containers are visible from inside the composite overloads
/// (ordinary lookup happens at template definition time; ADL would not
/// find them in namespace mrcost::common).
template <typename T>
std::size_t ByteSizeOf(const T& value);
template <typename A, typename B>
std::size_t ByteSizeOf(const std::pair<A, B>& p);
template <typename... Ts>
std::size_t ByteSizeOf(const std::tuple<Ts...>& t);
inline std::size_t ByteSizeOf(const std::string& s);
inline std::size_t ByteSizeOf(std::string_view sv);
template <typename T>
std::size_t ByteSizeOf(const std::vector<T>& v);

/// Modeled small-string-optimization capacity: strings of at most this
/// many characters are assumed to live inside the std::string object (the
/// common libstdc++/libc++ layout) and contribute no heap payload.
inline constexpr std::size_t kStringSsoCapacity = 15;

namespace internal {

template <typename T, typename = void>
struct HasByteSizeMember : std::false_type {};

template <typename T>
struct HasByteSizeMember<T,
                         std::void_t<decltype(std::declval<const T&>()
                                                  .ByteSize())>>
    : std::true_type {};

}  // namespace internal

template <typename A, typename B>
std::size_t ByteSizeOf(const std::pair<A, B>& p) {
  return ByteSizeOf(p.first) + ByteSizeOf(p.second);
}

template <typename... Ts>
std::size_t ByteSizeOf(const std::tuple<Ts...>& t) {
  return std::apply(
      [](const Ts&... elems) {
        return (std::size_t{0} + ... + ByteSizeOf(elems));
      },
      t);
}

inline std::size_t ByteSizeOf(const std::string& s) {
  return sizeof(std::string) +
         (s.size() > kStringSsoCapacity ? s.size() : 0);
}

/// A view is priced as the view object plus the full viewed payload: the
/// bytes live in someone's arena, and the budget checks that price blocks
/// by (src/storage/block.h) must count them. There is no SSO discount —
/// a view never stores characters inline.
inline std::size_t ByteSizeOf(std::string_view sv) {
  return sizeof(std::string_view) + sv.size();
}

template <typename T>
std::size_t ByteSizeOf(const std::vector<T>& v) {
  std::size_t total = sizeof(std::vector<T>);
  for (const T& x : v) total += ByteSizeOf(x);
  return total;
}

template <typename T>
std::size_t ByteSizeOf(const T& value) {
  if constexpr (internal::HasByteSizeMember<T>::value) {
    return value.ByteSize();
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteSizeOf: provide an overload, a ByteSize() member, or "
                  "a trivially copyable type");
    return sizeof(T);
  }
}

}  // namespace mrcost::common

#endif  // MRCOST_COMMON_BYTE_SIZE_H_
