#ifndef MRCOST_ENGINE_GROUPING_H_
#define MRCOST_ENGINE_GROUPING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/status.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/serde.h"

namespace mrcost::engine {

/// A reducer's input: one key's values, read-only and contiguous — a
/// pointer plus a size, the MR-MPI `multivalue` + `nvalues` idiom. Every
/// reducer, in memory, over spilled runs and on a worker process, reads a
/// slice of one CsrGroups value buffer.
///
/// A view is valid only during the reducer call that receives it: the
/// buffer behind it is freed once its shard is reduced. A reducer that
/// keeps values must copy them (`std::vector<V>(view.begin(), view.end())`).
template <typename V>
class GroupView {
 public:
  using value_type = V;
  using const_iterator = const V*;
  using iterator = const V*;

  GroupView() = default;
  GroupView(const V* data, std::size_t size) : data_(data), size_(size) {}

  const V* begin() const { return data_; }
  const V* end() const { return data_ + size_; }
  const V* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const V& operator[](std::size_t i) const { return data_[i]; }
  const V& front() const { return data_[0]; }
  const V& back() const { return data_[size_ - 1]; }

 private:
  const V* data_ = nullptr;
  std::size_t size_ = 0;
};

namespace internal {

/// Dense first-seen group ids over one call's rows. An integer key in
/// [0, bound) indexes a slot array: no hash probe and no compare against
/// an earlier row's key bytes. The array grows on demand to the largest
/// such key seen, never past `bound` (callers pass their row count, so it
/// costs at most 4 bytes a row). Every other key — negative, at or beyond
/// the bound, or not an integer — goes through a storage::KeyIndex on
/// (hash, key bytes), which copies each new key's bytes when `copy_keys`
/// (keys read from run sources). Both draw ids from one counter, so ids
/// are first-seen order whatever the mix of keys.
class GroupIds {
 public:
  explicit GroupIds(std::size_t bound, bool copy_keys = false)
      : bound_(bound), index_(copy_keys) {}

  template <typename K, typename V>
  std::uint32_t FindOrInsert(const storage::KVBlock<K, V>& block,
                             std::size_t r, bool& inserted) {
    return FindOrInsert<K>(block.hash(r), block.key_bytes(r), inserted);
  }

  /// A key given as its hash and serialized bytes; for an integer K the
  /// bytes must be sizeof(K) long (serde's host-order form).
  template <typename K>
  std::uint32_t FindOrInsert(std::uint64_t hash, std::string_view bytes,
                             bool& inserted) {
    if constexpr (storage::kTypedKey<K>) {
      K key;
      std::memcpy(&key, bytes.data(), sizeof(K));
      bool in_range = true;
      if constexpr (std::is_signed_v<K>) in_range = key >= 0;
      if (in_range && static_cast<std::uint64_t>(key) < bound_) {
        const auto v = static_cast<std::size_t>(key);
        if (v >= slots_.size()) {
          slots_.resize(std::min(bound_, std::max(v + 1, 2 * slots_.size())),
                        kNone);
        }
        std::uint32_t& slot = slots_[v];
        inserted = slot == kNone;
        if (inserted) slot = next_++;
        return slot;
      }
    }
    const std::size_t g = index_.FindOrInsert(hash, bytes, inserted);
    if constexpr (!storage::kTypedKey<K>) {
      return static_cast<std::uint32_t>(g);  // the index hands out every id
    } else {
      if (inserted) probed_.push_back(next_++);
      return probed_[g];
    }
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::size_t bound_;
  std::uint32_t next_ = 0;
  std::vector<std::uint32_t> slots_;   // key value -> id
  storage::KeyIndex index_;
  std::vector<std::uint32_t> probed_;  // KeyIndex id -> id
};

/// Map-side combine over one block, in first-seen key order within it:
/// duplicates fold into the first row's value with `combine`. Keys dedup
/// on GroupIds (serialized bytes for non-integer keys; serde is
/// injective), so no key object is rebuilt: inserts re-append the raw key
/// bytes and hash. Consumes `in`'s values. `bytes` receives what crosses
/// the shuffle (ByteSizeOf key + value per combined row); `row_bytes`,
/// when set, each row's share. The one fold both backends run, so
/// post-combine rows — and their spill positions — match.
template <typename K, typename V, typename Combine>
storage::KVBlock<K, V> CombineBlock(storage::KVBlock<K, V>& in,
                                    const Combine& combine,
                                    std::uint64_t& bytes,
                                    std::vector<std::uint64_t>* row_bytes) {
  storage::KVBlock<K, V> out;
  GroupIds ids(in.rows());
  for (std::size_t r = 0; r < in.rows(); ++r) {
    bool inserted = false;
    const std::uint32_t g = ids.FindOrInsert(in, r, inserted);
    if (inserted) {
      out.AppendRaw(in.key_bytes(r), in.hash(r), std::move(in.value(r)));
    } else {
      out.value(g) = combine(std::move(out.value(g)), std::move(in.value(r)));
    }
  }
  bytes = 0;
  if (row_bytes != nullptr) row_bytes->reserve(out.rows());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const std::uint64_t b =
        common::ByteSizeOf(out.KeyAt(r)) + common::ByteSizeOf(out.value(r));
    bytes += b;
    if (row_bytes != nullptr) row_bytes->push_back(b);
  }
  return out;
}

/// One shard's groups in CSR form: keys in first-seen order, and every
/// key's values contiguous in one buffer — group g is
/// values[offsets[g], offsets[g + 1]). first[g] is the emission position
/// of the group's first row; positions order a round's rows the way the
/// barrier engine scans them, so sorting every shard's keys on it gives
/// the global first-seen order whichever task grouped them.
template <typename K, typename V>
struct CsrGroups {
  std::vector<K> keys;
  std::vector<std::uint64_t> first;
  std::vector<std::size_t> offsets = {0};
  std::vector<V> values;

  std::size_t size() const { return keys.size(); }
  std::uint64_t group_size(std::size_t g) const {
    return offsets[g + 1] - offsets[g];
  }
  GroupView<V> group(std::size_t g) const {
    return GroupView<V>(values.data() + offsets[g], group_size(g));
  }
};

/// The grouping kernel behind every in-memory shuffle, in-process and on
/// a worker process. `for_each_row(f)`
/// calls f(block, row, pos) for each of a shard's `num_rows` routed rows,
/// in the same order each time and in ascending emission position `pos`;
/// it is called twice:
///   1. GroupIds (a slot lookup for integer keys below `num_rows`, a
///      storage::KeyIndex probe over the precomputed hashes and key bytes
///      otherwise) gives each row a dense first-seen group id and counts
///      the rows per group; a prefix sum turns counts into offsets;
///   2. values scatter, stably, into the one value buffer —
///      `take(block, row)` yields each (moved, or copied when the blocks
///      are shared).
/// V must be default-constructible (the buffer is sized before the
/// scatter fills it).
template <typename K, typename V, typename ForEachRow, typename Take>
CsrGroups<K, V> GroupRows(std::size_t num_rows, ForEachRow&& for_each_row,
                          Take&& take) {
  using Block = storage::KVBlock<K, V>;
  CsrGroups<K, V> out;
  GroupIds ids(num_rows);
  std::vector<std::uint32_t> gid;
  gid.reserve(num_rows);
  for_each_row([&](const Block& block, std::uint32_t r, std::uint64_t pos) {
    bool inserted = false;
    const std::uint32_t g = ids.FindOrInsert(block, r, inserted);
    if (inserted) {
      out.keys.push_back(block.KeyAt(r));
      out.first.push_back(pos);
      out.offsets.push_back(0);
    }
    ++out.offsets[g + 1];
    gid.push_back(g);
  });
  for (std::size_t g = 0; g < out.size(); ++g) {
    out.offsets[g + 1] += out.offsets[g];
  }

  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  out.values.resize(gid.size());
  std::size_t i = 0;
  for_each_row([&](Block& block, std::uint32_t r, std::uint64_t) {
    out.values[cursor[gid[i++]]++] = take(block, r);
  });
  return out;
}

/// The grouping kernel behind every shuffle that reads runs: an external
/// round's ShardGroup over its spilled and in-memory runs, and a worker's
/// reduce task over the runs it fetches. `sources` hold one shard's `rows`
/// records, each in ascending position and the sources in position order,
/// so records arrive in the order GroupRows visits rows. One streaming
/// pass numbers the groups (GroupIds; a source's current block is
/// overwritten on its next decode, so the index copies each new key's
/// bytes) and keeps only each record's value and group id; the values
/// then scatter, stably, into the CSR buffer. Each source is released
/// once drained. A failed source, or key or value bytes that do not
/// decode, return a Status.
template <typename K, typename V>
common::Result<CsrGroups<K, V>> GroupRuns(
    std::vector<std::unique_ptr<storage::BlockRunSource>> sources,
    std::uint64_t rows) {
  CsrGroups<K, V> out;
  GroupIds ids(rows, /*copy_keys=*/true);
  std::vector<std::uint32_t> gid;
  std::vector<V> values;
  gid.reserve(rows);
  values.reserve(rows);
  for (auto& source : sources) {
    while (const storage::RecordView* rec = source->Peek()) {
      if (storage::kTypedKey<K> && rec->key.size() != sizeof(K)) {
        return common::Status::Internal("run grouping: corrupt key bytes");
      }
      bool inserted = false;
      const std::uint32_t g = ids.FindOrInsert<K>(rec->hash, rec->key,
                                                  inserted);
      if (inserted) {
        K key{};
        const char* p = rec->key.data();
        if (!storage::DeserializeValue(p, p + rec->key.size(), key)) {
          return common::Status::Internal("run grouping: corrupt key bytes");
        }
        out.keys.push_back(std::move(key));
        out.first.push_back(rec->pos);
        out.offsets.push_back(0);
      }
      ++out.offsets[g + 1];
      gid.push_back(g);
      const char* p = rec->value.data();
      values.emplace_back();
      if (!storage::DeserializeValue(p, p + rec->value.size(),
                                     values.back())) {
        return common::Status::Internal("run grouping: corrupt value bytes");
      }
      source->Advance();
    }
    if (auto status = source->status(); !status.ok()) return status;
    source.reset();
  }
  for (std::size_t g = 0; g < out.size(); ++g) {
    out.offsets[g + 1] += out.offsets[g];
  }
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  out.values.resize(gid.size());
  for (std::size_t i = 0; i < gid.size(); ++i) {
    out.values[cursor[gid[i]]++] = std::move(values[i]);
  }
  return out;
}

}  // namespace internal
}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_GROUPING_H_
