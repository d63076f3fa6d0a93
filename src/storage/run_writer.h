#ifndef MRCOST_STORAGE_RUN_WRITER_H_
#define MRCOST_STORAGE_RUN_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/temp_dir.h"
#include "src/storage/block.h"
#include "src/storage/spill_file.h"

namespace mrcost::storage {

/// Emission positions are (map chunk, position within chunk) packed so
/// that the numeric order equals the global scan order the in-memory
/// shuffles use: chunk index in the high bits, local position below.
inline constexpr int kSpillPosLocalBits = 44;

inline std::uint64_t MakeSpillPos(std::uint32_t chunk, std::uint64_t local) {
  MRCOST_CHECK(chunk < (std::uint32_t{1} << (64 - kSpillPosLocalBits)));
  MRCOST_CHECK(local < (std::uint64_t{1} << kSpillPosLocalBits));
  return (static_cast<std::uint64_t>(chunk) << kSpillPosLocalBits) | local;
}

/// Spill counters for one shuffle, surfaced through JobMetrics.
struct SpillStats {
  /// Sorted runs spilled to disk by over-budget emitter batches.
  std::uint64_t spill_runs = 0;
  /// Bytes written to spill files: the runs above plus any intermediate
  /// runs rewritten by multi-pass merging.
  std::uint64_t spill_bytes_written = 0;
  /// k-way merge passes, the final grouping pass included; more than one
  /// means the run count exceeded the merge fan-in.
  std::uint64_t merge_passes = 0;
  /// Raw-vs-encoded byte counters for every block written (spills and
  /// merge rewrites), the source of JobMetrics::compression_ratio.
  BlockEncodeStats encode;
};

/// Streams pre-sorted records into one version-2 spill file, buffering a
/// ColumnarRun and encoding it (dictionary + codec, src/storage/block.h)
/// as one CRC frame whenever the raw columnar bytes reach `block_bytes`.
class BlockRunFileWriter {
 public:
  static common::Result<BlockRunFileWriter> Create(
      const std::string& path, const Codec* codec = nullptr,
      std::size_t block_bytes = kDefaultBlockBytes);

  BlockRunFileWriter(BlockRunFileWriter&&) = default;
  BlockRunFileWriter& operator=(BlockRunFileWriter&&) = default;

  common::Status Append(const RecordView& rec);
  /// Appends rows [lo, hi) of an already-sorted run.
  common::Status AppendRun(const ColumnarRun& run, std::size_t lo,
                           std::size_t hi);
  common::Status Finish();

  std::uint64_t bytes_written() const { return file_.bytes_written(); }
  const std::string& path() const { return file_.path(); }
  const BlockEncodeStats& stats() const { return stats_; }

 private:
  BlockRunFileWriter(SpillFileWriter file, const Codec* codec,
                     std::size_t block_bytes)
      : file_(std::move(file)), codec_(codec), block_bytes_(block_bytes) {}

  common::Status FlushPending();

  SpillFileWriter file_;
  const Codec* codec_ = nullptr;
  std::size_t block_bytes_ = kDefaultBlockBytes;
  ColumnarRun pending_;
  std::string payload_;
  BlockEncodeStats stats_;
};

/// Owns the run files of one shuffle: names them uniquely, counts runs and
/// bytes, and removes every file it created on destruction. Thread-safe —
/// the map chunks of one round spill through a shared spiller
/// concurrently.
class RunSpiller {
 public:
  /// `dir` empty = a fresh unique directory under the system temp dir
  /// (a common::TempDir owned by this spiller and removed with it), so
  /// concurrent spillers in separate processes never share a directory
  /// unless a shared `dir` is passed explicitly — which is exactly what
  /// the multi-process shuffle transport does.
  explicit RunSpiller(std::string dir = {});
  ~RunSpiller();

  RunSpiller(const RunSpiller&) = delete;
  RunSpiller& operator=(const RunSpiller&) = delete;

  /// Writes an already-sorted columnar run as one version-2 run file,
  /// consuming it. Counts toward spill_runs(); encode stats accumulate in
  /// encode_stats().
  common::Status SpillBlockRun(ColumnarRun& run,
                               const Codec* codec = nullptr);

  /// Opens a new (registered, auto-cleaned) run file for an already-sorted
  /// stream — the merge uses this to rewrite intermediate runs. Close with
  /// CloseBlockRun so the bytes are counted. Does not count toward
  /// spill_runs().
  common::Result<BlockRunFileWriter> NewBlockRun(
      const Codec* codec = nullptr);
  common::Status CloseBlockRun(BlockRunFileWriter& writer);

  /// Raw-vs-encoded byte counters over every block run written.
  BlockEncodeStats encode_stats() const;

  /// Paths of every run file created so far (spills and merge rewrites).
  std::vector<std::string> run_paths() const;
  /// Paths created by SpillBlockRun only, sorted by each run's smallest
  /// emission position, so the merge consumes them in scan order no
  /// matter which thread registered its spill first.
  std::vector<std::string> spill_run_paths() const;

  std::uint64_t spill_runs() const;
  std::uint64_t bytes_written() const;

 private:
  std::string NextPath();

  std::string dir_;
  /// Owns the scratch directory when none was passed in; empty handle
  /// (no cleanup) when the caller supplied a shared dir.
  common::TempDir owned_dir_;
  mutable std::mutex mu_;
  /// (smallest emission position, path) per spilled run.
  std::vector<std::pair<std::uint64_t, std::string>> spill_paths_;
  std::vector<std::string> merge_paths_;
  BlockEncodeStats encode_stats_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t next_run_id_ = 0;
  std::uint64_t spiller_id_ = 0;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_RUN_WRITER_H_
