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

/// Writes one run into a version-2 spill file, encoding it (dictionary +
/// codec, src/storage/block.h) as one CRC frame per `block_bytes` of raw
/// columnar bytes.
class BlockRunFileWriter {
 public:
  static common::Result<BlockRunFileWriter> Create(
      const std::string& path, const Codec* codec = nullptr,
      std::size_t block_bytes = kDefaultBlockBytes);

  BlockRunFileWriter(BlockRunFileWriter&&) = default;
  BlockRunFileWriter& operator=(BlockRunFileWriter&&) = default;

  /// Appends rows [lo, hi) of `run`, in row order.
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

  SpillFileWriter file_;
  const Codec* codec_ = nullptr;
  std::size_t block_bytes_ = kDefaultBlockBytes;
  std::string payload_;
  BlockEncodeStats stats_;
};

/// Owns the run files of one external round: names them uniquely, files
/// each under the reduce shard it feeds, counts runs and bytes, and
/// removes every file it created on destruction. Thread-safe — the map
/// chunks of one round spill through one shared spiller concurrently.
class RunSpiller {
 public:
  /// `dir` empty = a fresh unique directory under the system temp dir
  /// (a common::TempDir owned by this spiller and removed with it), so
  /// concurrent spillers in separate processes never share a directory
  /// unless a shared `dir` is passed explicitly.
  explicit RunSpiller(std::string dir = {});
  ~RunSpiller();

  RunSpiller(const RunSpiller&) = delete;
  RunSpiller& operator=(const RunSpiller&) = delete;

  /// Writes `run` — rows in ascending emission position — as one
  /// version-2 run file filed under `shard`, consuming it. Counts toward
  /// spill_runs(); encode stats accumulate in encode_stats().
  common::Status SpillBlockRun(ColumnarRun& run, std::uint32_t shard);

  /// Raw-vs-encoded byte counters over every run written.
  BlockEncodeStats encode_stats() const;

  /// The run files filed under `shard`, in position order (by each run's
  /// first position), so a reader consumes them in scan order no matter
  /// which map thread spilled first.
  std::vector<std::string> spill_run_paths(std::uint32_t shard) const;

  std::uint64_t spill_runs() const;
  std::uint64_t bytes_written() const;

 private:
  struct SpilledRun {
    std::uint32_t shard = 0;
    std::uint64_t first_pos = 0;
    std::string path;
  };

  std::string NextPath();

  std::string dir_;
  /// Owns the scratch directory when none was passed in; empty handle
  /// (no cleanup) when the caller supplied a shared dir.
  common::TempDir owned_dir_;
  mutable std::mutex mu_;
  std::vector<SpilledRun> runs_;
  BlockEncodeStats encode_stats_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t next_run_id_ = 0;
  std::uint64_t spiller_id_ = 0;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_RUN_WRITER_H_
