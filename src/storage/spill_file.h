#ifndef MRCOST_STORAGE_SPILL_FILE_H_
#define MRCOST_STORAGE_SPILL_FILE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "src/common/status.h"

namespace mrcost::storage {

/// On-disk format of one spill run (see README "External shuffle"):
///
///   +-------------------+  file header
///   | u32 magic "MRSP"  |
///   | u32 version       |
///   +-------------------+  block, repeated until end of file
///   | u32 payload bytes |
///   | u32 CRC32(payload)|
///   | payload ...       |
///   +-------------------+
///
/// Payloads are opaque to this layer; the header's version says what they
/// hold (see the kSpillFormatVersion* constants below). Every block is
/// CRC-checked on read, so a torn write, a truncated file, or bit rot
/// surfaces as a Status instead of garbage groups.
std::uint32_t Crc32(const void* data, std::size_t n);

/// Extends a finished Crc32 value over more bytes, as if the original
/// buffer and `data` had been checksummed in one call:
/// Crc32Resume(Crc32(a), b) == Crc32(a + b). Lets framing layers checksum
/// a logically concatenated payload without materializing it.
std::uint32_t Crc32Resume(std::uint32_t crc, const void* data,
                          std::size_t n);

inline constexpr std::uint32_t kSpillMagic = 0x5053524Du;  // "MRSP"

/// Version 1: each payload is a u64 item count followed by that many
/// serialized values (src/storage/serde.h) — the multi-process backend's
/// map-input chunk files and reduce result files.
inline constexpr std::uint32_t kSpillFormatVersionValues = 1;

/// Version 2: each payload is one encoded columnar block
/// (src/storage/block.h — codec id, varint raw size, compressed body) —
/// every shuffle run file. The frame layer is the same for both versions;
/// readers accept both and expose which one they got.
inline constexpr std::uint32_t kSpillFormatVersionBlocks = 2;

/// Blocks are flushed once their payload reaches this size (a single
/// oversized record still forms one valid, larger block).
inline constexpr std::size_t kDefaultBlockBytes = 256 * 1024;

/// Reject block length fields beyond this before allocating: no writer
/// produces them, so a larger length means a corrupt frame header.
inline constexpr std::uint32_t kMaxBlockBytes = 1u << 30;

/// Appends CRC-framed blocks to a spill file. Create() writes the header;
/// Close() flushes (the file persists — cleanup belongs to the caller,
/// normally a RunSpiller).
class SpillFileWriter {
 public:
  static common::Result<SpillFileWriter> Create(
      const std::string& path,
      std::uint32_t version = kSpillFormatVersionValues);

  SpillFileWriter(SpillFileWriter&&) = default;
  SpillFileWriter& operator=(SpillFileWriter&&) = default;

  common::Status AppendBlock(const std::string& payload);
  common::Status Close();

  /// Bytes written so far, header and block frames included.
  std::uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  SpillFileWriter() = default;

  std::ofstream out_;
  std::string path_;
  std::uint64_t bytes_written_ = 0;
};

/// Streams the blocks of a spill file back, verifying the header on Open
/// and each block's CRC on Next.
class SpillFileReader {
 public:
  static common::Result<SpillFileReader> Open(const std::string& path);

  SpillFileReader(SpillFileReader&&) = default;
  SpillFileReader& operator=(SpillFileReader&&) = default;

  /// Reads the next block's payload. Sets `done` (payload untouched) at a
  /// clean end of file; a partial frame returns kOutOfRange ("truncated")
  /// and a CRC mismatch kInternal.
  common::Status Next(std::string& payload, bool& done);

  const std::string& path() const { return path_; }

  /// Format version from the file header (kSpillFormatVersionValues or
  /// kSpillFormatVersionBlocks).
  std::uint32_t version() const { return version_; }

 private:
  SpillFileReader() = default;

  std::ifstream in_;
  std::string path_;
  std::uint32_t version_ = kSpillFormatVersionValues;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_SPILL_FILE_H_
