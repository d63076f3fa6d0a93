#ifndef MRCOST_STORAGE_WIRE_RUN_H_
#define MRCOST_STORAGE_WIRE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/spill_file.h"

namespace mrcost::storage {

// The multi-process shuffle's storage half: map tasks keep their sorted
// runs as raw columnar frames in a worker-local RunRegistry instead of
// writing them into the shared job directory, and reduce tasks pull them
// through a WireBlockRunSource — a BlockRunSource that decodes frames
// straight off a data socket, so the k-way merge overlaps the fetch. Merge
// output depends only on the record sequence, never on how frames slice
// it, so it matches the in-process external merge.

/// First byte of a raw columnar frame. Deliberately outside the codec id
/// space, so a raw frame misrouted into DecodeBlock fails loudly instead
/// of decoding garbage.
inline constexpr std::uint8_t kRawFrameMarker = 0xFF;

/// The wire frame format: the run's columns shipped verbatim (hash column
/// included) instead of the spill files' codec-compressed, varint-packed
/// bodies. Local sockets move bytes at memcpy speed, so spending CPU to
/// shrink them is a loss there — and shipping the hashes lets the decoder
/// skip recomputing HashBytes per key, which is a large share of
/// DecodeBlock's work. Frames are cut at ~`block_bytes` of raw columnar
/// data, the slicing BlockRunFileWriter::AppendRun applies. Layout after
/// the marker byte:
///
///   varint rows | varint key bytes | varint value bytes |
///   hashes (rows u64) | positions (rows u64) |
///   key offsets (rows+1 u32, rebased to 0) | key slab |
///   value offsets (rows+1 u32, rebased) | value slab
///
/// Rebased offsets fit u32 because a frame never exceeds the RPC layer's
/// 1 GiB frame cap — an encoder producing a larger frame (one monster
/// row) fails loudly at WriteRunBlock rather than wrapping here.
void EncodeRawRunFrames(const ColumnarRun& run, std::size_t block_bytes,
                        std::vector<std::string>& frames,
                        BlockEncodeStats& stats);

/// Decodes one raw columnar frame back into `run` (cleared first). Map
/// tasks publish raw frames only, and an overflow file holds the same raw
/// frames, so anything else on the wire is corruption.
common::Status DecodeRawBlock(std::string_view payload, ColumnarRun& run);

/// A worker's local store of encoded runs awaiting fetch, keyed by run id.
/// Thread-safe: map tasks Put from the worker main loop while data-server
/// threads Find and stream. Entries are immutable once published (shared
/// ownership keeps a run alive for in-flight fetches even if the registry
/// dies first).
///
/// `retain_budget_bytes` caps the in-memory frame bytes: a Put that would
/// exceed it lands in an overflow file under `overflow_dir` instead
/// (spill-v2, one frame per CRC block) and is served from disk — the
/// shuffle pays a disk write and read instead of OOMing.
class RunRegistry {
 public:
  struct Run {
    /// In-memory frames; empty when the run overflowed to disk.
    std::vector<std::string> frames;
    /// Overflow file path; empty when the run is in memory.
    std::string overflow_path;
    std::uint64_t rows = 0;
    std::uint64_t frame_bytes = 0;
  };

  explicit RunRegistry(std::string overflow_dir,
                       std::uint64_t retain_budget_bytes = 0)
      : overflow_dir_(std::move(overflow_dir)),
        budget_(retain_budget_bytes) {}

  /// Publishes `frames` under `run_id` (ids must be unique — the caller
  /// bakes attempt numbers in). Consumes the frames. Returns the bytes
  /// written to disk: the overflow file's size, 0 for a run kept in
  /// memory.
  common::Result<std::uint64_t> Put(const std::string& run_id,
                                    std::vector<std::string> frames,
                                    std::uint64_t rows);

  /// The run, or nullptr if the id is unknown.
  std::shared_ptr<const Run> Find(const std::string& run_id) const;

  std::uint64_t retained_bytes() const;
  std::uint64_t overflow_bytes() const;

 private:
  std::string overflow_dir_;
  std::uint64_t budget_ = 0;
  mutable std::mutex mu_;
  std::uint64_t retained_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t next_overflow_id_ = 0;
  std::unordered_map<std::string, std::shared_ptr<const Run>> runs_;
};

/// A sorted run streamed over a worker data socket (dist/protocol.h
/// FetchRun family), decoded one block at a time like DiskBlockRunSource.
/// Connects lazily on the first Peek: sends FetchRun{run_id, credits},
/// then decodes RunBlock frames, returning one credit per decoded block so
/// the server never has more than `credits` un-consumed blocks in flight —
/// the reducer's memory bound under memory_budget_bytes.
///
/// A connect failure, mid-stream EOF, or RunError surfaces as
/// StatusCode::kUnavailable — the signal the distributed executor turns
/// into map re-execution + re-fetch. Everything else (CRC mismatch,
/// malformed block) stays kInternal: corruption is not retryable.
class WireBlockRunSource : public BlockRunSource {
 public:
  struct Options {
    std::string endpoint;  // AF_UNIX path of the owner's data socket
    std::string run_id;
    std::uint32_t credits = 4;  // block window granted to the server
    /// Trace tagging: which reducer shard this fetch feeds.
    std::uint32_t reducer_shard = 0;
  };

  explicit WireBlockRunSource(Options options)
      : options_(std::move(options)) {}
  ~WireBlockRunSource() override;

  const RecordView* Peek() override;
  void Advance() override { ++next_; }
  common::Status status() const override { return status_; }

 private:
  bool Open();       // connect + FetchRun; false sets status_
  bool NextBlock();  // one RunBlock into run_; false = end/error
  void EmitFetchSpan();

  Options options_;
  int fd_ = -1;
  bool opened_ = false;
  bool done_ = false;
  common::Status status_;
  std::string payload_;
  ColumnarRun run_;
  std::size_t next_ = 0;
  RecordView view_;

  // Per-fetch observability, emitted once as a "FetchRun" span.
  std::uint64_t t_open_us_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t wire_bytes_ = 0;
  double stall_ms_ = 0;
  double credit_wait_ms_ = 0;  // server-side, reported in RunEnd
  bool span_emitted_ = false;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_WIRE_RUN_H_
