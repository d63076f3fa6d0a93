#ifndef MRCOST_STORAGE_EXTERNAL_MERGE_H_
#define MRCOST_STORAGE_EXTERNAL_MERGE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "src/common/status.h"
#include "src/storage/block.h"
#include "src/storage/spill_file.h"

namespace mrcost::storage {

// Run sources walk *cursors*: each exposes a borrowed RecordView into its
// current decoded block, and the consumer (engine::internal::GroupRuns)
// copies only what it keeps — each group's key once, each value once. No
// per-record allocation on the read path.

/// A stream of records in columnar form, in ascending emission position.
/// Peek returns the current record or nullptr when drained/errored (check
/// status()); the view stays valid until the next Advance on this source.
class BlockRunSource {
 public:
  virtual ~BlockRunSource() = default;
  virtual const RecordView* Peek() = 0;
  virtual void Advance() = 0;
  virtual common::Status status() const = 0;
};

/// A run kept in memory: an external round's unspilled chunk tail.
class MemoryBlockRunSource : public BlockRunSource {
 public:
  explicit MemoryBlockRunSource(ColumnarRun run) : run_(std::move(run)) {}

  const RecordView* Peek() override {
    if (next_ >= run_.rows()) return nullptr;
    view_ = run_.View(next_);
    return &view_;
  }
  void Advance() override { ++next_; }
  common::Status status() const override { return common::Status::Ok(); }

 private:
  ColumnarRun run_;
  std::size_t next_ = 0;
  RecordView view_;
};

/// A version-2 spill file, streamed and decoded one block at a time (its
/// reader holds one decoded block, not the run).
class DiskBlockRunSource : public BlockRunSource {
 public:
  explicit DiskBlockRunSource(std::string path) : path_(std::move(path)) {}

  const RecordView* Peek() override;
  void Advance() override { ++next_; }
  common::Status status() const override { return status_; }

 private:
  std::string path_;
  std::unique_ptr<SpillFileReader> reader_;  // opened on first Peek
  bool opened_ = false;
  bool done_ = false;
  common::Status status_;
  std::string payload_;
  ColumnarRun run_;
  std::size_t next_ = 0;
  RecordView view_;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_EXTERNAL_MERGE_H_
