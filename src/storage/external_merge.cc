#include "src/storage/external_merge.h"

namespace mrcost::storage {

const RecordView* DiskBlockRunSource::Peek() {
  if (done_ || !status_.ok()) return nullptr;
  if (!opened_) {
    opened_ = true;
    auto reader = SpillFileReader::Open(path_);
    if (!reader.ok()) {
      status_ = reader.status();
      return nullptr;
    }
    if (reader->version() != kSpillFormatVersionBlocks) {
      status_ = common::Status::InvalidArgument(
          "spill file: " + path_ + " is not a block-format run");
      return nullptr;
    }
    reader_ = std::make_unique<SpillFileReader>(std::move(reader.value()));
  }
  while (next_ >= run_.rows()) {
    bool file_done = false;
    status_ = reader_->Next(payload_, file_done);
    if (!status_.ok()) return nullptr;
    if (file_done) {
      done_ = true;
      return nullptr;
    }
    status_ = DecodeBlock(payload_, run_);
    if (!status_.ok()) return nullptr;
    next_ = 0;
  }
  view_ = run_.View(next_);
  return &view_;
}

}  // namespace mrcost::storage
