#include "src/storage/external_merge.h"

#include "src/obs/registry.h"
#include "src/obs/trace.h"

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

BlockLoserTree::BlockLoserTree(std::vector<BlockRunSource*> sources)
    : sources_(std::move(sources)) {
  const std::size_t k = sources_.size();
  for (std::size_t s = 0; s < k; ++s) {
    if (sources_[s]->Peek() == nullptr && !sources_[s]->status().ok()) {
      status_ = sources_[s]->status();
    }
  }
  if (k <= 1) {
    winner_ = 0;
    return;
  }
  // Build the tournament bottom-up in the complete-tree layout: leaves are
  // nodes k..2k-1 (leaf k+s = source s), internal nodes 1..k-1 each store
  // the loser of their subtree while the winner advances.
  std::vector<std::size_t> winners(2 * k);
  for (std::size_t s = 0; s < k; ++s) winners[k + s] = s;
  losers_.assign(k, 0);
  for (std::size_t node = k - 1; node >= 1; --node) {
    const std::size_t a = winners[2 * node];
    const std::size_t b = winners[2 * node + 1];
    const bool a_wins = Beats(a, b);
    winners[node] = a_wins ? a : b;
    losers_[node] = a_wins ? b : a;
  }
  winner_ = winners[1];
}

bool BlockLoserTree::Beats(std::size_t a, std::size_t b) {
  const RecordView* va = sources_[a]->Peek();
  const RecordView* vb = sources_[b]->Peek();
  if (va == nullptr) return false;
  if (vb == nullptr) return true;
  return RecordViewLess(*va, *vb);
}

void BlockLoserTree::Replay(std::size_t source) {
  const std::size_t k = sources_.size();
  std::size_t w = source;
  for (std::size_t node = (k + source) / 2; node >= 1; node /= 2) {
    if (Beats(losers_[node], w)) std::swap(w, losers_[node]);
  }
  winner_ = w;
}

const RecordView* BlockLoserTree::Peek() {
  if (sources_.empty() || !status_.ok()) return nullptr;
  const RecordView* v = sources_[winner_]->Peek();
  if (v == nullptr && !sources_[winner_]->status().ok()) {
    status_ = sources_[winner_]->status();
  }
  return status_.ok() ? v : nullptr;
}

void BlockLoserTree::Pop() {
  if (sources_.empty() || !status_.ok()) return;
  sources_[winner_]->Advance();
  if (sources_[winner_]->Peek() == nullptr &&
      !sources_[winner_]->status().ok()) {
    status_ = sources_[winner_]->status();
    return;
  }
  if (sources_.size() > 1) Replay(winner_);
}

common::Status ReduceBlockFanIn(
    std::vector<std::unique_ptr<BlockRunSource>>& sources,
    RunSpiller& spiller, std::size_t max_fan_in, SpillStats& stats) {
  if (max_fan_in < 2) max_fan_in = 2;
  while (sources.size() > max_fan_in) {
    stats.merge_passes += 1;
    obs::TraceSpan pass_span("MergePass", "spill");
    if (pass_span.active()) {
      pass_span.AddArg(
          obs::Arg("runs_in", static_cast<std::uint64_t>(sources.size())));
      pass_span.AddArg(
          obs::Arg("fan_in", static_cast<std::uint64_t>(max_fan_in)));
    }
    if (obs::MetricsEnabled()) {
      obs::Registry::Global().AddCounter("storage.merge_passes", 1);
    }
    std::vector<std::unique_ptr<BlockRunSource>> next;
    next.reserve((sources.size() + max_fan_in - 1) / max_fan_in);
    for (std::size_t lo = 0; lo < sources.size(); lo += max_fan_in) {
      const std::size_t hi = std::min(lo + max_fan_in, sources.size());
      if (hi - lo == 1) {
        next.push_back(std::move(sources[lo]));
        continue;
      }
      std::vector<BlockRunSource*> batch;
      batch.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        batch.push_back(sources[i].get());
      }
      BlockLoserTree tree(std::move(batch));
      auto writer = spiller.NewBlockRun();
      if (!writer.ok()) return writer.status();
      while (const RecordView* rec = tree.Peek()) {
        if (auto status = writer->Append(*rec); !status.ok()) return status;
        tree.Pop();
      }
      if (auto status = tree.status(); !status.ok()) return status;
      if (auto status = spiller.CloseBlockRun(*writer); !status.ok()) {
        return status;
      }
      next.push_back(std::make_unique<DiskBlockRunSource>(writer->path()));
    }
    sources = std::move(next);
  }
  return common::Status::Ok();
}

}  // namespace mrcost::storage
