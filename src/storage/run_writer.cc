#include "src/storage/run_writer.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::storage {
namespace {

/// Distinguishes the spill files of concurrent shuffles (and of successive
/// shuffles in one process) within the shared spill directory.
std::uint64_t NextSpillerId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

common::Result<BlockRunFileWriter> BlockRunFileWriter::Create(
    const std::string& path, const Codec* codec, std::size_t block_bytes) {
  auto file = SpillFileWriter::Create(path, kSpillFormatVersionBlocks);
  if (!file.ok()) return file.status();
  if (codec == nullptr) codec = &DefaultSpillCodec();
  return BlockRunFileWriter(std::move(file.value()), codec, block_bytes);
}

common::Status BlockRunFileWriter::AppendRun(const ColumnarRun& run,
                                             std::size_t lo,
                                             std::size_t hi) {
  // Encode straight from the run's columns in ~block_bytes_ slices.
  std::size_t start = lo;
  std::size_t raw = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    raw += run.keys.At(i).size() + run.values.At(i).size() + 16;
    if (raw >= block_bytes_) {
      EncodeBlock(run, start, i + 1, *codec_, payload_, stats_);
      if (auto status = file_.AppendBlock(payload_); !status.ok()) {
        return status;
      }
      start = i + 1;
      raw = 0;
    }
  }
  if (start < hi) {
    EncodeBlock(run, start, hi, *codec_, payload_, stats_);
    if (auto status = file_.AppendBlock(payload_); !status.ok()) {
      return status;
    }
  }
  return common::Status::Ok();
}

common::Status BlockRunFileWriter::Finish() { return file_.Close(); }

RunSpiller::RunSpiller(std::string dir)
    : dir_(std::move(dir)), spiller_id_(NextSpillerId()) {
  if (dir_.empty()) {
    auto owned = common::TempDir::Create("", "mrcost-spill-dir-");
    if (owned.ok()) {
      owned_dir_ = std::move(owned.value());
      dir_ = owned_dir_.path();
    } else {
      std::error_code ec;
      dir_ = std::filesystem::temp_directory_path(ec).string();
      if (ec) dir_ = ".";
    }
  }
}

RunSpiller::~RunSpiller() {
  std::error_code ec;
  for (const SpilledRun& run : runs_) std::filesystem::remove(run.path, ec);
}

std::string RunSpiller::NextPath() {
  // Callers hold mu_.
  return (std::filesystem::path(dir_) /
          ("mrcost-spill-" + std::to_string(::getpid()) + "-" +
           std::to_string(spiller_id_) + "-" +
           std::to_string(next_run_id_++) + ".run"))
      .string();
}

common::Status RunSpiller::SpillBlockRun(ColumnarRun& run,
                                         std::uint32_t shard) {
  obs::TraceSpan span("SpillBlockRun", "spill");
  if (span.active()) {
    span.AddArg(obs::Arg("rows", static_cast<std::uint64_t>(run.rows())));
  }
  // Emission positions are globally unique and assigned in scan order, so
  // a run's first position is a deterministic read-order key — unlike
  // registration order, which depends on which map thread spilled first.
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = NextPath();
    runs_.push_back(SpilledRun{
        shard, run.positions.empty() ? 0 : run.positions.front(), path});
  }
  auto writer = BlockRunFileWriter::Create(path);
  if (!writer.ok()) return writer.status();
  if (auto status = writer->AppendRun(run, 0, run.rows()); !status.ok()) {
    return status;
  }
  if (auto status = writer->Finish(); !status.ok()) return status;
  run.Clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_written_ += writer->bytes_written();
    encode_stats_.Add(writer->stats());
  }
  if (span.active()) {
    span.AddArg(obs::Arg("bytes", writer->bytes_written()));
  }
  if (obs::MetricsEnabled()) {
    obs::Registry& registry = obs::Registry::Global();
    registry.AddCounter("storage.spill_runs", 1);
    registry.AddCounter("storage.spill_bytes", writer->bytes_written());
  }
  return common::Status::Ok();
}

BlockEncodeStats RunSpiller::encode_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return encode_stats_;
}

std::vector<std::string> RunSpiller::spill_run_paths(
    std::uint32_t shard) const {
  std::vector<std::pair<std::uint64_t, std::string>> keyed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpilledRun& run : runs_) {
      if (run.shard == shard) keyed.emplace_back(run.first_pos, run.path);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::string> paths;
  paths.reserve(keyed.size());
  for (auto& [pos, path] : keyed) paths.push_back(std::move(path));
  return paths;
}

std::uint64_t RunSpiller::spill_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

std::uint64_t RunSpiller::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace mrcost::storage
