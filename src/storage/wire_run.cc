#include "src/storage/wire_run.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/dist/protocol.h"
#include "src/dist/rpc.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::storage {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One raw frame for rows [lo, hi): marker, counts, then bulk column
/// appends. `scratch` holds the rebased offsets between frames so each
/// frame costs one capacity check per column, not one per row — and no
/// resize() zero-fill pass over the payload before the real bytes land.
void EncodeRawFrame(const ColumnarRun& run, std::size_t lo, std::size_t hi,
                    std::vector<std::uint32_t>& scratch,
                    std::string& payload) {
  const std::size_t rows = hi - lo;
  const auto& koff = run.keys.offsets();
  const auto& voff = run.values.offsets();
  const std::uint64_t key_bytes = koff[hi] - koff[lo];
  const std::uint64_t value_bytes = voff[hi] - voff[lo];

  payload.clear();
  payload.reserve(16 + rows * 2 * sizeof(std::uint64_t) +
                  (rows + 1) * 2 * sizeof(std::uint32_t) + key_bytes +
                  value_bytes);
  payload.push_back(static_cast<char>(kRawFrameMarker));
  PutVarint(rows, payload);
  PutVarint(key_bytes, payload);
  PutVarint(value_bytes, payload);
  auto append_u64s = [&payload](const std::uint64_t* data, std::size_t n) {
    payload.append(reinterpret_cast<const char*>(data),
                   n * sizeof(std::uint64_t));
  };
  auto append_rebased = [&](const std::vector<std::uint64_t>& off) {
    scratch.resize(rows + 1);
    const std::uint64_t base = off[lo];
    for (std::size_t i = lo; i <= hi; ++i) {
      scratch[i - lo] = static_cast<std::uint32_t>(off[i] - base);
    }
    payload.append(reinterpret_cast<const char*>(scratch.data()),
                   (rows + 1) * sizeof(std::uint32_t));
  };
  append_u64s(run.hashes.data() + lo, rows);
  append_u64s(run.positions.data() + lo, rows);
  append_rebased(koff);
  payload.append(run.keys.bytes().data() + koff[lo], key_bytes);
  append_rebased(voff);
  payload.append(run.values.bytes().data() + voff[lo], value_bytes);
}

}  // namespace

void EncodeRawRunFrames(const ColumnarRun& run, std::size_t block_bytes,
                        std::vector<std::string>& frames,
                        BlockEncodeStats& stats) {
  if (block_bytes == 0) block_bytes = kDefaultBlockBytes;
  std::size_t start = 0;
  std::size_t raw = 0;
  const std::size_t rows = run.rows();
  std::vector<std::uint32_t> scratch;
  auto flush = [&](std::size_t end) {
    std::string payload;
    EncodeRawFrame(run, start, end, scratch, payload);
    stats.raw_bytes += raw;
    stats.encoded_bytes += payload.size();
    ++stats.blocks;
    frames.push_back(std::move(payload));
  };
  for (std::size_t i = 0; i < rows; ++i) {
    raw += run.keys.At(i).size() + run.values.At(i).size() + 16;
    if (raw >= block_bytes) {
      flush(i + 1);
      start = i + 1;
      raw = 0;
    }
  }
  if (start < rows) flush(rows);
}

common::Status DecodeRawBlock(std::string_view payload, ColumnarRun& run) {
  run.Clear();
  const char* p = payload.data();
  const char* end = p + payload.size();
  if (p == end || static_cast<std::uint8_t>(*p) != kRawFrameMarker) {
    return common::Status::Internal("raw block: bad marker");
  }
  ++p;
  std::uint64_t rows = 0, key_bytes = 0, value_bytes = 0;
  if (!GetVarint(p, end, rows) || !GetVarint(p, end, key_bytes) ||
      !GetVarint(p, end, value_bytes)) {
    return common::Status::Internal("raw block: truncated header");
  }
  const std::size_t need =
      rows * 2 * sizeof(std::uint64_t) +
      (rows + 1) * 2 * sizeof(std::uint32_t) + key_bytes + value_bytes;
  if (static_cast<std::size_t>(end - p) != need) {
    return common::Status::Internal("raw block: size mismatch");
  }
  auto take_u64s = [&](std::size_t n, std::vector<std::uint64_t>& out) {
    out.resize(n);
    std::memcpy(out.data(), p, n * sizeof(std::uint64_t));
    p += n * sizeof(std::uint64_t);
  };
  // Offsets ship as u32 (see wire_run.h); widen them back to the
  // ByteSlab's u64 column.
  auto take_offsets = [&](std::vector<std::uint64_t>& out) {
    out.resize(rows + 1);
    for (std::size_t i = 0; i <= rows; ++i) {
      std::uint32_t v = 0;
      std::memcpy(&v, p + i * sizeof(std::uint32_t), sizeof(v));
      out[i] = v;
    }
    p += (rows + 1) * sizeof(std::uint32_t);
  };
  take_u64s(rows, run.hashes);
  take_u64s(rows, run.positions);
  std::vector<std::uint64_t> koff;
  take_offsets(koff);
  std::string kbytes(p, key_bytes);
  p += key_bytes;
  std::vector<std::uint64_t> voff;
  take_offsets(voff);
  std::string vbytes(p, value_bytes);
  if (koff.empty() || koff.front() != 0 || koff.back() != key_bytes ||
      voff.front() != 0 || voff.back() != value_bytes) {
    return common::Status::Internal("raw block: bad offset column");
  }
  run.keys.AssignConcat(std::move(kbytes), std::move(koff));
  run.values.AssignConcat(std::move(vbytes), std::move(voff));
  return common::Status::Ok();
}

common::Result<std::uint64_t> RunRegistry::Put(
    const std::string& run_id, std::vector<std::string> frames,
    std::uint64_t rows) {
  auto run = std::make_shared<Run>();
  run->rows = rows;
  for (const std::string& frame : frames) run->frame_bytes += frame.size();

  std::unique_lock<std::mutex> lock(mu_);
  const bool overflow =
      budget_ > 0 && retained_ + run->frame_bytes > budget_;
  std::string overflow_path;
  if (overflow) {
    overflow_path = overflow_dir_ + "/ovf-" +
                    std::to_string(next_overflow_id_++) + ".run";
  }
  lock.unlock();

  std::uint64_t disk_bytes = 0;
  if (overflow) {
    std::error_code ec;
    std::filesystem::create_directories(overflow_dir_, ec);
    auto file = SpillFileWriter::Create(overflow_path,
                                        kSpillFormatVersionBlocks);
    if (!file.ok()) return file.status();
    SpillFileWriter writer = std::move(file.value());
    for (const std::string& frame : frames) {
      if (auto status = writer.AppendBlock(frame); !status.ok()) {
        return status;
      }
    }
    if (auto status = writer.Close(); !status.ok()) return status;
    disk_bytes = writer.bytes_written();
    run->overflow_path = overflow_path;
  } else {
    run->frames = std::move(frames);
  }

  lock.lock();
  if (run->overflow_path.empty()) {
    retained_ += run->frame_bytes;
  } else {
    overflow_ += run->frame_bytes;
  }
  if (!runs_.emplace(run_id, std::move(run)).second) {
    return common::Status::InvalidArgument(
        "run registry: duplicate run id " + run_id);
  }
  return disk_bytes;
}

std::shared_ptr<const RunRegistry::Run> RunRegistry::Find(
    const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run_id);
  return it == runs_.end() ? nullptr : it->second;
}

std::uint64_t RunRegistry::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

std::uint64_t RunRegistry::overflow_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflow_;
}

// ------------------------------------------------------ WireBlockRunSource

WireBlockRunSource::~WireBlockRunSource() {
  EmitFetchSpan();
  if (fd_ >= 0) ::close(fd_);
}

bool WireBlockRunSource::Open() {
  opened_ = true;
  t_open_us_ = obs::TraceRecorder::NowUs();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    status_ = common::Status::Internal(
        std::string("wire run: socket: ") + std::strerror(errno));
    return false;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.endpoint.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    status_ = common::Status::InvalidArgument(
        "wire run: endpoint path too long: " + options_.endpoint);
    return false;
  }
  std::memcpy(addr.sun_path, options_.endpoint.c_str(),
              options_.endpoint.size() + 1);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    // A dead owner leaves a stale socket path (ECONNREFUSED) or none at
    // all (ENOENT) — both are the retryable "source is gone" signal.
    ::close(fd);
    status_ = common::Status::Unavailable(
        "wire run: connect " + options_.endpoint + ": " +
        std::strerror(errno));
    return false;
  }
  fd_ = fd;
  dist::FetchRunMsg fetch;
  fetch.run_id = options_.run_id;
  fetch.credits = options_.credits > 0 ? options_.credits : 1;
  if (auto status = dist::WriteFrame(fd_, dist::EncodeFetchRun(fetch));
      !status.ok()) {
    status_ = common::Status::Unavailable("wire run: send FetchRun: " +
                                          status.ToString());
    return false;
  }
  return true;
}

bool WireBlockRunSource::NextBlock() {
  const auto t0 = std::chrono::steady_clock::now();
  if (auto status = dist::ReadFrame(fd_, payload_); !status.ok()) {
    // EOF, a cut frame or a reset mid-stream = the owner died under us;
    // retryable.
    status_ = dist::IsEof(status) ||
                      status.code() == common::StatusCode::kOutOfRange
                  ? common::Status::Unavailable(
                        "wire run: source closed mid-stream for " +
                        options_.run_id)
                  : status;
    return false;
  }
  stall_ms_ += MsSince(t0);
  auto type = dist::PeekType(payload_);
  if (!type.ok()) {
    status_ = type.status();
    return false;
  }
  switch (*type) {
    case dist::MsgType::kRunBlock: {
      auto view = dist::RunBlockView(payload_);
      if (!view.ok()) {
        status_ = view.status();
        return false;
      }
      status_ = DecodeRawBlock(*view, run_);
      if (!status_.ok()) return false;
      ++blocks_;
      wire_bytes_ += view->size();
      // The block is consumed (decoded) — hand its credit back so the
      // owner may push the next one past the window.
      if (auto status =
              dist::WriteFrame(fd_, dist::EncodeRunCredit({1}));
          !status.ok()) {
        status_ = common::Status::Unavailable(
            "wire run: send RunCredit: " + status.ToString());
        return false;
      }
      return true;
    }
    case dist::MsgType::kRunEnd: {
      dist::RunEndMsg end;
      if (auto status = dist::DecodeRunEnd(payload_, end); !status.ok()) {
        status_ = status;
        return false;
      }
      credit_wait_ms_ = end.credit_wait_ms;
      if (end.blocks != blocks_) {
        status_ = common::Status::Internal(
            "wire run: stream for " + options_.run_id + " delivered " +
            std::to_string(blocks_) + " blocks, owner sent " +
            std::to_string(end.blocks));
        return false;
      }
      done_ = true;
      EmitFetchSpan();
      return false;
    }
    case dist::MsgType::kRunError: {
      dist::RunErrorMsg error;
      if (auto status = dist::DecodeRunError(payload_, error);
          !status.ok()) {
        status_ = status;
        return false;
      }
      status_ = common::Status::Unavailable("wire run: " + error.message);
      return false;
    }
    default:
      status_ = common::Status::Internal(
          "wire run: unexpected message type " +
          std::to_string(static_cast<unsigned>(*type)) +
          " on data stream");
      return false;
  }
}

const RecordView* WireBlockRunSource::Peek() {
  if (done_ || !status_.ok()) return nullptr;
  if (!opened_ && !Open()) return nullptr;
  while (next_ >= run_.rows()) {
    if (!NextBlock()) return nullptr;
    next_ = 0;
  }
  view_ = run_.View(next_);
  return &view_;
}

void WireBlockRunSource::EmitFetchSpan() {
  if (span_emitted_ || !opened_) return;
  span_emitted_ = true;
  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry::Global();
    registry.AddCounter("dist.shuffle_bytes_wire", wire_bytes_);
    registry.ObserveHistogram("dist.fetch_stall_ms",
                              static_cast<std::uint64_t>(stall_ms_));
  }
  if (!obs::TraceRecorder::enabled()) return;
  obs::TraceEvent event;
  event.name = "FetchRun";
  event.category = "fetch";
  event.shard = options_.reducer_shard;
  event.t_start_us = t_open_us_;
  event.t_end_us = obs::TraceRecorder::NowUs();
  event.args.push_back(obs::Arg("run", options_.run_id));
  event.args.push_back(obs::Arg("reducer", options_.reducer_shard));
  event.args.push_back(obs::Arg("credits", options_.credits));
  event.args.push_back(obs::Arg("blocks", blocks_));
  event.args.push_back(obs::Arg("bytes", wire_bytes_));
  event.args.push_back(obs::Arg("stall_ms", stall_ms_));
  event.args.push_back(obs::Arg("credit_wait_ms", credit_wait_ms_));
  obs::TraceRecorder::Global().Append(std::move(event));
}

}  // namespace mrcost::storage
