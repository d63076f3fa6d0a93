// Multi-process backend scaling sweep: one shuffle round (the
// "shuffle_sweep" recipe, default 1M pairs into 4096 keys) executed by
// the coordinator/worker runtime at 1, 2, 4, and 8 worker processes,
// against the in-process executor as baseline. Prints a human table plus
// one machine-readable JSON line per configuration (prefix BENCH_JSON)
// for BENCH_*.json trajectory tracking and bench/compare_bench.py
// regression checks (baseline: bench/baselines/bench_distd_wire.jsonl).
//
// What to expect: on a multi-core host, makespan should fall from 1 to
// 4 workers (map chunks and reduce shards genuinely run in separate
// processes), then flatten once worker count passes the round's
// chunk/shard parallelism. Chunks follow the input (8 at these sizes)
// and the round pins num_shards=8, so the task graph is host-independent
// and the sweep measures worker scaling, not chunking. Map runs stay in
// worker memory and reducers stream them socket-to-socket (the rows'
// transport field reads "wire").
//
// Flags: --pairs=N overrides the dataset size; --spill_dir=/
// --keep_spills place and preserve the job directory (chunk and result
// files); --trace_out=/--metrics_out= capture the coordinator's merged
// worker-lane trace. Leave capture unset when measuring.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/table.h"
#include "src/dist/protocol.h"
#include "src/dist/registry.h"
#include "src/dist/rpc.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/obs/export.h"
#include "src/storage/block.h"
#include "src/storage/wire_run.h"

namespace {

using mrcost::engine::ExecutionOptions;
using mrcost::engine::PipelineMetrics;

struct RunResult {
  double seconds = 0;
  PipelineMetrics metrics;
};

RunResult RunOnce(const std::string& args, const ExecutionOptions& options) {
  auto plan = mrcost::dist::PlanRegistry::Global().Build("shuffle_sweep", args);
  MRCOST_CHECK_OK(plan.status());
  const auto start = std::chrono::steady_clock::now();
  RunResult run;
  run.metrics = plan->Execute(options);
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

double ShuffleMb(const RunResult& run) {
  std::uint64_t bytes = 0;
  for (const auto& round : run.metrics.rounds) bytes += round.bytes_shuffled;
  return static_cast<double>(bytes) / 1e6;
}

// ----------------------------------------------------------------------
// Transport microbench: the shuffle data path in isolation — encode one
// run, move it over the socket, decode every block on the far side
// — with map/reduce compute excluded. EncodeRawRunFrames -> RunBlock/RunEnd
// frames over an AF_UNIX socket -> DecodeRawBlock per frame, exactly the
// DataServer -> WireBlockRunSource stream (sans credit stalls: one writer,
// one reader, kernel socket buffer as the window).

struct TransportResult {
  double seconds = 0;
  double raw_mb = 0;  // pre-codec columnar bytes, the shared numerator
  std::uint64_t rows = 0;
};

mrcost::storage::ColumnarRun SyntheticRun(std::size_t pairs,
                                          std::size_t keys) {
  mrcost::storage::ColumnarRun run;
  run.hashes.reserve(pairs);
  run.positions.reserve(pairs);
  std::string key;
  std::string value;
  for (std::size_t i = 0; i < pairs; ++i) {
    key.clear();
    mrcost::storage::SerializeValue(
        static_cast<std::uint64_t>(i % keys), key);
    value.clear();
    mrcost::storage::SerializeValue(static_cast<std::uint64_t>(i), value);
    run.hashes.push_back(mrcost::storage::HashBytes(key));
    run.positions.push_back(i);
    run.keys.Append(key);
    run.values.Append(value);
  }
  return run;
}

TransportResult WireTransportOnce(const mrcost::storage::ColumnarRun& run) {
  namespace storage = mrcost::storage;
  namespace dist = mrcost::dist;
  TransportResult result;
  result.raw_mb = static_cast<double>(run.RawBytes()) / 1e6;

  int sv[2];
  MRCOST_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
  const auto start = std::chrono::steady_clock::now();

  std::thread owner([&run, fd = sv[1]] {
    std::vector<std::string> frames;
    storage::BlockEncodeStats stats;
    storage::EncodeRawRunFrames(run, storage::kDefaultBlockBytes, frames,
                                stats);
    for (const std::string& frame : frames) {
      MRCOST_CHECK_OK(dist::WriteRunBlock(fd, frame));
    }
    dist::RunEndMsg end;
    end.blocks = frames.size();
    end.rows = run.rows();
    MRCOST_CHECK_OK(dist::WriteFrame(fd, dist::EncodeRunEnd(end)));
  });

  std::string payload;
  storage::ColumnarRun block;
  while (true) {
    MRCOST_CHECK_OK(dist::ReadFrame(sv[0], payload));
    const auto type = dist::PeekType(payload);
    MRCOST_CHECK_OK(type.status());
    if (*type == dist::MsgType::kRunEnd) break;
    const auto view = dist::RunBlockView(payload);
    MRCOST_CHECK_OK(view.status());
    MRCOST_CHECK_OK(storage::DecodeRawBlock(*view, block));
    result.rows += block.rows();
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  owner.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return result;
}

void PrintJson(const std::string& backend, const std::string& transport,
               std::size_t workers, std::size_t n, const RunResult& run) {
  // Schema is shaped for bench/compare_bench.py: *_per_s fields are the
  // compared metrics, *_ms fields are ignored, everything else keys the
  // row — so only deterministic fields (and no host facts like core
  // count) may sit outside those suffixes.
  std::printf(
      "BENCH_JSON {\"bench\":\"distd_scaling\",\"backend\":\"%s\","
      "\"transport\":\"%s\",\"workers\":%zu,\"pairs\":%llu,\"inputs\":%zu,"
      "\"wall_ms\":%.3f,"
      "\"mpairs_per_s\":%.3f,\"shuffle_mb_per_s\":%.3f,"
      "\"spill_bytes_written\":%llu,\"merge_passes\":%llu}\n",
      backend.c_str(), transport.c_str(), workers,
      static_cast<unsigned long long>(run.metrics.total_pairs()), n,
      run.seconds * 1e3,
      static_cast<double>(run.metrics.total_pairs()) / 1e6 / run.seconds,
      ShuffleMb(run) / run.seconds,
      static_cast<unsigned long long>(run.metrics.total_spill_bytes()),
      static_cast<unsigned long long>(
          run.metrics.rounds.empty() ? 0
                                     : run.metrics.rounds[0].merge_passes));
}

}  // namespace

int main(int argc, char** argv) {
  const mrcost::obs::CaptureFlags capture =
      mrcost::obs::ParseCaptureFlags(argc, argv);
  mrcost::obs::ScopedCapture trace_scope(capture.trace_out,
                                         capture.metrics_out);

  std::size_t pairs = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pairs=", 0) == 0) {
      pairs = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 8, nullptr, 10));
    }
  }
  const std::string args =
      "pairs=" + std::to_string(pairs) + ",keys=4096,seed=1";

  mrcost::common::Table table({"backend", "transport", "workers", "sec",
                               "Mpairs/s", "shuffle_MB/s", "spill_MB"});

  // Pin the round's task graph (8 chunks from the input, 8 shards)
  // independent of the host's core count: the sweep varies worker
  // processes, nothing else.
  ExecutionOptions in_process;
  in_process.pipeline.round_defaults.num_shards = 8;
  const RunResult baseline = RunOnce(args, in_process);
  table.AddRow()
      .Add("in_process")
      .Add("-")
      .Add("-")
      .Add(baseline.seconds)
      .Add(static_cast<double>(baseline.metrics.total_pairs()) / 1e6 /
           baseline.seconds)
      .Add(ShuffleMb(baseline) / baseline.seconds)
      .Add(static_cast<double>(baseline.metrics.total_spill_bytes()) / 1e6);
  PrintJson("in_process", "none", 0, pairs, baseline);

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ExecutionOptions options;
    options.pipeline.round_defaults.num_shards = 8;
    options.backend = mrcost::engine::ExecutionBackend::kMultiProcess;
    options.dist.num_workers = workers;
    options.dist.spill_dir = capture.spill_dir;
    options.dist.keep_spills = capture.keep_spills;
    const RunResult run = RunOnce(args, options);
    table.AddRow()
        .Add("multi_process")
        .Add("wire")
        .Add(static_cast<std::uint64_t>(workers))
        .Add(run.seconds)
        .Add(static_cast<double>(run.metrics.total_pairs()) / 1e6 /
             run.seconds)
        .Add(ShuffleMb(run) / run.seconds)
        .Add(static_cast<double>(run.metrics.total_spill_bytes()) / 1e6);
    PrintJson("multi_process", "wire", workers, pairs, run);
  }

  table.Print(std::cout,
              "multi-process shuffle scaling, " + std::to_string(pairs) +
                  " pairs, " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  " cores (wire = streamed fetch; baseline = in-process "
                  "executor)");

  // Transport in isolation: encode -> move -> decode, no map/reduce work.
  const mrcost::storage::ColumnarRun transport_run =
      SyntheticRun(pairs, 4096);
  const TransportResult wire = WireTransportOnce(transport_run);
  MRCOST_CHECK(wire.rows == transport_run.rows());
  mrcost::common::Table transport_table(
      {"transport", "sec", "raw_MB", "shuffle_MB/s"});
  transport_table.AddRow()
      .Add("wire")
      .Add(wire.seconds)
      .Add(wire.raw_mb)
      .Add(wire.raw_mb / wire.seconds);
  std::printf(
      "BENCH_JSON {\"bench\":\"distd_transport\",\"transport\":\"wire\","
      "\"pairs\":%zu,\"wall_ms\":%.3f,\"shuffle_mb_per_s\":%.3f}\n",
      pairs, wire.seconds * 1e3, wire.raw_mb / wire.seconds);
  transport_table.Print(
      std::cout,
      "shuffle data path in isolation (encode -> move -> decode one " +
          std::to_string(pairs) +
          "-pair run as identity frames over an AF_UNIX socket)");
  return 0;
}
