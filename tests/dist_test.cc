// The multi-process distributed runtime (src/dist/): RPC framing and its
// corruption Status paths, the shuffle data-plane messages and raw wire
// frames, the coordinator's task-attempt state machine, TempDir, the
// recipe registry, and — the load-bearing contract — e2e byte-identity of
// every family driver between the in-process and multi-process backends,
// across worker counts, shuffle transports (spill files and wire
// streaming), in-process shuffle strategies, and a SIGKILL'd worker both
// mid-map and mid-fetch.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/dist/coordinator.h"
#include "src/dist/protocol.h"
#include "src/dist/recipes.h"
#include "src/dist/registry.h"
#include "src/dist/rpc.h"
#include "src/engine/plan.h"
#include "src/graph/generators.h"
#include "src/graph/sample_graph_mr.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/obs/export.h"
#include "src/storage/block.h"
#include "src/storage/serde.h"
#include "src/storage/spill_file.h"
#include "src/storage/wire_run.h"

namespace mrcost {
namespace {

using common::Status;
using common::StatusCode;

// ------------------------------------------------------------ RPC framing

struct Pipe {
  int fds[2];
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    Close(0);
    Close(1);
  }
  void Close(int i) {
    if (fds[i] >= 0) {
      ::close(fds[i]);
      fds[i] = -1;
    }
  }
};

TEST(RpcFrame, RoundTripsPayloads) {
  Pipe pipe;
  const std::string payloads[] = {"", "x", std::string(100000, 'q')};
  // The 100 KB frame exceeds the default pipe buffer, so the writes must
  // run concurrently with the reads (as they do between processes).
  std::thread writer([&] {
    for (const std::string& sent : payloads) {
      EXPECT_TRUE(dist::WriteFrame(pipe.fds[1], sent).ok());
    }
  });
  for (const std::string& sent : payloads) {
    std::string got;
    ASSERT_TRUE(dist::ReadFrame(pipe.fds[0], got).ok());
    EXPECT_EQ(got, sent);
  }
  writer.join();
}

TEST(RpcFrame, CleanEofIsNotFound) {
  Pipe pipe;
  pipe.Close(1);
  std::string got;
  const Status status = dist::ReadFrame(pipe.fds[0], got);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(dist::IsEof(status));
}

TEST(RpcFrame, TruncatedFrameIsOutOfRange) {
  // Full header promising 32 bytes, then only 5 bytes and EOF.
  Pipe pipe;
  const std::uint32_t len = 32;
  const std::uint32_t crc = 0;
  ASSERT_EQ(::write(pipe.fds[1], &len, 4), 4);
  ASSERT_EQ(::write(pipe.fds[1], &crc, 4), 4);
  ASSERT_EQ(::write(pipe.fds[1], "hello", 5), 5);
  pipe.Close(1);
  std::string got;
  const Status status = dist::ReadFrame(pipe.fds[0], got);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(dist::IsEof(status));
}

TEST(RpcFrame, TruncatedHeaderIsOutOfRange) {
  Pipe pipe;
  ASSERT_EQ(::write(pipe.fds[1], "abc", 3), 3);
  pipe.Close(1);
  std::string got;
  EXPECT_EQ(dist::ReadFrame(pipe.fds[0], got).code(),
            StatusCode::kOutOfRange);
}

TEST(RpcFrame, CorruptPayloadIsInternal) {
  Pipe pipe;
  ASSERT_TRUE(dist::WriteFrame(pipe.fds[1], "important bytes").ok());
  // Flip one payload byte in flight: read the raw frame, corrupt, resend.
  char buffer[64];
  const ssize_t raw = ::read(pipe.fds[0], buffer, sizeof(buffer));
  ASSERT_GT(raw, 8);
  buffer[9] ^= 0x40;
  ASSERT_EQ(::write(pipe.fds[1], buffer, raw), raw);
  std::string got;
  EXPECT_EQ(dist::ReadFrame(pipe.fds[0], got).code(), StatusCode::kInternal);
}

TEST(RpcFrame, OversizeLengthIsInvalidArgument) {
  Pipe pipe;
  const std::uint32_t len = dist::kMaxFrameBytes + 1;
  const std::uint32_t crc = 0;
  ASSERT_EQ(::write(pipe.fds[1], &len, 4), 4);
  ASSERT_EQ(::write(pipe.fds[1], &crc, 4), 4);
  std::string got;
  EXPECT_EQ(dist::ReadFrame(pipe.fds[0], got).code(),
            StatusCode::kInvalidArgument);
}

TEST(RpcFrame, UncheckedFrameIsAccepted) {
  // Data-plane frames skip the checksum (kUncheckedCrc); ReadFrame must
  // pass them through without a CRC complaint.
  Pipe pipe;
  ASSERT_TRUE(
      dist::WriteFrame(pipe.fds[1], "bulk bytes", /*checksum=*/false).ok());
  std::string got;
  ASSERT_TRUE(dist::ReadFrame(pipe.fds[0], got).ok());
  EXPECT_EQ(got, "bulk bytes");
}

TEST(RpcFrame, PartsFrameArrivesConcatenated) {
  // WriteFrameParts writevs head and body from separate buffers; the
  // receiver must see one contiguous payload, and the checksum must cover
  // the concatenation (Crc32Resume), not just the first part.
  Pipe pipe;
  ASSERT_TRUE(
      dist::WriteFrameParts(pipe.fds[1], "head|", "body bytes").ok());
  std::string got;
  ASSERT_TRUE(dist::ReadFrame(pipe.fds[0], got).ok());
  EXPECT_EQ(got, "head|body bytes");
}

TEST(RpcFrame, ShortWritesReassembleAcrossSocketpair) {
  // A frame far larger than a deliberately tiny socket buffer forces
  // writev to return short over and over; WriteAllV must resume mid-iovec
  // (and mid-part) until every byte lands, and the reader must stitch the
  // short reads back into one exact payload.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4 * 1024;
  ::setsockopt(sv[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ::setsockopt(sv[0], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  const std::string head = "hdr:";
  std::string body(1 << 20, '\0');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + i % 26);
  }
  std::thread writer([&] {
    EXPECT_TRUE(
        dist::WriteFrameParts(sv[1], head, body, /*checksum=*/false).ok());
  });
  std::string got;
  ASSERT_TRUE(dist::ReadFrame(sv[0], got).ok());
  writer.join();
  ASSERT_EQ(got.size(), head.size() + body.size());
  EXPECT_EQ(got.compare(0, head.size(), head), 0);
  EXPECT_EQ(got.compare(head.size(), std::string::npos, body), 0);
  ::close(sv[0]);
  ::close(sv[1]);
}

// --------------------------------------------------------------- protocol

TEST(Protocol, HelloRoundTrips) {
  dist::HelloMsg hello;
  hello.worker_index = 3;
  hello.recipe = "hamming_splitting";
  hello.args = "b=10,k=5,d=1";
  hello.spill_dir = "/tmp/x";
  hello.trace_enabled = 1;
  hello.heartbeat_interval_ms = 12.5;
  hello.self_kill_after_tasks = 2;
  hello.coord_now_us = 987654321;
  hello.shuffle_transport = 1;
  hello.retain_budget_bytes = 1 << 20;
  hello.self_kill_after_fetches = 3;
  const std::string payload = dist::EncodeHello(hello);
  ASSERT_EQ(*dist::PeekType(payload), dist::MsgType::kHello);
  dist::HelloMsg decoded;
  ASSERT_TRUE(dist::DecodeHello(payload, decoded).ok());
  EXPECT_EQ(decoded.worker_index, hello.worker_index);
  EXPECT_EQ(decoded.recipe, hello.recipe);
  EXPECT_EQ(decoded.args, hello.args);
  EXPECT_EQ(decoded.spill_dir, hello.spill_dir);
  EXPECT_EQ(decoded.trace_enabled, 1);
  EXPECT_EQ(decoded.heartbeat_interval_ms, 12.5);
  EXPECT_EQ(decoded.self_kill_after_tasks, 2u);
  EXPECT_EQ(decoded.coord_now_us, 987654321u);
  EXPECT_EQ(decoded.shuffle_transport, 1);
  EXPECT_EQ(decoded.retain_budget_bytes, 1u << 20);
  EXPECT_EQ(decoded.self_kill_after_fetches, 3u);
}

TEST(Protocol, TaskMessagesRoundTrip) {
  dist::MapTaskMsg map;
  map.task_id = 42;
  map.node = 1;
  map.chunk = 7;
  map.num_shards = 4;
  map.chunk_path = "/x/c7.chunk";
  map.run_prefix = "/x/r1-c7-a1";
  dist::MapTaskMsg map2;
  ASSERT_TRUE(dist::DecodeMapTask(dist::EncodeMapTask(map), map2).ok());
  EXPECT_EQ(map2.task_id, 42u);
  EXPECT_EQ(map2.run_prefix, map.run_prefix);

  dist::ReduceTaskMsg reduce;
  reduce.task_id = 43;
  reduce.shard = 2;
  reduce.run_paths = {"/x/a.run", "/x/b.run"};
  reduce.run_endpoints = {"/x/w0.sock", ""};
  reduce.fetch_credits = 8;
  reduce.result_path = "/x/s2.res";
  dist::ReduceTaskMsg reduce2;
  ASSERT_TRUE(
      dist::DecodeReduceTask(dist::EncodeReduceTask(reduce), reduce2).ok());
  EXPECT_EQ(reduce2.run_paths, reduce.run_paths);
  EXPECT_EQ(reduce2.run_endpoints, reduce.run_endpoints);
  EXPECT_EQ(reduce2.fetch_credits, 8u);

  dist::TaskDoneMsg done;
  done.task_id = 43;
  done.ok = 1;
  done.retryable = 1;
  done.payload = std::string("\x01\x02\x00\x03", 4);
  dist::TaskDoneMsg done2;
  ASSERT_TRUE(dist::DecodeTaskDone(dist::EncodeTaskDone(done), done2).ok());
  EXPECT_EQ(done2.payload, done.payload);
  EXPECT_EQ(done2.retryable, 1);

  const std::string truncated =
      dist::EncodeTaskDone(done).substr(0, 6);
  EXPECT_FALSE(dist::DecodeTaskDone(truncated, done2).ok());
}

TEST(Protocol, ShuffleMessagesRoundTrip) {
  dist::FetchRunMsg fetch;
  fetch.run_id = "r1-c7-a1-s3.wire";
  fetch.credits = 6;
  dist::FetchRunMsg fetch2;
  ASSERT_TRUE(dist::DecodeFetchRun(dist::EncodeFetchRun(fetch), fetch2).ok());
  EXPECT_EQ(fetch2.run_id, fetch.run_id);
  EXPECT_EQ(fetch2.credits, 6u);

  dist::RunCreditMsg credit;
  credit.credits = 2;
  dist::RunCreditMsg credit2;
  ASSERT_TRUE(
      dist::DecodeRunCredit(dist::EncodeRunCredit(credit), credit2).ok());
  EXPECT_EQ(credit2.credits, 2u);

  dist::RunEndMsg end;
  end.blocks = 5;
  end.rows = 1234;
  end.credit_wait_ms = 1.5;
  dist::RunEndMsg end2;
  ASSERT_TRUE(dist::DecodeRunEnd(dist::EncodeRunEnd(end), end2).ok());
  EXPECT_EQ(end2.blocks, 5u);
  EXPECT_EQ(end2.rows, 1234u);
  EXPECT_EQ(end2.credit_wait_ms, 1.5);

  dist::RunErrorMsg error;
  error.message = "unknown run r9";
  dist::RunErrorMsg error2;
  ASSERT_TRUE(
      dist::DecodeRunError(dist::EncodeRunError(error), error2).ok());
  EXPECT_EQ(error2.message, error.message);
}

TEST(Protocol, RunBlockStreamsVerbatim) {
  // The scatter-write fast path must deliver exactly what EncodeRunBlock
  // would have: one frame whose payload is the type word + raw block
  // bytes, viewable in place.
  Pipe pipe;
  const std::string frame("\xFF\x01raw\x00block", 10);
  ASSERT_TRUE(dist::WriteRunBlock(pipe.fds[1], frame).ok());
  std::string payload;
  ASSERT_TRUE(dist::ReadFrame(pipe.fds[0], payload).ok());
  ASSERT_EQ(*dist::PeekType(payload), dist::MsgType::kRunBlock);
  EXPECT_EQ(payload, dist::EncodeRunBlock(frame));
  const auto view = dist::RunBlockView(payload);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view, frame);
}

// ----------------------------------------------------- task state machine

TEST(TaskStateMachine, FirstCommitWinsAcrossReissue) {
  dist::TaskStateMachine machine;
  machine.Add(1);
  machine.Add(2);
  EXPECT_EQ(machine.state(1), dist::TaskStateMachine::State::kPending);

  machine.Assign(1, /*worker=*/0);
  machine.Assign(2, /*worker=*/0);
  EXPECT_EQ(machine.worker_of(1), 0);
  EXPECT_EQ(machine.attempts(1), 1);

  // Worker 0 misses heartbeats and is declared dead: both running tasks
  // come back pending, to be re-issued.
  const auto reassigned = machine.ReassignWorker(0);
  EXPECT_EQ(reassigned.size(), 2u);
  EXPECT_EQ(machine.state(1), dist::TaskStateMachine::State::kPending);
  EXPECT_EQ(machine.worker_of(1), -1);

  machine.Assign(1, /*worker=*/1);
  EXPECT_EQ(machine.attempts(1), 2);
  EXPECT_TRUE(machine.Commit(1));
  // The zombie attempt's late commit loses.
  EXPECT_FALSE(machine.Commit(1));
  EXPECT_EQ(machine.state(1), dist::TaskStateMachine::State::kDone);
  EXPECT_FALSE(machine.AllDone());

  machine.Assign(2, 1);
  EXPECT_TRUE(machine.Commit(2));
  EXPECT_TRUE(machine.AllDone());

  // Reassigning a worker with nothing running is a no-op.
  EXPECT_TRUE(machine.ReassignWorker(1).empty());
}

// ---------------------------------------------------------------- TempDir

TEST(TempDir, CreatesUniqueDirsAndRemoves) {
  auto a = common::TempDir::Create();
  auto b = common::TempDir::Create();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->path(), b->path());
  EXPECT_TRUE(std::filesystem::is_directory(a->path()));

  const std::string path = a->path();
  std::filesystem::create_directories(path + "/nested/deep");
  std::ofstream(path + "/nested/file.bin") << "x";
  ASSERT_TRUE(a->Remove().ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(a->Remove().ok());  // idempotent
}

TEST(TempDir, DestructorCleansUnlessKept) {
  std::string removed_path;
  std::string kept_path;
  {
    auto dir = common::TempDir::Create();
    ASSERT_TRUE(dir.ok());
    removed_path = dir->path();
    auto kept = common::TempDir::Create();
    ASSERT_TRUE(kept.ok());
    kept->Keep();
    kept_path = kept->path();
    common::TempDir moved = std::move(*kept);
    EXPECT_TRUE(moved.kept());
  }
  EXPECT_FALSE(std::filesystem::exists(removed_path));
  EXPECT_TRUE(std::filesystem::exists(kept_path));
  std::filesystem::remove_all(kept_path);
}

TEST(TempDir, CreatesUnderRequestedBase) {
  auto base = common::TempDir::Create();
  ASSERT_TRUE(base.ok());
  auto nested = common::TempDir::Create(base->path(), "job-");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->path().find(base->path()), 0u);
  EXPECT_NE(nested->path().find("job-"), std::string::npos);
}

// ----------------------------------------------------------- capture flags

TEST(CaptureFlags, ParsesSpillFlags) {
  const char* argv[] = {"prog", "--spill_dir=/tmp/spills", "--keep_spills",
                        "--trace_out=/tmp/t.json", "positional"};
  const obs::CaptureFlags flags =
      obs::ParseCaptureFlags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.spill_dir, "/tmp/spills");
  EXPECT_TRUE(flags.keep_spills);
  EXPECT_EQ(flags.trace_out, "/tmp/t.json");

  const char* none[] = {"prog"};
  const obs::CaptureFlags defaults =
      obs::ParseCaptureFlags(1, const_cast<char**>(none));
  EXPECT_TRUE(defaults.spill_dir.empty());
  EXPECT_FALSE(defaults.keep_spills);
}

// ----------------------------------------------------------- the registry

TEST(PlanRegistry, BuildsBuiltinsAndRejectsUnknown) {
  auto& registry = dist::PlanRegistry::Global();
  const auto names = registry.Names();
  for (const char* expected :
       {"hamming_splitting", "hamming_ball", "join_triangle",
        "matmul_one_phase", "matmul_two_phase", "graph_sample", "quickstart",
        "shuffle_sweep"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }

  auto plan = registry.Build("shuffle_sweep", "pairs=100,keys=7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->graph()->dist_recipe, "shuffle_sweep");
  EXPECT_EQ(plan->graph()->dist_args, "pairs=100,keys=7");

  EXPECT_EQ(registry.Build("no_such_recipe", "").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(registry.Build("shuffle_sweep", "pairs").ok());
}

// ------------------------------------------------- wire shuffle storage

TEST(WireRun, RawFramesRoundTrip) {
  storage::ColumnarRun run;
  for (int i = 0; i < 1000; ++i) {
    const std::string key =
        "k" + std::string(i % 7, 'x') + std::to_string(i);
    const std::string value =
        i % 11 ? std::string(i % 50, static_cast<char>('a' + i % 26))
               : std::string();
    run.hashes.push_back(storage::HashBytes(key));
    run.positions.push_back(static_cast<std::uint64_t>(i));
    run.keys.Append(key);
    run.values.Append(value);
  }

  std::vector<std::string> frames;
  storage::BlockEncodeStats stats;
  storage::EncodeRawRunFrames(run, /*block_bytes=*/512, frames, stats);
  ASSERT_GT(frames.size(), 1u);  // tiny blocks force multiple frames
  EXPECT_EQ(stats.blocks, frames.size());

  storage::ColumnarRun got;
  storage::ColumnarRun block;
  for (const std::string& frame : frames) {
    ASSERT_TRUE(storage::DecodeAnyBlock(frame, block).ok());
    for (std::size_t i = 0; i < block.rows(); ++i) {
      got.hashes.push_back(block.hashes[i]);
      got.positions.push_back(block.positions[i]);
      got.keys.Append(block.keys.At(i));
      got.values.Append(block.values.At(i));
    }
  }
  ASSERT_EQ(got.rows(), run.rows());
  EXPECT_EQ(got.hashes, run.hashes);
  EXPECT_EQ(got.positions, run.positions);
  for (std::size_t i = 0; i < run.rows(); ++i) {
    EXPECT_EQ(got.keys.At(i), run.keys.At(i)) << i;
    EXPECT_EQ(got.values.At(i), run.values.At(i)) << i;
  }

  // A truncated raw frame fails loudly instead of mis-decoding.
  std::string bad = frames[0];
  bad.pop_back();
  EXPECT_FALSE(storage::DecodeAnyBlock(bad, block).ok());

  // DecodeAnyBlock also dispatches codec frames (the overflow-file path).
  std::vector<std::string> codec_frames;
  storage::BlockEncodeStats codec_stats;
  storage::EncodeRunFrames(run, nullptr, /*block_bytes=*/512, codec_frames,
                           codec_stats);
  ASSERT_FALSE(codec_frames.empty());
  ASSERT_TRUE(storage::DecodeAnyBlock(codec_frames[0], block).ok());
  EXPECT_EQ(block.keys.At(0), run.keys.At(0));
}

TEST(WireRun, RegistryOverflowsPastBudget) {
  auto dir = common::TempDir::Create();
  ASSERT_TRUE(dir.ok());
  storage::RunRegistry registry(dir->path() + "/ovf",
                                /*retain_budget_bytes=*/64);

  ASSERT_TRUE(registry.Put("a", {std::string(40, 'x')}, 1).ok());
  EXPECT_EQ(registry.retained_bytes(), 40u);
  auto a = registry.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->overflow_path.empty());
  ASSERT_EQ(a->frames.size(), 1u);

  // The second run would exceed the 64-byte budget: it must land on disk
  // as a spill-v2 file holding the same frame payloads, not in memory.
  ASSERT_TRUE(
      registry.Put("b", {std::string(40, 'y'), std::string(8, 'z')}, 2)
          .ok());
  auto b = registry.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->overflow_path.empty());
  EXPECT_TRUE(b->frames.empty());
  EXPECT_EQ(registry.overflow_bytes(), 48u);
  auto file = storage::SpillFileReader::Open(b->overflow_path);
  ASSERT_TRUE(file.ok());
  std::string payload;
  bool done = false;
  ASSERT_TRUE(file->Next(payload, done).ok());
  ASSERT_FALSE(done);
  EXPECT_EQ(payload, std::string(40, 'y'));
  ASSERT_TRUE(file->Next(payload, done).ok());
  EXPECT_EQ(payload, std::string(8, 'z'));

  EXPECT_EQ(registry.Find("missing"), nullptr);
  EXPECT_FALSE(registry.Put("a", {}, 0).ok());  // duplicate id
}

// ------------------------------------------------- e2e backend identity

/// Byte-identity taken literally: outputs serialized through the same
/// serde the shuffle uses, compared as strings.
template <typename T>
std::string SerializedBytes(const std::vector<T>& values) {
  std::string bytes;
  for (const T& value : values) {
    T copy = value;
    storage::SerializeValue(copy, bytes);
  }
  return bytes;
}

engine::ExecutionOptions MultiProcessOptions(int workers) {
  engine::ExecutionOptions options;
  options.backend = engine::ExecutionBackend::kMultiProcess;
  options.dist.num_workers = workers;
  return options;
}

/// Runs `build()`'s dataset under the in-process backend (with the given
/// shuffle strategy) and under the multi-process backend for each worker
/// count and each shuffle transport, asserting byte-identical outputs.
/// `build` must return a freshly built, recipe-stamped dataset each call.
template <typename BuildFn>
void ExpectBackendsAgree(BuildFn build, const std::string& recipe,
                         const std::string& args) {
  const auto stamped = [&] {
    auto dataset = build();
    dataset.plan().graph()->dist_recipe = recipe;
    dataset.plan().graph()->dist_args = args;
    return dataset;
  };

  const std::string reference =
      SerializedBytes(stamped().Execute({}).outputs);
  ASSERT_FALSE(reference.empty());

  for (const int workers : {1, 2, 4}) {
    for (const engine::ShuffleTransport transport :
         {engine::ShuffleTransport::kSpillFiles,
          engine::ShuffleTransport::kWireStream}) {
      engine::ExecutionOptions options = MultiProcessOptions(workers);
      options.dist.shuffle_transport = transport;
      const auto result = stamped().Execute(options);
      EXPECT_EQ(SerializedBytes(result.outputs), reference)
          << recipe << " diverged at " << workers << " workers over "
          << (transport == engine::ShuffleTransport::kWireStream ? "wire"
                                                                 : "spill");
      ASSERT_FALSE(result.metrics.rounds.empty());
    }
  }
}

TEST(DistBackend, HammingSplittingByteIdentical) {
  ExpectBackendsAgree(
      [] {
        auto built = hamming::BuildSplittingSimilarityJoinPlan(
            hamming::AllStrings(10), 10, 5, 1);
        MRCOST_CHECK_OK(built.status());
        return built->pairs;
      },
      "hamming_splitting", "b=10,k=5,d=1");
}

// Full-domain groups large enough for the reducer's flip-mask probe set,
// so worker run_reduce exercises it too (b=10,k=5 groups take the pairwise
// loop).
TEST(DistBackend, HammingSplittingProbeByteIdentical) {
  for (const auto& [k, d] : {std::pair{3, 1}, std::pair{4, 2}}) {
    ExpectBackendsAgree(
        [k = k, d = d] {
          auto built = hamming::BuildSplittingSimilarityJoinPlan(
              hamming::AllStrings(12), 12, k, d);
          MRCOST_CHECK_OK(built.status());
          return built->pairs;
        },
        "hamming_splitting",
        "b=12,k=" + std::to_string(k) + ",d=" + std::to_string(d));
  }
}

TEST(DistBackend, HammingBallByteIdentical) {
  ExpectBackendsAgree(
      [] {
        auto built = hamming::BuildBallSimilarityJoinPlan(
            hamming::AllStrings(8), 8, 1);
        MRCOST_CHECK_OK(built.status());
        return built->pairs;
      },
      "hamming_ball", "b=8,d=1");
}

TEST(DistBackend, JoinTriangleByteIdentical) {
  // The relations must outlive every Execute; static matches the recipe
  // cache's process lifetime.
  static const join::Query query = join::CycleQuery(3);
  static const std::vector<join::Relation> relations =
      join::ZipfRelationsForQuery(query, 500, 32, 0.3, 7);
  ExpectBackendsAgree(
      [] {
        std::vector<const join::Relation*> ptrs;
        for (const auto& r : relations) ptrs.push_back(&r);
        auto built = join::BuildHyperCubeJoinPlan(
            query, ptrs, std::vector<int>(query.num_attributes(), 2), 7);
        MRCOST_CHECK_OK(built.status());
        return built->tuples;
      },
      "join_triangle", "tuples=500,domain=32,exponent=0.3,share=2,seed=7");
}

TEST(DistBackend, MatmulOnePhaseByteIdentical) {
  static const auto matrices = [] {
    matmul::Matrix r(32, 32), s(32, 32);
    common::SplitMix64 rng(11);
    r.FillRandom(rng);
    s.FillRandom(rng);
    return std::make_pair(std::move(r), std::move(s));
  }();
  ExpectBackendsAgree(
      [] {
        auto built = matmul::BuildMultiplyOnePhasePlan(matrices.first,
                                                       matrices.second, 8);
        MRCOST_CHECK_OK(built.status());
        return built->cells;
      },
      "matmul_one_phase", "n=32,tile=8,seed=11");
}

TEST(DistBackend, MatmulTwoPhaseMultiRoundByteIdentical) {
  // Two rounds: the second round's input is the first round's output slot
  // — exercises the coordinator's round barrier and chunk re-slicing.
  static const auto matrices = [] {
    matmul::Matrix r(16, 16), s(16, 16);
    common::SplitMix64 rng(11);
    r.FillRandom(rng);
    s.FillRandom(rng);
    return std::make_pair(std::move(r), std::move(s));
  }();
  ExpectBackendsAgree(
      [] {
        auto built = matmul::BuildMultiplyTwoPhasePlan(matrices.first,
                                                       matrices.second, 4, 4);
        MRCOST_CHECK_OK(built.status());
        return built->sums;
      },
      "matmul_two_phase", "n=16,s_rows=4,t_js=4,seed=11");
}

TEST(DistBackend, GraphSampleByteIdentical) {
  static const graph::Graph data = graph::RandomGnm(60, 200, 5);
  static const graph::Graph pattern = graph::CycleGraph(3);
  ExpectBackendsAgree(
      [] {
        return graph::BuildSampleGraphPlan(data, pattern, 4, 6).counts;
      },
      "graph_sample", "nodes=60,edges=200,k=4,seed=5");
}

TEST(DistBackend, AgreesWithEveryInProcessStrategy) {
  // The multi-process output must match the in-process output under every
  // explicit shuffle strategy, not just the chooser's pick.
  auto& registry = dist::PlanRegistry::Global();
  const std::string args = "pairs=5000,keys=97,seed=3";
  const auto outputs = [&](const engine::ExecutionOptions& options) {
    auto plan = registry.Build("shuffle_sweep", args);
    MRCOST_CHECK_OK(plan.status());
    engine::PipelineMetrics metrics = plan->Execute(options);
    (void)metrics;
    // The sweep's target is its last node; read it back typed.
    auto slot = std::static_pointer_cast<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
        plan->graph()->slots.back());
    return SerializedBytes(*slot);
  };

  const std::string multi = outputs(MultiProcessOptions(2));
  for (const engine::ShuffleStrategy strategy :
       {engine::ShuffleStrategy::kSerial, engine::ShuffleStrategy::kSharded,
        engine::ShuffleStrategy::kExternal}) {
    engine::ExecutionOptions options;
    options.pipeline.round_defaults.shuffle.strategy = strategy;
    EXPECT_EQ(outputs(options), multi)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(DistBackend, SurvivesWorkerKillMidMapByteIdentical) {
  auto& registry = dist::PlanRegistry::Global();
  const std::string args = "pairs=20000,keys=256,seed=9";

  auto reference_plan = registry.Build("shuffle_sweep", args);
  MRCOST_CHECK_OK(reference_plan.status());
  reference_plan->Execute({});
  const auto reference = SerializedBytes(
      *std::static_pointer_cast<
          std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
          reference_plan->graph()->slots.back()));

  auto base = common::TempDir::Create();
  ASSERT_TRUE(base.ok());
  const std::string metrics_path = base->path() + "/metrics.json";

  engine::ExecutionOptions options = MultiProcessOptions(2);
  // Worker 0 SIGKILLs itself on its first map task; its tasks must be
  // re-issued to worker 1 with byte-identical results.
  options.dist.kill_worker_index = 0;
  options.dist.kill_after_tasks = 1;
  options.metrics_out = metrics_path;

  auto killed_plan = registry.Build("shuffle_sweep", args);
  MRCOST_CHECK_OK(killed_plan.status());
  killed_plan->Execute(options);
  const auto survived = SerializedBytes(
      *std::static_pointer_cast<
          std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
          killed_plan->graph()->slots.back()));
  EXPECT_EQ(survived, reference);

  // The coordinator must have actually observed the death and re-issued.
  std::ifstream in(metrics_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string metrics_json = buffer.str();
  EXPECT_NE(metrics_json.find("\"dist.workers_died\":1"), std::string::npos)
      << metrics_json;
  EXPECT_NE(metrics_json.find("\"dist.reissued_tasks\""), std::string::npos);
}

TEST(DistBackend, SurvivesWorkerKillMidFetchByteIdentical) {
  // Wire transport, with worker 0 SIGKILLing itself after sending the
  // first block of its first served FetchRun: the reducer sees the stream
  // truncate mid-run, fails retryably, the executor re-runs the dead
  // worker's maps elsewhere, and the re-fetch must still produce
  // byte-identical output.
  auto& registry = dist::PlanRegistry::Global();
  const std::string args = "pairs=20000,keys=256,seed=9";

  auto reference_plan = registry.Build("shuffle_sweep", args);
  MRCOST_CHECK_OK(reference_plan.status());
  reference_plan->Execute({});
  const auto reference = SerializedBytes(
      *std::static_pointer_cast<
          std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
          reference_plan->graph()->slots.back()));

  auto base = common::TempDir::Create();
  ASSERT_TRUE(base.ok());
  const std::string metrics_path = base->path() + "/metrics.json";

  engine::ExecutionOptions options = MultiProcessOptions(2);
  options.dist.shuffle_transport = engine::ShuffleTransport::kWireStream;
  options.dist.kill_worker_index = 0;
  options.dist.kill_after_fetches = 1;
  options.metrics_out = metrics_path;

  auto killed_plan = registry.Build("shuffle_sweep", args);
  MRCOST_CHECK_OK(killed_plan.status());
  killed_plan->Execute(options);
  const auto survived = SerializedBytes(
      *std::static_pointer_cast<
          std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
          killed_plan->graph()->slots.back()));
  EXPECT_EQ(survived, reference);

  std::ifstream in(metrics_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string metrics_json = buffer.str();
  EXPECT_NE(metrics_json.find("\"dist.workers_died\":1"), std::string::npos)
      << metrics_json;
  // The executor must have re-run at least one map to replace the dead
  // worker's unfetchable runs.
  const std::string key = "\"dist.refetched_runs\":";
  const auto pos = metrics_json.find(key);
  ASSERT_NE(pos, std::string::npos) << metrics_json;
  EXPECT_NE(metrics_json[pos + key.size()], '0') << metrics_json;
}

TEST(DistBackend, UnstampedPlanFallsBackInProcess) {
  // A plan never registered as a recipe cannot cross processes; the multi
  // backend must still produce correct results (in-process fallback).
  engine::Plan plan;
  std::vector<std::uint64_t> rows(100);
  std::iota(rows.begin(), rows.end(), 0);
  auto sums =
      plan.Source(std::move(rows))
          .Map<std::uint64_t, std::uint64_t>(
              [](const std::uint64_t& row,
                 engine::Emitter<std::uint64_t, std::uint64_t>& emit) {
                emit.Emit(row % 10, row);
              })
          .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
              [](const std::uint64_t& key,
                 engine::GroupView<std::uint64_t> vs,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
                std::uint64_t sum = 0;
                for (auto v : vs) sum += v;
                out.push_back({key, sum});
              });
  const auto expected = sums.Execute({}).outputs;
  const auto fallback = sums.Execute(MultiProcessOptions(2)).outputs;
  EXPECT_EQ(SerializedBytes(fallback), SerializedBytes(expected));
}

}  // namespace
}  // namespace mrcost
