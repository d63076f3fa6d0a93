// The multi-process distributed runtime (src/dist/): RPC framing and its
// corruption Status paths, the shuffle data-plane messages and raw wire
// frames, the coordinator's task-attempt state machine, TempDir, the
// recipe registry, and — the load-bearing contract — e2e byte-identity of
// every family driver between the in-process and multi-process backends,
// across worker counts, in-process shuffle strategies, overflowing run
// registries, and a SIGKILL'd worker both mid-map and mid-fetch.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
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
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
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

TEST(RpcFrame, ResetConnectionIsUnavailable) {
  // A peer that dies with our frames unread resets the connection — the
  // retryable "peer is gone" signal a wire fetch re-maps on, not
  // corruption.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(dist::WriteFrame(sv[0], "never read").ok());
  ::close(sv[1]);
  std::string got;
  const Status status = dist::ReadFrame(sv[0], got);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  ::close(sv[0]);
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
  reduce.run_ids = {"r1-c0-a1-s2.wire", "r1-c1-a1-s2.wire"};
  reduce.run_endpoints = {"/x/w0.sock", "/x/w1.sock"};
  reduce.fetch_credits = 8;
  reduce.rows = 12345;
  reduce.result_path = "/x/s2.res";
  dist::ReduceTaskMsg reduce2;
  ASSERT_TRUE(
      dist::DecodeReduceTask(dist::EncodeReduceTask(reduce), reduce2).ok());
  EXPECT_EQ(reduce2.run_ids, reduce.run_ids);
  EXPECT_EQ(reduce2.run_endpoints, reduce.run_endpoints);
  EXPECT_EQ(reduce2.fetch_credits, 8u);
  EXPECT_EQ(reduce2.rows, 12345u);

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
        "shuffle_sweep", "word_count"}) {
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
    ASSERT_TRUE(storage::DecodeRawBlock(frame, block).ok());
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
  EXPECT_FALSE(storage::DecodeRawBlock(bad, block).ok());

  // So does a spill-v2 codec frame: it lacks the raw marker.
  std::string codec_frame;
  storage::BlockEncodeStats codec_stats;
  storage::EncodeBlock(run, 0, 10, storage::DefaultSpillCodec(), codec_frame,
                       codec_stats);
  EXPECT_FALSE(storage::DecodeRawBlock(codec_frame, block).ok());
}

TEST(WireRun, RegistryOverflowsPastBudget) {
  auto dir = common::TempDir::Create();
  ASSERT_TRUE(dir.ok());
  storage::RunRegistry registry(dir->path() + "/ovf",
                                /*retain_budget_bytes=*/64);

  auto put_a = registry.Put("a", {std::string(40, 'x')}, 1);
  ASSERT_TRUE(put_a.ok());
  EXPECT_EQ(*put_a, 0u);  // kept in memory: nothing written to disk
  EXPECT_EQ(registry.retained_bytes(), 40u);
  auto a = registry.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->overflow_path.empty());
  ASSERT_EQ(a->frames.size(), 1u);

  // The second run would exceed the 64-byte budget: it must land on disk
  // as a spill-v2 file holding the same frame payloads, not in memory.
  auto put_b =
      registry.Put("b", {std::string(40, 'y'), std::string(8, 'z')}, 2);
  ASSERT_TRUE(put_b.ok());
  auto b = registry.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->overflow_path.empty());
  EXPECT_TRUE(b->frames.empty());
  EXPECT_EQ(registry.overflow_bytes(), 48u);
  // The file's size: header plus two framed payloads.
  EXPECT_EQ(*put_b, std::filesystem::file_size(b->overflow_path));
  EXPECT_GT(*put_b, 48u);
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

/// The output bytes of `recipe`, whose last round yields `Out`s, under
/// `options`.
template <typename Out>
std::string RecipeBytes(const std::string& recipe, const std::string& args,
                        const engine::ExecutionOptions& options,
                        engine::PipelineMetrics* metrics = nullptr) {
  auto plan = dist::PlanRegistry::Global().Build(recipe, args);
  MRCOST_CHECK_OK(plan.status());
  engine::PipelineMetrics run = plan->Execute(options);
  if (metrics != nullptr) *metrics = std::move(run);
  return SerializedBytes(*std::static_pointer_cast<std::vector<Out>>(
      plan->graph()->slots.back()));
}

/// The shuffle_sweep recipe's output bytes under `options`.
std::string SweepBytes(const std::string& args,
                       const engine::ExecutionOptions& options,
                       engine::PipelineMetrics* metrics = nullptr) {
  return RecipeBytes<std::pair<std::uint64_t, std::uint64_t>>(
      "shuffle_sweep", args, options, metrics);
}

/// Counter `name` in a metrics JSON dump, or -1 when it is absent.
long long CounterIn(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const std::string key = "\"" + name + "\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + key.size(), nullptr, 10);
}

/// Runs `build()`'s dataset under the in-process backend and under the
/// multi-process backend for each worker count, asserting byte-identical
/// outputs. `build` must return a freshly built, recipe-stamped dataset
/// each call.
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
    const auto result = stamped().Execute(MultiProcessOptions(workers));
    EXPECT_EQ(SerializedBytes(result.outputs), reference)
        << recipe << " diverged at " << workers << " workers";
    ASSERT_FALSE(result.metrics.rounds.empty());
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

TEST(DistBackend, WordCountStringKeysByteIdentical) {
  // Every other recipe keys by an integer; word count's std::string keys
  // take the workers' storage::KeyIndex grouping path.
  const std::string args = "words=5000,vocab=300,seed=3";
  using Count = std::pair<std::string, std::uint64_t>;
  const std::string reference = RecipeBytes<Count>("word_count", args, {});
  ASSERT_FALSE(reference.empty());
  for (const int workers : {1, 2, 4}) {
    EXPECT_EQ(RecipeBytes<Count>("word_count", args,
                                 MultiProcessOptions(workers)),
              reference)
        << "diverged at " << workers << " workers";
  }
}

TEST(DistBackend, SchemaRecipesPredictQAndRExactly) {
  // The benchmark's prediction errors: Plan::Estimate at build time against
  // each executed round's realized q and r. On both backends they are
  // exactly 1 for the recipes whose first round is a schema round.
  struct Case {
    std::string recipe;
    std::string args;
    core::Recipe bound;
  };
  const std::vector<Case> cases = {
      {"hamming_splitting", "b=10,k=5,d=1", hamming::Hamming1Recipe(10)},
      {"hamming_ball", "b=10,d=1", hamming::Hamming1Recipe(10)},
      {"matmul_one_phase", "n=32,tile=8,seed=11", matmul::MatMulRecipe(32)},
      {"matmul_two_phase", "n=16,s_rows=4,t_js=4,seed=11",
       matmul::MatMulRecipe(16)}};
  for (const Case& c : cases) {
    for (const bool multi : {false, true}) {
      SCOPED_TRACE(c.recipe + (multi ? " multi-process" : " in-process"));
      auto plan = dist::PlanRegistry::Global().Build(c.recipe, c.args);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const engine::PlanEstimate estimate = plan->Estimate(c.bound);
      const engine::PipelineMetrics run = plan->Execute(
          multi ? MultiProcessOptions(2) : engine::ExecutionOptions{});
      ASSERT_EQ(run.rounds.size(), estimate.rounds.size());
      for (std::size_t i = 0; i < run.rounds.size(); ++i) {
        EXPECT_EQ(estimate.rounds[i].predicted_q,
                  static_cast<double>(run.rounds[i].max_reducer_input))
            << "round " << i + 1;
        EXPECT_EQ(estimate.rounds[i].predicted_r,
                  run.rounds[i].replication_rate())
            << "round " << i + 1;
      }
    }
  }
}

TEST(DistBackend, AgreesWithEveryInProcessStrategy) {
  // The multi-process output must match the in-process output under every
  // explicit shuffle strategy, not just the chooser's pick.
  const std::string args = "pairs=5000,keys=97,seed=3";
  const std::string multi = SweepBytes(args, MultiProcessOptions(2));
  for (const engine::ShuffleStrategy strategy :
       {engine::ShuffleStrategy::kSerial, engine::ShuffleStrategy::kSharded,
        engine::ShuffleStrategy::kExternal}) {
    engine::ExecutionOptions options;
    options.pipeline.round_defaults.shuffle.strategy = strategy;
    EXPECT_EQ(SweepBytes(args, options), multi)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(DistBackend, PhysicalRoundIsHostIndependent) {
  // The word-count combined round (7 keys, 10,000 inputs): combined
  // partials are per chunk, so pairs_shuffled follows the chunk count.
  // Chunks come from the input alone — the same at every thread count on
  // both backends, and so are the shuffled pairs and the output bytes.
  auto& registry = dist::PlanRegistry::Global();
  const std::string args = "pairs=10000,keys=7,seed=1,combine=1";
  std::size_t chunks = 0;
  std::uint64_t pairs = 0;
  std::string reference;
  for (const engine::ExecutionBackend backend :
       {engine::ExecutionBackend::kInProcess,
        engine::ExecutionBackend::kMultiProcess}) {
    for (const std::size_t threads : {1u, 4u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (backend == engine::ExecutionBackend::kMultiProcess
                        ? " multi_process"
                        : " in_process"));
      auto plan = registry.Build("shuffle_sweep", args);
      MRCOST_CHECK_OK(plan.status());
      engine::ExecutionOptions options;
      options.backend = backend;
      options.pipeline.num_threads = threads;
      const engine::PipelineMetrics metrics = plan->Execute(options);
      ASSERT_EQ(metrics.rounds.size(), 1u);
      ASSERT_EQ(plan->last_physical_rounds().size(), 1u);
      const std::string bytes = SerializedBytes(
          *std::static_pointer_cast<
              std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
              plan->graph()->slots.back()));
      if (reference.empty()) {
        chunks = plan->last_physical_rounds()[0].chunks;
        pairs = metrics.rounds[0].pairs_shuffled;
        reference = bytes;
        EXPECT_LT(pairs, 100u);  // 7 keys per chunk, not per input
      }
      EXPECT_EQ(plan->last_physical_rounds()[0].chunks, chunks);
      EXPECT_EQ(metrics.rounds[0].pairs_shuffled, pairs);
      EXPECT_EQ(bytes, reference);
    }
  }
}

TEST(DistBackend, SurvivesWorkerKillMidMapByteIdentical) {
  const std::string args = "pairs=20000,keys=256,seed=9";
  const std::string reference = SweepBytes(args, {});
  auto base = common::TempDir::Create();
  ASSERT_TRUE(base.ok());

  // Worker 0 SIGKILLs itself on its first map task (nothing committed
  // yet: the task is re-issued to worker 1) or on its second (the first
  // map's runs died with its memory: reducers fail to fetch them, and the
  // executor re-runs that map on worker 1). Both end byte-identical.
  for (const int kill_after_tasks : {1, 2}) {
    SCOPED_TRACE("kill_after_tasks=" + std::to_string(kill_after_tasks));
    const std::string metrics_path = base->path() + "/metrics-" +
                                     std::to_string(kill_after_tasks) +
                                     ".json";
    engine::ExecutionOptions options = MultiProcessOptions(2);
    options.dist.kill_worker_index = 0;
    options.dist.kill_after_tasks = kill_after_tasks;
    options.metrics_out = metrics_path;
    EXPECT_EQ(SweepBytes(args, options), reference);

    // The coordinator must have actually observed the death and re-issued.
    EXPECT_EQ(CounterIn(metrics_path, "dist.workers_died"), 1);
    EXPECT_GE(CounterIn(metrics_path, "dist.reissued_tasks"), 0);
    if (kill_after_tasks == 2) {
      EXPECT_GE(CounterIn(metrics_path, "dist.refetched_runs"), 1);
    }
  }
}

TEST(DistBackend, SurvivesWorkerKillMidFetchByteIdentical) {
  // Worker 0 SIGKILLs itself after sending the first block of its first
  // served FetchRun: the reducer sees the stream truncate mid-run, fails
  // retryably, the executor re-runs the dead worker's maps elsewhere, and
  // the re-fetch must still produce byte-identical output.
  const std::string args = "pairs=20000,keys=256,seed=9";
  const std::string reference = SweepBytes(args, {});
  auto base = common::TempDir::Create();
  ASSERT_TRUE(base.ok());
  const std::string metrics_path = base->path() + "/metrics.json";

  engine::ExecutionOptions options = MultiProcessOptions(2);
  options.dist.kill_worker_index = 0;
  options.dist.kill_after_fetches = 1;
  options.metrics_out = metrics_path;
  EXPECT_EQ(SweepBytes(args, options), reference);

  EXPECT_EQ(CounterIn(metrics_path, "dist.workers_died"), 1);
  // The executor must have re-run at least one map to replace the dead
  // worker's unfetchable runs, and reports how long reducers waited for
  // the death to be noticed.
  EXPECT_GE(CounterIn(metrics_path, "dist.refetched_runs"), 1);
  EXPECT_GE(CounterIn(metrics_path, "dist.retry_wait_ms"), 0);
}

TEST(DistBackend, OverflowingRunRegistryByteIdentical) {
  // A one-byte retain budget sends every map run to an overflow file,
  // served from disk over the data socket; the bytes it wrote count as
  // spill traffic.
  const std::string args = "pairs=20000,keys=256,seed=9";
  const std::string reference = SweepBytes(args, {});
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::PipelineMetrics in_memory;
    EXPECT_EQ(SweepBytes(args, MultiProcessOptions(workers), &in_memory),
              reference);
    EXPECT_EQ(in_memory.total_spill_bytes(), 0u);
    EXPECT_EQ(in_memory.total_spill_runs(), 0u);

    engine::ExecutionOptions options = MultiProcessOptions(workers);
    options.dist.retain_budget_bytes = 1;
    engine::PipelineMetrics overflowed;
    EXPECT_EQ(SweepBytes(args, options, &overflowed), reference);
    EXPECT_GT(overflowed.total_spill_bytes(), 0u);
    EXPECT_GT(overflowed.total_spill_runs(), 0u);
  }
}

TEST(DistBackend, SpillMetricsReportOnlyDisk) {
  // 8 chunks over 4 pinned shards, every chunk holding rows of every
  // shard. Reducers group their runs in memory, as in-process shards do,
  // so the round reports no merge pass; with every run kept in worker
  // memory it reports no spill runs and no compression ratio (raw frames
  // pass no codec).
  const std::string args = "pairs=20000,keys=256,seed=9";
  auto plan = dist::PlanRegistry::Global().Build("shuffle_sweep", args);
  ASSERT_TRUE(plan.ok()) << plan.status();
  engine::ExecutionOptions options = MultiProcessOptions(2);
  options.pipeline.round_defaults.num_shards = 4;
  const engine::PipelineMetrics metrics = plan->Execute(options);
  ASSERT_EQ(plan->last_physical_rounds().size(), 1u);
  EXPECT_EQ(plan->last_physical_rounds()[0].chunks, 8u);
  EXPECT_EQ(plan->last_physical_rounds()[0].shards, 4u);
  ASSERT_EQ(metrics.rounds.size(), 1u);
  const engine::JobMetrics& round = metrics.rounds[0];
  EXPECT_EQ(round.merge_passes, 0u);
  EXPECT_EQ(round.spill_runs, 0u);
  EXPECT_EQ(round.spill_bytes_written, 0u);
  EXPECT_EQ(round.compression_ratio, 0.0);

  engine::ExecutionOptions sharded;
  sharded.pipeline.round_defaults.num_shards = 4;
  sharded.pipeline.round_defaults.shuffle.strategy =
      engine::ShuffleStrategy::kSharded;
  const engine::PipelineMetrics in_process = plan->Execute(sharded);
  ASSERT_EQ(in_process.rounds.size(), 1u);
  EXPECT_EQ(in_process.rounds[0].merge_passes, round.merge_passes);
}

TEST(DistBackend, ShardPairsMatchInProcess) {
  // Both backends place rows by the same hash: at a pinned shard count,
  // the rows each multi-process reduce task read equal the rows the
  // in-process round routed to that shard, and so does the skew ratio.
  const std::string args = "pairs=20000,keys=256,seed=9";
  auto plan = dist::PlanRegistry::Global().Build("shuffle_sweep", args);
  ASSERT_TRUE(plan.ok()) << plan.status();
  engine::ExecutionOptions multi = MultiProcessOptions(2);
  multi.pipeline.round_defaults.num_shards = 4;
  const engine::PipelineMetrics remote = plan->Execute(multi);

  engine::ExecutionOptions local;
  local.pipeline.round_defaults.num_shards = 4;
  local.pipeline.round_defaults.shuffle.strategy =
      engine::ShuffleStrategy::kSharded;
  local.pipeline.round_defaults.shuffle.partitioner =
      engine::PartitionerKind::kHash;
  const engine::PipelineMetrics in_process = plan->Execute(local);
  ASSERT_EQ(remote.rounds.size(), 1u);
  ASSERT_EQ(in_process.rounds.size(), 1u);
  ASSERT_EQ(remote.rounds[0].shard_pairs.size(), 4u);
  EXPECT_EQ(remote.rounds[0].shard_pairs, in_process.rounds[0].shard_pairs);
  EXPECT_GT(remote.rounds[0].partition_skew_ratio, 1.0);
  EXPECT_EQ(remote.rounds[0].partition_skew_ratio,
            in_process.rounds[0].partition_skew_ratio);
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
