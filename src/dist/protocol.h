#ifndef MRCOST_DIST_PROTOCOL_H_
#define MRCOST_DIST_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/engine/dist_round.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::dist {

/// The coordinator/worker message set. Every message travels as one RPC
/// frame (src/dist/rpc.h) whose payload is a u32 message type followed by
/// the serde-encoded body (src/storage/serde.h conventions: trivially
/// copyable fields byte-copied, strings and vectors u64-length-prefixed).
///
///   coordinator -> worker: Hello, MapTask, ReduceTask, Shutdown
///   worker -> coordinator: Ready, TaskDone, Heartbeat, Bye
///
/// The FetchRun family travels worker-to-worker on the per-worker data
/// sockets (the shuffle's data plane), framed identically:
///
///   fetcher -> owner: FetchRun (opens a run stream, grants credits),
///                     RunCredit (returns one credit per consumed block)
///   owner -> fetcher: RunBlock (one encoded run frame),
///                     RunEnd (stream complete), RunError (unknown run)
enum class MsgType : std::uint32_t {
  kHello = 1,
  kMapTask = 2,
  kReduceTask = 3,
  kShutdown = 4,
  kReady = 5,
  kTaskDone = 6,
  kHeartbeat = 7,
  kBye = 8,
  kFetchRun = 9,
  kRunBlock = 10,
  kRunEnd = 11,
  kRunCredit = 12,
  kRunError = 13,
};

/// First message on the wire: identity, the recipe to rebuild, the shared
/// spill dir, obs capture switches, and the fault-injection arming.
struct HelloMsg {
  std::uint32_t worker_index = 0;
  std::string recipe;
  std::string args;
  std::string spill_dir;
  std::uint8_t trace_enabled = 0;
  std::uint8_t metrics_enabled = 0;
  double heartbeat_interval_ms = 100;
  /// > 0 arms fault injection: the worker raises SIGKILL upon receiving
  /// its Nth map task (deterministic "die mid-map" for tests/CI).
  std::uint32_t self_kill_after_tasks = 0;
  /// Coordinator trace clock at send time; the worker offsets its trace
  /// timestamps so both processes share one timeline.
  std::uint64_t coord_now_us = 0;
  /// Cap on the run bytes the worker's RunRegistry retains in memory
  /// (0 = unbounded); past it new runs overflow to worker-private files.
  std::uint64_t retain_budget_bytes = 0;
  /// > 0 arms mid-stream fault injection: the worker raises SIGKILL right
  /// after serving the first block of the Nth FetchRun on its data socket
  /// (deterministic "die mid-fetch" for tests/CI).
  std::uint32_t self_kill_after_fetches = 0;
};

/// Where worker `worker_index` listens for FetchRun connections: an
/// AF_UNIX socket inside the shared job directory. Both the worker (bind)
/// and the executor (dial targets in ReduceTask) derive it from here.
std::string DataEndpointPath(const std::string& spill_dir, int worker_index);

struct MapTaskMsg {
  std::uint64_t task_id = 0;
  std::uint32_t node = 0;
  std::uint32_t chunk = 0;
  std::uint32_t num_shards = 1;
  std::string chunk_path;
  std::string run_prefix;
};

struct ReduceTaskMsg {
  std::uint64_t task_id = 0;
  std::uint32_t node = 0;
  std::uint32_t shard = 0;
  std::uint64_t merge_fan_in = 0;
  std::string result_path;
  std::string scratch_dir;
  /// Run ids to fetch, and parallel to them, each owner's data endpoint.
  std::vector<std::string> run_ids;
  std::vector<std::string> run_endpoints;
  /// Per-source block credit window (>= 1).
  std::uint32_t fetch_credits = 1;
};

struct TaskDoneMsg {
  std::uint64_t task_id = 0;
  std::uint8_t ok = 0;
  std::string error;
  /// Failure is worth retrying against re-executed inputs (a wire fetch
  /// hit a dead source worker), as opposed to a deterministic task error.
  std::uint8_t retryable = 0;
  /// EncodeMapOutcome / EncodeReduceOutcome bytes when ok.
  std::string payload;
};

struct HeartbeatMsg {
  std::uint64_t seq = 0;
};

/// Opens one run stream on a data socket; `credits` is how many RunBlock
/// frames the owner may have outstanding before waiting for RunCredit.
struct FetchRunMsg {
  std::string run_id;
  std::uint32_t credits = 1;
};

/// Returns credits after the fetcher consumes (decodes) blocks.
struct RunCreditMsg {
  std::uint32_t credits = 1;
};

/// Terminates a run stream; carries the owner-side totals so the fetcher
/// can cross-check and attach the authoritative credit-wait time to its
/// FetchRun span.
struct RunEndMsg {
  std::uint64_t blocks = 0;
  std::uint64_t rows = 0;
  double credit_wait_ms = 0;
};

struct RunErrorMsg {
  std::string message;
};

/// The worker's parting gift: its obs::Registry snapshot and trace events
/// (already shifted onto the coordinator's clock), merged into the
/// coordinator's registry/trace under a per-worker pid lane.
struct ByeMsg {
  std::string registry_payload;
  std::string trace_payload;
};

std::string EncodeHello(const HelloMsg& msg);
std::string EncodeMapTask(const MapTaskMsg& msg);
std::string EncodeReduceTask(const ReduceTaskMsg& msg);
std::string EncodeShutdown();
std::string EncodeReady();
std::string EncodeTaskDone(const TaskDoneMsg& msg);
std::string EncodeHeartbeat(const HeartbeatMsg& msg);
std::string EncodeBye(const ByeMsg& msg);
std::string EncodeFetchRun(const FetchRunMsg& msg);
std::string EncodeRunCredit(const RunCreditMsg& msg);
std::string EncodeRunEnd(const RunEndMsg& msg);
std::string EncodeRunError(const RunErrorMsg& msg);
/// RunBlock is type + raw frame bytes — no length prefix beyond the RPC
/// frame's own, so the fetcher decodes the block as a view into the
/// received payload without another copy.
std::string EncodeRunBlock(std::string_view frame);

/// Streams one RunBlock directly from `frame`'s buffer: a scatter write
/// of [frame header][u32 kRunBlock][frame bytes] with no concatenation
/// copy, sent unchecked (rpc.h kUncheckedCrc) — the bulk data plane's
/// fast path. The receiver still uses ReadFrame + RunBlockView.
common::Status WriteRunBlock(int fd, std::string_view frame);

/// The message type of an encoded payload; kInternal on a short payload.
common::Result<MsgType> PeekType(const std::string& payload);

common::Status DecodeHello(const std::string& payload, HelloMsg& msg);
common::Status DecodeMapTask(const std::string& payload, MapTaskMsg& msg);
common::Status DecodeReduceTask(const std::string& payload,
                                ReduceTaskMsg& msg);
common::Status DecodeTaskDone(const std::string& payload, TaskDoneMsg& msg);
common::Status DecodeHeartbeat(const std::string& payload,
                               HeartbeatMsg& msg);
common::Status DecodeBye(const std::string& payload, ByeMsg& msg);
common::Status DecodeFetchRun(const std::string& payload, FetchRunMsg& msg);
common::Status DecodeRunCredit(const std::string& payload,
                               RunCreditMsg& msg);
common::Status DecodeRunEnd(const std::string& payload, RunEndMsg& msg);
common::Status DecodeRunError(const std::string& payload, RunErrorMsg& msg);
/// The block bytes of a RunBlock payload, viewing into `payload` — valid
/// only while the payload string is alive and unmodified.
common::Result<std::string_view> RunBlockView(const std::string& payload);

/// Task-result payloads inside TaskDoneMsg.
std::string EncodeMapOutcome(const engine::internal::DistMapOutcome& out);
common::Status DecodeMapOutcome(const std::string& payload,
                                engine::internal::DistMapOutcome& out);
std::string EncodeReduceOutcome(
    const engine::internal::DistReduceOutcome& out);
common::Status DecodeReduceOutcome(
    const std::string& payload, engine::internal::DistReduceOutcome& out);

/// Obs payloads inside ByeMsg. Decoding merges rather than replaces:
/// counters add, stats/histograms Merge, gauges land prefixed with
/// "workerN." (last-write-wins would otherwise drop all but one worker).
std::string EncodeRegistrySnapshot(const obs::Registry::Snapshot& snapshot);
common::Status MergeRegistryPayload(const std::string& payload,
                                    std::uint32_t worker_index,
                                    obs::Registry& registry);
std::string EncodeTraceEvents(const std::vector<obs::TraceEvent>& events);
common::Status DecodeTraceEvents(const std::string& payload,
                                 std::vector<obs::TraceEvent>& events);

}  // namespace mrcost::dist

#endif  // MRCOST_DIST_PROTOCOL_H_
