#include "src/dist/protocol.h"

#include <tuple>
#include <utility>

#include "src/dist/rpc.h"
#include "src/storage/serde.h"

namespace mrcost::dist {

namespace {

using storage::DeserializeValue;
using storage::SerializeValue;

void AppendType(MsgType type, std::string& out) {
  SerializeValue(static_cast<std::uint32_t>(type), out);
}

common::Status Corrupt(const char* what) {
  return common::Status::Internal(std::string("protocol: corrupt ") + what);
}

/// Reads past the type word; callers already dispatched on PeekType.
common::Status OpenBody(const std::string& payload, const char*& p,
                        const char*& end) {
  p = payload.data();
  end = p + payload.size();
  std::uint32_t type = 0;
  if (!DeserializeValue(p, end, type)) return Corrupt("type");
  return common::Status::Ok();
}

}  // namespace

std::string DataEndpointPath(const std::string& spill_dir,
                             int worker_index) {
  return spill_dir + "/w" + std::to_string(worker_index) + ".sock";
}

std::string EncodeHello(const HelloMsg& msg) {
  std::string out;
  AppendType(MsgType::kHello, out);
  SerializeValue(msg.worker_index, out);
  SerializeValue(msg.recipe, out);
  SerializeValue(msg.args, out);
  SerializeValue(msg.spill_dir, out);
  SerializeValue(msg.trace_enabled, out);
  SerializeValue(msg.metrics_enabled, out);
  SerializeValue(msg.heartbeat_interval_ms, out);
  SerializeValue(msg.self_kill_after_tasks, out);
  SerializeValue(msg.coord_now_us, out);
  SerializeValue(msg.retain_budget_bytes, out);
  SerializeValue(msg.self_kill_after_fetches, out);
  return out;
}

common::Status DecodeHello(const std::string& payload, HelloMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.worker_index) ||
      !DeserializeValue(p, end, msg.recipe) ||
      !DeserializeValue(p, end, msg.args) ||
      !DeserializeValue(p, end, msg.spill_dir) ||
      !DeserializeValue(p, end, msg.trace_enabled) ||
      !DeserializeValue(p, end, msg.metrics_enabled) ||
      !DeserializeValue(p, end, msg.heartbeat_interval_ms) ||
      !DeserializeValue(p, end, msg.self_kill_after_tasks) ||
      !DeserializeValue(p, end, msg.coord_now_us) ||
      !DeserializeValue(p, end, msg.retain_budget_bytes) ||
      !DeserializeValue(p, end, msg.self_kill_after_fetches)) {
    return Corrupt("hello");
  }
  return common::Status::Ok();
}

std::string EncodeMapTask(const MapTaskMsg& msg) {
  std::string out;
  AppendType(MsgType::kMapTask, out);
  SerializeValue(msg.task_id, out);
  SerializeValue(msg.node, out);
  SerializeValue(msg.chunk, out);
  SerializeValue(msg.num_shards, out);
  SerializeValue(msg.chunk_path, out);
  SerializeValue(msg.run_prefix, out);
  return out;
}

common::Status DecodeMapTask(const std::string& payload, MapTaskMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.task_id) ||
      !DeserializeValue(p, end, msg.node) ||
      !DeserializeValue(p, end, msg.chunk) ||
      !DeserializeValue(p, end, msg.num_shards) ||
      !DeserializeValue(p, end, msg.chunk_path) ||
      !DeserializeValue(p, end, msg.run_prefix)) {
    return Corrupt("map task");
  }
  return common::Status::Ok();
}

std::string EncodeReduceTask(const ReduceTaskMsg& msg) {
  std::string out;
  AppendType(MsgType::kReduceTask, out);
  SerializeValue(msg.task_id, out);
  SerializeValue(msg.node, out);
  SerializeValue(msg.shard, out);
  SerializeValue(msg.result_path, out);
  SerializeValue(msg.run_ids, out);
  SerializeValue(msg.run_endpoints, out);
  SerializeValue(msg.fetch_credits, out);
  SerializeValue(msg.rows, out);
  return out;
}

common::Status DecodeReduceTask(const std::string& payload,
                                ReduceTaskMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.task_id) ||
      !DeserializeValue(p, end, msg.node) ||
      !DeserializeValue(p, end, msg.shard) ||
      !DeserializeValue(p, end, msg.result_path) ||
      !DeserializeValue(p, end, msg.run_ids) ||
      !DeserializeValue(p, end, msg.run_endpoints) ||
      !DeserializeValue(p, end, msg.fetch_credits) ||
      !DeserializeValue(p, end, msg.rows)) {
    return Corrupt("reduce task");
  }
  return common::Status::Ok();
}

std::string EncodeShutdown() {
  std::string out;
  AppendType(MsgType::kShutdown, out);
  return out;
}

std::string EncodeReady() {
  std::string out;
  AppendType(MsgType::kReady, out);
  return out;
}

std::string EncodeTaskDone(const TaskDoneMsg& msg) {
  std::string out;
  AppendType(MsgType::kTaskDone, out);
  SerializeValue(msg.task_id, out);
  SerializeValue(msg.ok, out);
  SerializeValue(msg.error, out);
  SerializeValue(msg.retryable, out);
  SerializeValue(msg.payload, out);
  return out;
}

common::Status DecodeTaskDone(const std::string& payload,
                              TaskDoneMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.task_id) ||
      !DeserializeValue(p, end, msg.ok) ||
      !DeserializeValue(p, end, msg.error) ||
      !DeserializeValue(p, end, msg.retryable) ||
      !DeserializeValue(p, end, msg.payload)) {
    return Corrupt("task done");
  }
  return common::Status::Ok();
}

std::string EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::string out;
  AppendType(MsgType::kHeartbeat, out);
  SerializeValue(msg.seq, out);
  return out;
}

common::Status DecodeHeartbeat(const std::string& payload,
                               HeartbeatMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.seq)) return Corrupt("heartbeat");
  return common::Status::Ok();
}

std::string EncodeBye(const ByeMsg& msg) {
  std::string out;
  AppendType(MsgType::kBye, out);
  SerializeValue(msg.registry_payload, out);
  SerializeValue(msg.trace_payload, out);
  return out;
}

common::Status DecodeBye(const std::string& payload, ByeMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.registry_payload) ||
      !DeserializeValue(p, end, msg.trace_payload)) {
    return Corrupt("bye");
  }
  return common::Status::Ok();
}

std::string EncodeFetchRun(const FetchRunMsg& msg) {
  std::string out;
  AppendType(MsgType::kFetchRun, out);
  SerializeValue(msg.run_id, out);
  SerializeValue(msg.credits, out);
  return out;
}

common::Status DecodeFetchRun(const std::string& payload,
                              FetchRunMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.run_id) ||
      !DeserializeValue(p, end, msg.credits)) {
    return Corrupt("fetch run");
  }
  return common::Status::Ok();
}

std::string EncodeRunCredit(const RunCreditMsg& msg) {
  std::string out;
  AppendType(MsgType::kRunCredit, out);
  SerializeValue(msg.credits, out);
  return out;
}

common::Status DecodeRunCredit(const std::string& payload,
                               RunCreditMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.credits)) return Corrupt("run credit");
  return common::Status::Ok();
}

std::string EncodeRunEnd(const RunEndMsg& msg) {
  std::string out;
  AppendType(MsgType::kRunEnd, out);
  SerializeValue(msg.blocks, out);
  SerializeValue(msg.rows, out);
  SerializeValue(msg.credit_wait_ms, out);
  return out;
}

common::Status DecodeRunEnd(const std::string& payload, RunEndMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.blocks) ||
      !DeserializeValue(p, end, msg.rows) ||
      !DeserializeValue(p, end, msg.credit_wait_ms)) {
    return Corrupt("run end");
  }
  return common::Status::Ok();
}

std::string EncodeRunError(const RunErrorMsg& msg) {
  std::string out;
  AppendType(MsgType::kRunError, out);
  SerializeValue(msg.message, out);
  return out;
}

common::Status DecodeRunError(const std::string& payload,
                              RunErrorMsg& msg) {
  const char* p = nullptr;
  const char* end = nullptr;
  if (auto status = OpenBody(payload, p, end); !status.ok()) return status;
  if (!DeserializeValue(p, end, msg.message)) return Corrupt("run error");
  return common::Status::Ok();
}

std::string EncodeRunBlock(std::string_view frame) {
  std::string out;
  out.reserve(sizeof(std::uint32_t) + frame.size());
  AppendType(MsgType::kRunBlock, out);
  out.append(frame.data(), frame.size());
  return out;
}

common::Status WriteRunBlock(int fd, std::string_view frame) {
  std::string head;
  AppendType(MsgType::kRunBlock, head);
  return WriteFrameParts(fd, head, frame, /*checksum=*/false);
}

common::Result<std::string_view> RunBlockView(const std::string& payload) {
  if (payload.size() < sizeof(std::uint32_t)) return Corrupt("run block");
  return std::string_view(payload).substr(sizeof(std::uint32_t));
}

common::Result<MsgType> PeekType(const std::string& payload) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  std::uint32_t type = 0;
  if (!DeserializeValue(p, end, type)) return Corrupt("type");
  if (type < static_cast<std::uint32_t>(MsgType::kHello) ||
      type > static_cast<std::uint32_t>(MsgType::kRunError)) {
    return common::Status::Internal("protocol: unknown message type " +
                                    std::to_string(type));
  }
  return static_cast<MsgType>(type);
}

std::string EncodeMapOutcome(const engine::internal::DistMapOutcome& out) {
  std::string payload;
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::string>> runs;
  runs.reserve(out.runs.size());
  for (const auto& run : out.runs) {
    runs.emplace_back(run.shard, run.rows, run.run_id);
  }
  SerializeValue(runs, payload);
  SerializeValue(out.counters, payload);
  SerializeValue(out.spill_runs, payload);
  SerializeValue(out.spill_bytes_written, payload);
  return payload;
}

common::Status DecodeMapOutcome(const std::string& payload,
                                engine::internal::DistMapOutcome& out) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::string>> runs;
  if (!DeserializeValue(p, end, runs) ||
      !DeserializeValue(p, end, out.counters) ||
      !DeserializeValue(p, end, out.spill_runs) ||
      !DeserializeValue(p, end, out.spill_bytes_written)) {
    return Corrupt("map outcome");
  }
  out.runs.clear();
  out.runs.reserve(runs.size());
  for (auto& [shard, rows, run_id] : runs) {
    out.runs.push_back(
        engine::internal::DistRunInfo{shard, rows, std::move(run_id)});
  }
  return common::Status::Ok();
}

std::string EncodeRegistrySnapshot(
    const obs::Registry::Snapshot& snapshot) {
  std::string payload;
  std::vector<std::pair<std::string, std::uint64_t>> counters(
      snapshot.counters.begin(), snapshot.counters.end());
  std::vector<std::pair<std::string, double>> gauges(
      snapshot.gauges.begin(), snapshot.gauges.end());
  // RunningStats is trivially copyable; serde byte-copies it exactly.
  std::vector<std::pair<std::string, common::RunningStats>> stats(
      snapshot.stats.begin(), snapshot.stats.end());
  std::vector<std::tuple<std::string, std::int64_t,
                         std::vector<std::int64_t>>>
      histograms;
  histograms.reserve(snapshot.histograms.size());
  for (const auto& [name, histogram] : snapshot.histograms) {
    std::vector<std::int64_t> buckets(histogram.num_buckets());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] = histogram.bucket(i);
    }
    histograms.emplace_back(name, histogram.zeros(), std::move(buckets));
  }
  SerializeValue(counters, payload);
  SerializeValue(gauges, payload);
  SerializeValue(stats, payload);
  SerializeValue(histograms, payload);
  return payload;
}

common::Status MergeRegistryPayload(const std::string& payload,
                                    std::uint32_t worker_index,
                                    obs::Registry& registry) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, common::RunningStats>> stats;
  std::vector<std::tuple<std::string, std::int64_t,
                         std::vector<std::int64_t>>>
      histograms;
  if (!DeserializeValue(p, end, counters) ||
      !DeserializeValue(p, end, gauges) ||
      !DeserializeValue(p, end, stats) ||
      !DeserializeValue(p, end, histograms)) {
    return Corrupt("registry snapshot");
  }
  for (const auto& [name, value] : counters) {
    registry.AddCounter(name, value);
  }
  const std::string prefix =
      "worker" + std::to_string(worker_index) + ".";
  for (const auto& [name, value] : gauges) {
    registry.SetGauge(prefix + name, value);
  }
  for (const auto& [name, value] : stats) {
    registry.MergeStats(name, value);
  }
  for (const auto& [name, zeros, buckets] : histograms) {
    common::Log2Histogram histogram;
    histogram.AddZeros(zeros);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      histogram.AddBucketCount(i, buckets[i]);
    }
    registry.MergeHistogram(name, histogram);
  }
  return common::Status::Ok();
}

std::string EncodeTraceEvents(const std::vector<obs::TraceEvent>& events) {
  std::string payload;
  SerializeValue(static_cast<std::uint64_t>(events.size()), payload);
  for (const obs::TraceEvent& event : events) {
    SerializeValue(event.name, payload);
    SerializeValue(event.category, payload);
    SerializeValue(static_cast<std::uint8_t>(event.phase), payload);
    SerializeValue(event.pid, payload);
    SerializeValue(event.tid, payload);
    SerializeValue(event.round, payload);
    SerializeValue(event.shard, payload);
    SerializeValue(event.task_id, payload);
    SerializeValue(event.t_start_us, payload);
    SerializeValue(event.t_end_us, payload);
    std::vector<std::tuple<std::string, std::string, std::uint8_t>> args;
    args.reserve(event.args.size());
    for (const obs::TraceArg& arg : event.args) {
      args.emplace_back(arg.key, arg.value,
                        static_cast<std::uint8_t>(arg.numeric));
    }
    SerializeValue(args, payload);
  }
  return payload;
}

common::Status DecodeTraceEvents(const std::string& payload,
                                 std::vector<obs::TraceEvent>& events) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  std::uint64_t count = 0;
  if (!DeserializeValue(p, end, count)) return Corrupt("trace events");
  events.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::TraceEvent event;
    std::uint8_t phase = 0;
    std::vector<std::tuple<std::string, std::string, std::uint8_t>> args;
    if (!DeserializeValue(p, end, event.name) ||
        !DeserializeValue(p, end, event.category) ||
        !DeserializeValue(p, end, phase) ||
        !DeserializeValue(p, end, event.pid) ||
        !DeserializeValue(p, end, event.tid) ||
        !DeserializeValue(p, end, event.round) ||
        !DeserializeValue(p, end, event.shard) ||
        !DeserializeValue(p, end, event.task_id) ||
        !DeserializeValue(p, end, event.t_start_us) ||
        !DeserializeValue(p, end, event.t_end_us) ||
        !DeserializeValue(p, end, args)) {
      return Corrupt("trace event");
    }
    event.phase = static_cast<char>(phase);
    event.args.reserve(args.size());
    for (auto& [key, value, numeric] : args) {
      event.args.push_back(obs::TraceArg{std::move(key), std::move(value),
                                         numeric != 0});
    }
    events.push_back(std::move(event));
  }
  return common::Status::Ok();
}

}  // namespace mrcost::dist
