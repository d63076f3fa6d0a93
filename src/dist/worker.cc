#include "src/dist/worker.h"

#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dist/protocol.h"
#include "src/dist/registry.h"
#include "src/dist/rpc.h"
#include "src/engine/dist_round.h"
#include "src/engine/plan.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/storage/wire_run.h"

namespace mrcost::dist {

namespace {

/// All writes to the coordinator (task replies from the main loop,
/// heartbeats from the timer thread) interleave on one fd — serialize
/// them so frames never shear.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  common::Status Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    return WriteFrame(fd_, payload);
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Heartbeat timer: one Heartbeat{seq} per interval until stopped. A
/// failed send means the coordinator is gone; the thread just stops (the
/// main loop will hit EOF on its own).
class Heartbeater {
 public:
  Heartbeater(FrameWriter& writer, double interval_ms)
      : writer_(writer), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Run(); });
  }

  ~Heartbeater() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t seq = 0;
    while (!stop_) {
      if (cv_.wait_for(lock,
                       std::chrono::duration<double, std::milli>(
                           interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      const bool ok = writer_.Send(EncodeHeartbeat({++seq})).ok();
      lock.lock();
      if (!ok) return;
    }
  }

  FrameWriter& writer_;
  double interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

TaskDoneMsg FailTask(std::uint64_t task_id, const common::Status& status) {
  TaskDoneMsg done;
  done.task_id = task_id;
  done.ok = 0;
  done.error = status.ToString();
  done.retryable =
      status.code() == common::StatusCode::kUnavailable ? 1 : 0;
  return done;
}

/// The data-socket server: an AF_UNIX listener at
/// DataEndpointPath plus one thread per FetchRun connection. Each
/// connection streams a registered run's encoded blocks under the
/// fetcher's credit window: `credits` blocks may be in flight; past that
/// the server blocks reading RunCredit frames, and the time spent blocked
/// is reported in RunEnd (and the dist.credit_wait_ms histogram).
class DataServer {
 public:
  DataServer(storage::RunRegistry& registry,
             std::uint32_t kill_after_fetches)
      : registry_(registry), kill_after_fetches_(kill_after_fetches) {}

  ~DataServer() { Stop(); }

  common::Status Start(const std::string& endpoint) {
    endpoint_ = endpoint;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return common::Status::Internal(
          std::string("data server: socket: ") + std::strerror(errno));
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (endpoint.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return common::Status::InvalidArgument(
          "data server: endpoint path too long: " + endpoint);
    }
    std::memcpy(addr.sun_path, endpoint.c_str(), endpoint.size() + 1);
    ::unlink(endpoint.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      return common::Status::Internal("data server: bind " + endpoint +
                                      ": " + std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(endpoint.c_str());
      return common::Status::Internal(
          std::string("data server: listen: ") + std::strerror(err));
    }
    listen_fd_ = fd;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return common::Status::Ok();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
      // Unblock the accept loop and every in-flight Serve read.
      if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& thread : conn_threads_) thread.join();
    conn_threads_.clear();
    for (int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(endpoint_.c_str());
    }
  }

 private:
  void AcceptLoop() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // Stop() shut the listener down (or it truly broke).
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        ::close(fd);
        return;
      }
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  /// One connection: FetchRun frames arrive sequentially; each streams
  /// its run to completion before the next is read.
  void Serve(int fd) {
    std::string payload;
    while (true) {
      if (!ReadFrame(fd, payload).ok()) return;
      auto type = PeekType(payload);
      if (!type.ok() || *type != MsgType::kFetchRun) return;
      FetchRunMsg fetch;
      if (!DecodeFetchRun(payload, fetch).ok()) return;
      const std::uint32_t served = ++fetches_served_;
      const bool kill_armed =
          kill_after_fetches_ > 0 && served == kill_after_fetches_;
      if (!ServeRun(fd, fetch, kill_armed)) return;
    }
  }

  bool ServeRun(int fd, const FetchRunMsg& fetch, bool kill_armed) {
    auto run = registry_.Find(fetch.run_id);
    if (run == nullptr) {
      RunErrorMsg error;
      error.message = "unknown run " + fetch.run_id;
      (void)WriteFrame(fd, EncodeRunError(error));
      return false;
    }
    std::uint32_t credits = fetch.credits > 0 ? fetch.credits : 1;
    std::uint64_t blocks = 0;
    double credit_wait_ms = 0;
    std::string payload;
    auto send_block = [&](std::string_view frame) -> bool {
      while (credits == 0) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!ReadFrame(fd, payload).ok()) return false;
        credit_wait_ms +=
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        RunCreditMsg credit;
        auto type = PeekType(payload);
        if (!type.ok() || *type != MsgType::kRunCredit ||
            !DecodeRunCredit(payload, credit).ok()) {
          return false;
        }
        credits += credit.credits;
      }
      if (!WriteRunBlock(fd, frame).ok()) return false;
      --credits;
      ++blocks;
      if (kill_armed && blocks == 1) {
        // Fault injection: die with this stream truncated — the fetcher
        // sees EOF mid-run, exactly like a real crash.
        ::raise(SIGKILL);
      }
      return true;
    };

    if (run->overflow_path.empty()) {
      for (const std::string& frame : run->frames) {
        if (!send_block(frame)) return false;
      }
    } else {
      auto file = storage::SpillFileReader::Open(run->overflow_path);
      if (!file.ok()) {
        RunErrorMsg error;
        error.message = "overflow read: " + file.status().ToString();
        (void)WriteFrame(fd, EncodeRunError(error));
        return false;
      }
      storage::SpillFileReader reader = std::move(file.value());
      std::string frame;
      while (true) {
        bool done = false;
        if (auto status = reader.Next(frame, done); !status.ok()) {
          RunErrorMsg error;
          error.message = "overflow read: " + status.ToString();
          (void)WriteFrame(fd, EncodeRunError(error));
          return false;
        }
        if (done) break;
        if (!send_block(frame)) return false;
      }
    }

    if (obs::MetricsEnabled()) {
      obs::Registry::Global().ObserveHistogram(
          "dist.credit_wait_ms",
          static_cast<std::uint64_t>(credit_wait_ms));
    }
    RunEndMsg end;
    end.blocks = blocks;
    end.rows = run->rows;
    end.credit_wait_ms = credit_wait_ms;
    return WriteFrame(fd, EncodeRunEnd(end)).ok();
  }

  storage::RunRegistry& registry_;
  std::uint32_t kill_after_fetches_ = 0;
  std::atomic<std::uint32_t> fetches_served_{0};
  std::string endpoint_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex mu_;
  bool stopped_ = false;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace

int RunWorker(int fd) {
  // A fetcher can die mid-stream (that is a supported failure mode); the
  // resulting EPIPE must surface as a write error, not kill this worker.
  ::signal(SIGPIPE, SIG_IGN);
  std::string payload;
  if (auto status = ReadFrame(fd, payload); !status.ok()) {
    std::fprintf(stderr, "mrcost-worker: reading Hello: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  HelloMsg hello;
  if (auto type = PeekType(payload);
      !type.ok() || *type != MsgType::kHello) {
    std::fprintf(stderr, "mrcost-worker: expected Hello first\n");
    return 1;
  }
  if (auto status = DecodeHello(payload, hello); !status.ok()) {
    std::fprintf(stderr, "mrcost-worker: bad Hello: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Trace clock sync: the delta between the coordinator's clock at Hello
  // send time and ours at receipt shifts every local timestamp onto the
  // coordinator timeline (socketpair latency is microseconds — well under
  // the span widths the merged trace is read at).
  const std::int64_t clock_offset_us =
      static_cast<std::int64_t>(hello.coord_now_us) -
      static_cast<std::int64_t>(obs::TraceRecorder::NowUs());
  if (hello.trace_enabled) obs::TraceRecorder::Global().Enable();
  if (hello.metrics_enabled) obs::Registry::Global().Enable();

  auto plan = PlanRegistry::Global().Build(hello.recipe, hello.args);
  if (!plan.ok()) {
    std::fprintf(stderr, "mrcost-worker: rebuilding plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  const auto& graph = plan->graph();

  // Publish runs locally and serve them over the data socket. Both must
  // exist before Ready — the first ReduceTask can dial any worker the
  // moment the coordinator sees every Ready.
  storage::RunRegistry run_registry(
      hello.spill_dir + "/ovf-w" + std::to_string(hello.worker_index),
      hello.retain_budget_bytes);
  DataServer data_server(run_registry, hello.self_kill_after_fetches);
  if (auto status = data_server.Start(
          DataEndpointPath(hello.spill_dir, hello.worker_index));
      !status.ok()) {
    std::fprintf(stderr, "mrcost-worker: %s\n", status.ToString().c_str());
    return 1;
  }

  FrameWriter writer(fd);
  if (auto status = writer.Send(EncodeReady()); !status.ok()) {
    std::fprintf(stderr, "mrcost-worker: sending Ready: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  Heartbeater heartbeater(writer, hello.heartbeat_interval_ms);

  std::uint32_t map_tasks_received = 0;
  while (true) {
    if (auto status = ReadFrame(fd, payload); !status.ok()) {
      // Coordinator EOF (it died or closed early) ends the session.
      std::fprintf(stderr, "mrcost-worker[%u]: read: %s\n",
                   hello.worker_index, status.ToString().c_str());
      return IsEof(status) ? 0 : 1;
    }
    auto type = PeekType(payload);
    if (!type.ok()) return 1;

    if (*type == MsgType::kShutdown) break;

    if (*type == MsgType::kMapTask) {
      MapTaskMsg task;
      if (auto status = DecodeMapTask(payload, task); !status.ok()) {
        return 1;
      }
      ++map_tasks_received;
      if (hello.self_kill_after_tasks > 0 &&
          map_tasks_received == hello.self_kill_after_tasks) {
        // Fault injection: die the way a crashed worker dies — no reply,
        // no cleanup, mid-task.
        ::raise(SIGKILL);
      }
      const std::uint64_t t0 = obs::TraceRecorder::NowUs();
      TaskDoneMsg done;
      done.task_id = task.task_id;
      if (task.node >= graph->nodes.size() || !graph->nodes[task.node].dist) {
        done = FailTask(task.task_id,
                        common::Status::InvalidArgument(
                            "dist: node has no dist ops"));
      } else {
        engine::internal::DistMapSpec spec;
        spec.chunk_path = task.chunk_path;
        spec.chunk_index = task.chunk;
        spec.num_shards = task.num_shards;
        spec.run_prefix = task.run_prefix;
        spec.run_registry = &run_registry;
        auto outcome = graph->nodes[task.node].dist->run_map(spec);
        if (outcome.ok()) {
          done.ok = 1;
          done.payload = EncodeMapOutcome(*outcome);
        } else {
          done = FailTask(task.task_id, outcome.status());
        }
      }
      if (obs::TraceRecorder::enabled()) {
        obs::TraceEvent event;
        event.name = "dist-map";
        event.category = "dist";
        event.round = task.node;
        event.shard = task.chunk;
        event.task_id = task.task_id;
        event.t_start_us = t0;
        event.t_end_us = obs::TraceRecorder::NowUs();
        event.args.push_back(obs::Arg("chunk", task.chunk));
        obs::TraceRecorder::Global().Append(std::move(event));
      }
      if (auto status = writer.Send(EncodeTaskDone(done)); !status.ok()) {
        return 1;
      }
      continue;
    }

    if (*type == MsgType::kReduceTask) {
      ReduceTaskMsg task;
      if (auto status = DecodeReduceTask(payload, task); !status.ok()) {
        return 1;
      }
      const std::uint64_t t0 = obs::TraceRecorder::NowUs();
      TaskDoneMsg done;
      done.task_id = task.task_id;
      if (task.node >= graph->nodes.size() || !graph->nodes[task.node].dist) {
        done = FailTask(task.task_id,
                        common::Status::InvalidArgument(
                            "dist: node has no dist ops"));
      } else {
        engine::internal::DistReduceSpec spec;
        spec.shard = task.shard;
        spec.run_ids = task.run_ids;
        spec.run_endpoints = task.run_endpoints;
        spec.fetch_credits = task.fetch_credits;
        spec.result_path = task.result_path;
        spec.scratch_dir = task.scratch_dir;
        if (task.merge_fan_in > 0) {
          spec.merge_fan_in = static_cast<std::size_t>(task.merge_fan_in);
        }
        auto outcome = graph->nodes[task.node].dist->run_reduce(spec);
        if (outcome.ok()) {
          done.ok = 1;
          done.payload = EncodeReduceOutcome(*outcome);
        } else {
          done = FailTask(task.task_id, outcome.status());
        }
      }
      if (obs::TraceRecorder::enabled()) {
        obs::TraceEvent event;
        event.name = "dist-reduce";
        event.category = "dist";
        event.round = task.node;
        event.shard = task.shard;
        event.task_id = task.task_id;
        event.t_start_us = t0;
        event.t_end_us = obs::TraceRecorder::NowUs();
        event.args.push_back(obs::Arg("shard", task.shard));
        obs::TraceRecorder::Global().Append(std::move(event));
      }
      if (auto status = writer.Send(EncodeTaskDone(done)); !status.ok()) {
        return 1;
      }
      continue;
    }

    std::fprintf(stderr, "mrcost-worker[%u]: unexpected message type %u\n",
                 hello.worker_index, static_cast<unsigned>(*type));
    return 1;
  }

  // Every round has collected before Shutdown arrives, so no fetch can
  // still be in flight — stop serving (and join the server threads) before
  // snapshotting obs state so their histogram writes are all in.
  data_server.Stop();

  ByeMsg bye;
  if (hello.metrics_enabled) {
    bye.registry_payload =
        EncodeRegistrySnapshot(obs::Registry::Global().TakeSnapshot());
    obs::Registry::Global().Disable();
  }
  if (hello.trace_enabled) {
    std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::Global().Snapshot();
    for (auto& event : events) {
      event.t_start_us = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(event.t_start_us) + clock_offset_us);
      event.t_end_us = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(event.t_end_us) + clock_offset_us);
    }
    bye.trace_payload = EncodeTraceEvents(events);
    obs::TraceRecorder::Global().Disable();
  }
  if (auto status = writer.Send(EncodeBye(bye)); !status.ok()) {
    return 1;
  }
  return 0;
}

}  // namespace mrcost::dist
