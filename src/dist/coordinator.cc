#include "src/dist/coordinator.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/dist/rpc.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::dist {

namespace {

std::string DefaultWorkerBinary() {
  std::error_code ec;
  auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "mrcost-worker";
  return (self.parent_path() / "mrcost-worker").string();
}

}  // namespace

// ----------------------------------------------------------- state machine

void TaskStateMachine::Add(std::uint64_t task_id) {
  MRCOST_CHECK(tasks_.emplace(task_id, Task{}).second);
}

void TaskStateMachine::Assign(std::uint64_t task_id, int worker) {
  auto& task = tasks_.at(task_id);
  MRCOST_CHECK(task.state == State::kPending);
  task.state = State::kRunning;
  task.worker = worker;
  ++task.attempts;
}

std::vector<std::uint64_t> TaskStateMachine::ReassignWorker(int worker) {
  std::vector<std::uint64_t> reassigned;
  for (auto& [id, task] : tasks_) {
    if (task.state == State::kRunning && task.worker == worker) {
      task.state = State::kPending;
      task.worker = -1;
      reassigned.push_back(id);
    }
  }
  return reassigned;
}

bool TaskStateMachine::Commit(std::uint64_t task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state == State::kDone) return false;
  it->second.state = State::kDone;
  it->second.worker = -1;
  return true;
}

TaskStateMachine::State TaskStateMachine::state(std::uint64_t task_id) const {
  return tasks_.at(task_id).state;
}

int TaskStateMachine::attempts(std::uint64_t task_id) const {
  return tasks_.at(task_id).attempts;
}

int TaskStateMachine::worker_of(std::uint64_t task_id) const {
  const auto& task = tasks_.at(task_id);
  return task.state == State::kRunning ? task.worker : -1;
}

bool TaskStateMachine::AllDone() const {
  for (const auto& [id, task] : tasks_) {
    if (task.state != State::kDone) return false;
  }
  return true;
}

// ------------------------------------------------------------- coordinator

Coordinator::~Coordinator() { Stop(); }

double Coordinator::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::Status Coordinator::Start(const Options& options) {
  // A worker dying mid-write must surface as an EPIPE Status, not a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  options_ = options;
  if (options_.worker_binary.empty()) {
    options_.worker_binary = DefaultWorkerBinary();
  }
  if (options_.num_workers < 1) {
    return common::Status::InvalidArgument(
        "dist: num_workers must be >= 1");
  }
  workers_.resize(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    if (auto status = SpawnWorker(i); !status.ok()) {
      started_ = true;  // so Stop tears down what did spawn
      Stop();
      return status;
    }
  }

  // All workers must check in Ready (plan rebuilt, heartbeats running)
  // before any task flows.
  {
    std::unique_lock<std::mutex> lock(mu_);
    const bool all_ready = cv_.wait_for(
        lock, std::chrono::seconds(60), [this] {
          for (const auto& w : workers_) {
            if (w.live && !w.ready) return false;
          }
          return true;
        });
    int ready = 0;
    for (const auto& w : workers_) ready += (w.live && w.ready) ? 1 : 0;
    if (!all_ready || ready == 0) {
      lock.unlock();
      started_ = true;
      Stop();
      return common::Status::Internal(
          "dist: workers failed to start (" + std::to_string(ready) + "/" +
          std::to_string(options_.num_workers) + " ready) — worker binary " +
          options_.worker_binary);
    }
  }

  monitor_ = std::thread([this] { MonitorLoop(); });
  started_ = true;
  return common::Status::Ok();
}

common::Status Coordinator::SpawnWorker(int index) {
  // Both ends close-on-exec from birth: the parent end must never leak
  // into any child, and the child end is re-exposed as fd 3 by dup2
  // (which clears CLOEXEC on the duplicate).
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return common::Status::Internal(std::string("dist: socketpair: ") +
                                    std::strerror(errno));
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return common::Status::Internal(std::string("dist: fork: ") +
                                    std::strerror(errno));
  }
  if (pid == 0) {
    // Child: worker end on fd 3, everything else of ours closed by exec
    // (the parent ends carry CLOEXEC; other workers' fds were opened
    // CLOEXEC too, so siblings don't hold each other's sockets open).
    ::close(sv[0]);
    if (sv[1] != 3) {
      ::dup2(sv[1], 3);  // the duplicate is born without CLOEXEC
      ::close(sv[1]);
    } else {
      const int flags = ::fcntl(3, F_GETFD);
      if (flags >= 0) ::fcntl(3, F_SETFD, flags & ~FD_CLOEXEC);
    }
    ::execl(options_.worker_binary.c_str(), "mrcost-worker",
            static_cast<char*>(nullptr));
    std::fprintf(stderr, "dist: exec %s: %s\n",
                 options_.worker_binary.c_str(), std::strerror(errno));
    ::_exit(127);
  }

  // Parent.
  ::close(sv[1]);

  Worker& worker = workers_[index];
  worker.fd = sv[0];
  worker.pid = pid;
  worker.live = true;
  worker.last_heartbeat_ms = NowMs();

  HelloMsg hello;
  hello.worker_index = static_cast<std::uint32_t>(index);
  hello.recipe = options_.recipe;
  hello.args = options_.args;
  hello.spill_dir = options_.spill_dir;
  hello.trace_enabled = options_.trace_enabled ? 1 : 0;
  hello.metrics_enabled = options_.metrics_enabled ? 1 : 0;
  hello.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  const bool victim = index == options_.kill_worker_index;
  // kill_after_fetches supersedes the map-task kill: one victim, one mode.
  hello.self_kill_after_tasks =
      victim && options_.kill_after_fetches == 0
          ? static_cast<std::uint32_t>(options_.kill_after_tasks)
          : 0;
  hello.self_kill_after_fetches =
      victim ? static_cast<std::uint32_t>(options_.kill_after_fetches) : 0;
  hello.retain_budget_bytes = options_.retain_budget_bytes;
  hello.coord_now_us = obs::TraceRecorder::NowUs();
  if (auto status = WriteFrame(worker.fd, EncodeHello(hello));
      !status.ok()) {
    return status;
  }

  worker.receiver = std::thread([this, index] { ReceiveLoop(index); });
  return common::Status::Ok();
}

void Coordinator::ReceiveLoop(int index) {
  const int fd = workers_[index].fd;
  std::string payload;
  while (true) {
    auto status = ReadFrame(fd, payload);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      // EOF after Bye (or during teardown) is the clean exit; anything
      // else is a death.
      if (!workers_[index].bye_received && !stopping_) {
        MarkWorkerDead(index, status.ToString().c_str());
      }
      return;
    }
    auto type = PeekType(payload);
    if (!type.ok()) continue;

    switch (*type) {
      case MsgType::kReady: {
        std::lock_guard<std::mutex> lock(mu_);
        workers_[index].ready = true;
        cv_.notify_all();
        break;
      }
      case MsgType::kHeartbeat: {
        std::lock_guard<std::mutex> lock(mu_);
        workers_[index].last_heartbeat_ms = NowMs();
        break;
      }
      case MsgType::kTaskDone: {
        TaskDoneMsg msg;
        if (!DecodeTaskDone(payload, msg).ok()) break;
        std::lock_guard<std::mutex> lock(mu_);
        workers_[index].busy = false;
        workers_[index].last_heartbeat_ms = NowMs();
        if (state_machine_.Commit(msg.task_id)) {
          auto& result = pending_[msg.task_id];
          result.done = true;
          result.worker = index;
          result.msg = std::move(msg);
        } else {
          ++stats_.duplicate_commits;
        }
        cv_.notify_all();
        break;
      }
      case MsgType::kBye: {
        ByeMsg msg;
        if (!DecodeBye(payload, msg).ok()) break;
        std::lock_guard<std::mutex> lock(mu_);
        workers_[index].bye = std::move(msg);
        workers_[index].bye_received = true;
        cv_.notify_all();
        break;
      }
      default:
        break;
    }
  }
}

void Coordinator::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.heartbeat_interval_ms));
    if (stopping_) return;
    const double now = NowMs();
    for (int i = 0; i < static_cast<int>(workers_.size()); ++i) {
      if (workers_[i].live &&
          now - workers_[i].last_heartbeat_ms >
              options_.heartbeat_timeout_ms) {
        MarkWorkerDead(i, "heartbeat timeout");
      }
    }
  }
}

void Coordinator::MarkWorkerDead(int index, const char* cause) {
  Worker& worker = workers_[index];
  if (!worker.live) return;
  worker.live = false;
  worker.busy = false;
  ++stats_.workers_died;
  std::fprintf(stderr, "dist: worker %d (pid %d) died: %s\n", index,
               static_cast<int>(worker.pid), cause);
  // Make death final: a half-dead worker must not keep executing and
  // racing its replacement's writes.
  ::kill(worker.pid, SIGKILL);
  // Wake its receiver thread out of a blocked read; the fd itself is
  // closed at join time in Stop().
  ::shutdown(worker.fd, SHUT_RDWR);
  for (std::uint64_t task_id : state_machine_.ReassignWorker(index)) {
    ++stats_.reissued_tasks;
    pending_[task_id].worker_died = true;
  }
  cv_.notify_all();
}

int Coordinator::AcquireWorker(std::unique_lock<std::mutex>& lock) {
  while (true) {
    bool any_live = false;
    for (int i = 0; i < static_cast<int>(workers_.size()); ++i) {
      if (workers_[i].live && workers_[i].ready) {
        any_live = true;
        if (!workers_[i].busy) return i;
      }
    }
    if (!any_live) return -1;
    cv_.wait(lock);
  }
}

common::Result<std::string> Coordinator::RunTask(
    const std::function<std::string(int attempt, std::uint64_t task_id)>&
        make_frame,
    int* winner) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t task_id = next_task_id_++;
  state_machine_.Add(task_id);
  pending_[task_id] = PendingResult{};

  while (true) {
    pending_[task_id].worker_died = false;
    const int worker = AcquireWorker(lock);
    if (worker < 0) {
      pending_.erase(task_id);
      return common::Status::Internal(
          "dist: all workers dead; cannot run task " +
          std::to_string(task_id));
    }
    state_machine_.Assign(task_id, worker);
    workers_[worker].busy = true;
    const int attempt = state_machine_.attempts(task_id);
    const std::string frame = make_frame(attempt, task_id);
    const int fd = workers_[worker].fd;

    lock.unlock();
    auto status = WriteFrame(fd, frame);
    lock.lock();

    if (!status.ok()) {
      // Broken pipe = the worker died under us. MarkWorkerDead reassigns
      // this task (no-op if the receiver already noticed).
      MarkWorkerDead(worker, status.ToString().c_str());
      continue;
    }
    cv_.wait(lock, [&] {
      return pending_[task_id].done || pending_[task_id].worker_died;
    });
    if (!pending_[task_id].done) continue;  // re-issue on a live worker

    TaskDoneMsg msg = std::move(pending_[task_id].msg);
    if (winner != nullptr) *winner = pending_[task_id].worker;
    pending_.erase(task_id);
    if (!msg.ok) {
      // A retryable failure (wire fetch lost its source worker) maps to
      // kUnavailable so the executor can re-execute the inputs and retry;
      // a deterministic task error stays terminal.
      if (msg.retryable) {
        return common::Status::Unavailable(
            "dist: task failed retryably: " + msg.error);
      }
      return common::Status::Internal("dist: task failed on worker: " +
                                      msg.error);
    }
    return std::move(msg.payload);
  }
}

common::Result<engine::internal::DistMapOutcome> Coordinator::RunMap(
    std::uint32_t node,
    const std::function<engine::internal::DistMapSpec(int attempt)>&
        make_spec,
    std::uint32_t chunk, std::uint32_t num_shards, int* winner) {
  auto payload = RunTask(
      [&](int attempt, std::uint64_t task_id) {
        const auto spec = make_spec(attempt);
        MapTaskMsg msg;
        msg.task_id = task_id;
        msg.node = node;
        msg.chunk = chunk;
        msg.num_shards = num_shards;
        msg.chunk_path = spec.chunk_path;
        msg.run_prefix = spec.run_prefix;
        return EncodeMapTask(msg);
      },
      winner);
  if (!payload.ok()) return payload.status();
  engine::internal::DistMapOutcome outcome;
  if (auto status = DecodeMapOutcome(*payload, outcome); !status.ok()) {
    return status;
  }
  return outcome;
}

common::Status Coordinator::RunReduce(
    std::uint32_t node,
    const std::function<engine::internal::DistReduceSpec(int attempt)>&
        make_spec) {
  return RunTask([&](int attempt, std::uint64_t task_id) {
           const auto spec = make_spec(attempt);
           ReduceTaskMsg msg;
           msg.task_id = task_id;
           msg.node = node;
           msg.shard = spec.shard;
           msg.result_path = spec.result_path;
           msg.run_ids = spec.run_ids;
           msg.run_endpoints = spec.run_endpoints;
           msg.fetch_credits = spec.fetch_credits;
           msg.rows = spec.rows;
           return EncodeReduceTask(msg);
         })
      .status();
}

void Coordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    for (auto& worker : workers_) {
      if (worker.live) {
        (void)WriteFrame(worker.fd, EncodeShutdown());
      }
    }
    cv_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();

  // Give live workers a moment to deliver Bye, then cut the sockets so
  // every receiver thread unblocks.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10), [this] {
      for (const auto& w : workers_) {
        if (w.live && !w.bye_received) return false;
      }
      return true;
    });
    for (auto& worker : workers_) {
      if (worker.fd >= 0) ::shutdown(worker.fd, SHUT_RDWR);
    }
  }
  for (auto& worker : workers_) {
    if (worker.receiver.joinable()) worker.receiver.join();
    if (worker.fd >= 0) {
      ::close(worker.fd);
      worker.fd = -1;
    }
    if (worker.pid > 0) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      worker.pid = -1;
    }
  }

  // Fold the workers' parting obs payloads into this process's sinks,
  // each worker on its own trace pid lane.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& worker = workers_[i];
    if (!worker.bye_received) continue;
    if (!worker.bye.registry_payload.empty()) {
      (void)MergeRegistryPayload(worker.bye.registry_payload,
                                 static_cast<std::uint32_t>(i),
                                 obs::Registry::Global());
    }
    if (!worker.bye.trace_payload.empty()) {
      std::vector<obs::TraceEvent> events;
      if (DecodeTraceEvents(worker.bye.trace_payload, events).ok()) {
        for (auto& event : events) {
          event.pid = obs::kWorkerPidBase + static_cast<std::uint32_t>(i);
          obs::TraceRecorder::Global().Append(std::move(event));
        }
      }
    }
  }
}

bool Coordinator::worker_live(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index >= 0 && index < static_cast<int>(workers_.size()) &&
         workers_[index].live;
}

int Coordinator::num_live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (const auto& w : workers_) live += w.live ? 1 : 0;
  return live;
}

Coordinator::Stats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mrcost::dist
