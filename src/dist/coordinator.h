#ifndef MRCOST_DIST_COORDINATOR_H_
#define MRCOST_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/dist/protocol.h"
#include "src/engine/dist_round.h"

namespace mrcost::dist {

/// Pure task-attempt bookkeeping, separated from the process plumbing so
/// the failure protocol is unit-testable without forking anything.
///
/// Lifecycle per task: Add -> pending; Assign(worker) -> running;
/// Commit -> done (first commit wins — a re-issued attempt that races a
/// slow original is dropped); ReassignWorker(worker) -> every running
/// task on that worker returns to pending with attempts bumped.
class TaskStateMachine {
 public:
  enum class State { kPending, kRunning, kDone };

  /// Registers a task; ids are caller-chosen and must be unique.
  void Add(std::uint64_t task_id);

  /// pending -> running on `worker`. Checks the task is pending.
  void Assign(std::uint64_t task_id, int worker);

  /// Marks every running task on `worker` pending again (the worker
  /// died); returns those task ids. Their next Assign is a new attempt.
  std::vector<std::uint64_t> ReassignWorker(int worker);

  /// running/pending -> done. Returns true for the winning (first)
  /// commit, false for a duplicate from a raced re-issue.
  bool Commit(std::uint64_t task_id);

  State state(std::uint64_t task_id) const;
  /// Attempts started so far (1 after the first Assign).
  int attempts(std::uint64_t task_id) const;
  int worker_of(std::uint64_t task_id) const;  // -1 unless running
  bool AllDone() const;

 private:
  struct Task {
    State state = State::kPending;
    int worker = -1;
    int attempts = 0;
  };
  std::unordered_map<std::uint64_t, Task> tasks_;
};

/// The multi-process runtime: forks/execs N mrcost-worker processes, each
/// on its own AF_UNIX socketpair, and runs map/reduce tasks on them with
/// heartbeat-based failure detection.
///
/// Threads: one receive thread per worker (TaskDone / Heartbeat / Bye),
/// one monitor thread (heartbeat timeouts -> SIGKILL -> re-issue). RunMap
/// and RunReduce are blocking and may be called concurrently from a
/// scheduler's task threads; each call claims an idle live worker, and a
/// task whose worker dies is transparently re-issued (attempt-distinct
/// output paths keep a zombie's partial files from colliding).
class Coordinator {
 public:
  struct Options {
    int num_workers = 2;
    std::string recipe;
    std::string args;
    std::string spill_dir;
    /// Empty = "mrcost-worker" next to /proc/self/exe.
    std::string worker_binary;
    bool trace_enabled = false;
    bool metrics_enabled = false;
    double heartbeat_interval_ms = 100;
    double heartbeat_timeout_ms = 2000;
    /// Fault injection (tests/CI): worker `kill_worker_index` raises
    /// SIGKILL on receiving its `kill_after_tasks`-th map task — or, when
    /// `kill_after_fetches` > 0, right after serving the
    /// first block of its `kill_after_fetches`-th FetchRun instead.
    int kill_worker_index = -1;
    int kill_after_tasks = 1;
    int kill_after_fetches = 0;
    /// Unread: workers always keep runs in their RunRegistry and serve
    /// them over data sockets. Kept only because perfbench/driver.cc sets
    /// it; goes with engine::ShuffleTransport at the next benchmark change.
    bool wire_shuffle = false;
    /// Per-worker cap on RunRegistry in-memory bytes (0 = unbounded).
    std::uint64_t retain_budget_bytes = 0;
  };

  struct Stats {
    std::uint64_t reissued_tasks = 0;
    std::uint64_t workers_died = 0;
    std::uint64_t duplicate_commits = 0;
  };

  Coordinator() = default;
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Spawns the workers and waits for every Ready. On failure the
  /// already-spawned workers are torn down.
  common::Status Start(const Options& options);

  /// Runs one map / reduce task to successful completion, re-issuing
  /// across worker deaths. `make_spec` receives the attempt number so
  /// output paths can be attempt-distinct. Fails only when the task
  /// itself fails on a live worker (a real error, not a death — a
  /// retryable failure maps to kUnavailable so the executor can repair
  /// inputs and retry) or every worker is dead. `winner`, when non-null,
  /// receives the index of the worker whose commit won — for a map task
  /// this is the worker now owning the task's runs.
  common::Result<engine::internal::DistMapOutcome> RunMap(
      std::uint32_t node,
      const std::function<engine::internal::DistMapSpec(int attempt)>&
          make_spec,
      std::uint32_t chunk, std::uint32_t num_shards,
      int* winner = nullptr);
  common::Status RunReduce(
      std::uint32_t node,
      const std::function<engine::internal::DistReduceSpec(int attempt)>&
          make_spec);

  /// Whether worker `index` is still live (whether its runs are still
  /// fetchable).
  bool worker_live(int index) const;

  /// Graceful shutdown: Shutdown to every live worker, merge their Bye
  /// payloads (registry + trace, re-tagged pid = 2 + worker index) into
  /// the global obs sinks, reap all children. Idempotent.
  void Stop();

  int num_live_workers() const;
  Stats stats() const;

 private:
  struct Worker {
    int fd = -1;
    pid_t pid = -1;
    bool live = false;
    bool ready = false;
    bool bye_received = false;
    ByeMsg bye;
    double last_heartbeat_ms = 0;
    bool busy = false;  // has a task in flight
    std::thread receiver;
  };

  struct PendingResult {
    bool done = false;
    bool worker_died = false;
    int worker = -1;  // who committed (set with done)
    TaskDoneMsg msg;
  };

  common::Status SpawnWorker(int index);
  void ReceiveLoop(int index);
  void MonitorLoop();
  void MarkWorkerDead(int index, const char* cause);  // mu_ held
  /// Claims an idle live worker (blocks); -1 when all workers are dead.
  int AcquireWorker(std::unique_lock<std::mutex>& lock);
  /// One task to successful completion across re-issues; returns the
  /// winning TaskDone payload and (optionally) the committing worker.
  common::Result<std::string> RunTask(
      const std::function<std::string(int attempt, std::uint64_t task_id)>&
          make_frame,
      int* winner = nullptr);

  double NowMs() const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Worker> workers_;
  TaskStateMachine state_machine_;
  std::unordered_map<std::uint64_t, PendingResult> pending_;
  std::uint64_t next_task_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  Stats stats_;
  std::thread monitor_;
};

}  // namespace mrcost::dist

#endif  // MRCOST_DIST_COORDINATOR_H_
