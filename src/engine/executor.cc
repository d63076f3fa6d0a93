#include "src/engine/executor.h"

#include <sys/resource.h>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::engine {
namespace {

std::uint64_t StageBucket(std::uint32_t round_tag, StageKind kind) {
  return (static_cast<std::uint64_t>(round_tag) << 3) |
         static_cast<std::uint64_t>(kind);
}

const char* StageCategory(StageKind kind) {
  switch (kind) {
    case StageKind::kMap:
      return "map";
    case StageKind::kShuffle:
      return "shuffle";
    case StageKind::kReduce:
      return "reduce";
    case StageKind::kFinalize:
      return "finalize";
    case StageKind::kOther:
      return "other";
  }
  return "other";
}

const char* DefaultTaskName(StageKind kind) {
  switch (kind) {
    case StageKind::kMap:
      return "MapTask";
    case StageKind::kShuffle:
      return "ShuffleTask";
    case StageKind::kReduce:
      return "ReduceTask";
    case StageKind::kFinalize:
      return "Finalize";
    case StageKind::kOther:
      return "Task";
  }
  return "Task";
}

/// Everything a trace span needs about a task, copied out under mu_ so the
/// event can be composed and appended lock-free.
struct AttemptLabel {
  const char* name = nullptr;
  StageKind kind = StageKind::kOther;
  std::uint32_t round = 0;
  std::uint32_t shard = 0;
  std::uint64_t trace_id = 0;
};

void EmitAttemptSpan(const AttemptLabel& label, std::uint64_t t_start_us,
                     std::uint64_t t_end_us, bool is_backup, bool won,
                     std::uint64_t minor_faults) {
  if (!obs::TraceRecorder::enabled() || label.trace_id == 0) return;
  obs::TraceEvent event;
  event.name = label.name != nullptr ? label.name
                                     : DefaultTaskName(label.kind);
  event.category = StageCategory(label.kind);
  event.round = label.round;
  event.shard = label.shard;
  event.task_id = label.trace_id;
  event.t_start_us = t_start_us;
  event.t_end_us = t_end_us;
  event.args.push_back(obs::Arg("attempt", is_backup ? "backup" : "primary"));
  event.args.push_back(obs::Arg("outcome", won ? "win" : "loss"));
  event.args.push_back(obs::Arg("minor_faults", minor_faults));
  obs::TraceRecorder::Global().Append(std::move(event));
}

}  // namespace

StageGraphExecutor::StageGraphExecutor(common::ThreadPool& pool)
    : pool_(pool), epoch_(std::chrono::steady_clock::now()) {}

StageGraphExecutor::~StageGraphExecutor() { Wait(); }

double StageGraphExecutor::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void StageGraphExecutor::ConfigureSpeculation(
    const SpeculationConfig& config) {
  MRCOST_CHECK(!config.enabled || config.slowdown_factor >= 1.0);
  std::unique_lock<std::mutex> lock(mu_);
  spec_ = config;
}

StageGraphExecutor::SpeculationStats StageGraphExecutor::speculation_stats(
    std::uint32_t round_tag) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = spec_stats_.find(round_tag);
  return it == spec_stats_.end() ? SpeculationStats{} : it->second;
}

void StageGraphExecutor::SetClockForTest(std::function<double()> clock) {
  std::unique_lock<std::mutex> lock(mu_);
  clock_ = std::move(clock);
}

StageGraphExecutor::TaskId StageGraphExecutor::AddTask(
    StageKind kind, std::uint32_t round_tag, std::vector<TaskId> deps,
    std::function<void()> fn, bool speculatable, const char* trace_name,
    std::uint32_t shard) {
  TaskId id;
  bool ready;
  {
    std::unique_lock<std::mutex> lock(mu_);
    id = tasks_.size();
    tasks_.emplace_back();
    Task& task = tasks_.back();
    task.fn = std::move(fn);
    task.kind = kind;
    task.round_tag = round_tag;
    task.speculatable = speculatable;
    task.trace_name = trace_name;
    task.shard = shard;
    if (obs::TraceRecorder::enabled()) {
      task.trace_id = obs::TraceRecorder::Global().NextTaskId();
    }
    for (TaskId dep : deps) {
      if (dep == kNoTask) continue;
      if (!tasks_[dep].done) {
        ++task.unmet;
        tasks_[dep].dependents.push_back(id);
      }
    }
    ready = task.unmet == 0;
    ++pending_;
    if (ready) ++attempts_outstanding_;
  }
  if (ready) SubmitAttempt(id, /*is_backup=*/false);
  return id;
}

void StageGraphExecutor::SubmitAttempt(TaskId id, bool is_backup) {
  // attempts_outstanding_ was incremented by the caller under mu_, so Wait
  // cannot return between the decision to run this attempt and its start.
  pool_.Submit([this, id, is_backup] { RunAttempt(id, is_backup); });
}

void StageGraphExecutor::RunAttempt(TaskId id, bool is_backup) {
  std::function<void()> fn;
  AttemptLabel label;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Task& task = tasks_[id];
    label = AttemptLabel{task.trace_name, task.kind, task.round_tag,
                         task.shard, task.trace_id};
    if (task.done) {
      // The task finished before this attempt even started (a backup that
      // lost the race to the scheduler): nothing to run. A zero-length
      // loss span keeps the trace's attempt accounting complete.
      ++spec_stats_[task.round_tag].discarded;
      // Emit before the outstanding-count decrement: once Wait() can
      // return, every attempt span must already be recorded.
      const std::uint64_t now_us = obs::TraceRecorder::NowUs();
      EmitAttemptSpan(label, now_us, now_us, is_backup, /*won=*/false,
                      /*minor_faults=*/0);
      if (--attempts_outstanding_ == 0 && pending_ == 0) {
        all_done_.notify_all();
      }
      return;
    }
    if (!task.started) {
      task.started = true;
      task.start_clock_ms = SpecClockLocked();
      task.span.begin_ms = NowMs();
    }
    if (task.speculatable) {
      fn = task.fn;  // keep the original alive for a (second) attempt
    } else {
      fn = std::move(task.fn);
      task.fn = nullptr;
    }
  }

  // Page faults are counted only on traced tasks: two getrusage calls an
  // attempt, and nothing reads the count but the trace.
  const bool traced = label.trace_id != 0;
  const std::uint64_t faults_before =
      traced ? internal::ThreadMinorFaults() : 0;
  const std::uint64_t attempt_start_us = obs::TraceRecorder::NowUs();
  fn();
  const std::uint64_t attempt_end_us = obs::TraceRecorder::NowUs();
  const std::uint64_t minor_faults =
      traced ? internal::ThreadMinorFaults() - faults_before : 0;

  std::vector<TaskId> ready;
  bool won = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Task& task = tasks_[id];
    task.minor_faults += minor_faults;
    if (task.done) {
      // The other attempt committed first; this copy's work is discarded
      // (its data never left attempt-local buffers).
      ++spec_stats_[task.round_tag].discarded;
    } else {
      won = true;
      task.done = true;
      task.fn = nullptr;
      task.span.end_ms = NowMs();
      if (task.speculatable) {
        completed_ms_[StageBucket(task.round_tag, task.kind)].push_back(
            SpecClockLocked() - task.start_clock_ms);
      }
      if (is_backup) ++spec_stats_[task.round_tag].won;
      for (TaskId dependent : task.dependents) {
        if (--tasks_[dependent].unmet == 0) ready.push_back(dependent);
      }
      task.dependents.clear();
      --pending_;
    }
    attempts_outstanding_ += ready.size();
    std::vector<TaskId> backups;
    if (won && spec_.enabled) {
      backups = MaybeSpeculateLocked();
    }
    // Record before the outstanding-count decrement: once Wait() can
    // return, every attempt's span and counters must already be visible.
    // The recorder/registry only take their own uncontended per-thread
    // locks, never mu_, so there is no ordering cycle.
    EmitAttemptSpan(label, attempt_start_us, attempt_end_us, is_backup, won,
                    minor_faults);
    if (obs::MetricsEnabled()) {
      obs::Registry& registry = obs::Registry::Global();
      registry.ObserveHistogram("exec.task_duration_us",
                                attempt_end_us - attempt_start_us);
      registry.AddCounter(std::string("exec.tasks.") +
                          StageCategory(label.kind));
      if (is_backup && won) registry.AddCounter("exec.speculative_won");
      if (!won) registry.AddCounter("exec.attempts_discarded");
    }
    if (--attempts_outstanding_ == 0 && pending_ == 0) {
      all_done_.notify_all();
    }
    lock.unlock();
    for (TaskId backup : backups) SubmitAttempt(backup, /*is_backup=*/true);
  }
  for (TaskId next : ready) SubmitAttempt(next, /*is_backup=*/false);
}

std::vector<StageGraphExecutor::TaskId>
StageGraphExecutor::MaybeSpeculateLocked() {
  std::vector<TaskId> backups;
  if (!spec_.enabled) return backups;
  const double now = SpecClockLocked();
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    Task& task = tasks_[id];
    if (!task.speculatable || !task.started || task.done ||
        task.backup_launched) {
      continue;
    }
    const auto it = completed_ms_.find(StageBucket(task.round_tag,
                                                   task.kind));
    if (it == completed_ms_.end() || it->second.size() < spec_.min_completed) {
      continue;
    }
    // Median of completed same-stage peers (copy: the stored order is
    // completion order and must stay stable for determinism of spans).
    std::vector<double> durations = it->second;
    std::nth_element(durations.begin(),
                     durations.begin() + durations.size() / 2,
                     durations.end());
    const double median = durations[durations.size() / 2];
    const double threshold =
        spec_.slowdown_factor * std::max(median, spec_.min_task_ms);
    if (now - task.start_clock_ms <= threshold) continue;
    task.backup_launched = true;
    ++spec_stats_[task.round_tag].launched;
    ++attempts_outstanding_;
    backups.push_back(id);
    if (obs::MetricsEnabled()) {
      obs::Registry::Global().AddCounter("exec.speculative_launched");
    }
    if (obs::TraceRecorder::enabled()) {
      obs::TraceEvent event;
      event.name = "SpeculativeBackup";
      event.category = "speculation";
      event.phase = 'i';
      event.round = task.round_tag;
      event.shard = task.shard;
      event.task_id = task.trace_id;
      event.t_start_us = obs::TraceRecorder::NowUs();
      event.t_end_us = event.t_start_us;
      obs::TraceRecorder::Global().Append(std::move(event));
    }
  }
  return backups;
}

void StageGraphExecutor::Wait() {
  std::vector<TaskId> backups;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (pending_ == 0 && attempts_outstanding_ == 0) break;
      if (!spec_.enabled) {
        all_done_.wait(lock, [this] {
          return pending_ == 0 && attempts_outstanding_ == 0;
        });
        break;
      }
      // Speculation needs a heartbeat: a straggling task wakes nobody, so
      // poll the scan while blocked. 20ms keeps the check cheap relative
      // to any task worth backing up.
      all_done_.wait_for(lock, std::chrono::milliseconds(20));
      backups = MaybeSpeculateLocked();
      if (!backups.empty()) break;
    }
  }
  for (TaskId backup : backups) SubmitAttempt(backup, /*is_backup=*/true);
  if (!backups.empty()) Wait();
}

TaskSpan StageGraphExecutor::SpanOf(TaskId id) const {
  std::unique_lock<std::mutex> lock(mu_);
  return tasks_[id].span;
}

std::vector<StageGraphExecutor::TaskRecord>
StageGraphExecutor::SnapshotRecords() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<TaskRecord> records;
  records.reserve(tasks_.size());
  for (const Task& task : tasks_) {
    records.push_back(TaskRecord{task.kind, task.round_tag, task.span});
  }
  return records;
}

std::uint64_t StageGraphExecutor::MinorFaults(std::uint32_t round_tag) const {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Task& task : tasks_) {
    if (task.round_tag == round_tag) total += task.minor_faults;
  }
  return total;
}

AsyncRunner::AsyncRunner() : pool_(2) {}

AsyncRunner& AsyncRunner::Global() {
  // Meyers singleton: destroyed at exit, after draining queued executions
  // (the pool destructor joins its workers), and leak-clean under ASan.
  static AsyncRunner runner;
  return runner;
}

namespace internal {

std::uint64_t ThreadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

void AppendRoundArgs(const PhysicalRound& physical,
                     const RoundEstimate& prediction, const JobMetrics& m,
                     std::vector<obs::TraceArg>& args) {
  args.push_back(obs::Arg("strategy", ToString(physical.strategy)));
  args.push_back(obs::Arg("partitioner", ToString(physical.partitioner)));
  args.push_back(
      obs::Arg("chunks", static_cast<std::uint64_t>(physical.chunks)));
  args.push_back(
      obs::Arg("shards", static_cast<std::uint64_t>(physical.shards)));
  args.push_back(obs::Arg("fetch_credits", physical.fetch_credits));
  args.push_back(obs::Arg("reason", physical.reason));
  args.push_back(obs::Arg("pairs", m.pairs_shuffled));
  args.push_back(obs::Arg("reducers", m.num_reducers));
  args.push_back(obs::Arg("realized_q", m.max_reducer_input));
  args.push_back(obs::Arg("realized_r", m.replication_rate()));
  if (prediction.predicted_r <= 0) return;  // nothing declared or sampled
  args.push_back(obs::Arg("predicted_q", prediction.predicted_q));
  args.push_back(obs::Arg("predicted_r", prediction.predicted_r));
  if (prediction.predicted_q > 0) {
    args.push_back(obs::Arg("q_residual",
                            static_cast<double>(m.max_reducer_input) /
                                prediction.predicted_q));
  }
  args.push_back(
      obs::Arg("r_residual", m.replication_rate() / prediction.predicted_r));
  if (prediction.optimality_ratio > 0) {
    args.push_back(
        obs::Arg("predicted_bound_ratio", prediction.optimality_ratio));
  }
}

}  // namespace internal
}  // namespace mrcost::engine
