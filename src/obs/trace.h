#ifndef MRCOST_OBS_TRACE_H_
#define MRCOST_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mrcost::obs {

/// A single key/value annotation on a trace event. Values are stored
/// pre-rendered; `numeric` marks values that should be emitted unquoted in
/// JSON (integers and doubles rendered with shortest round-trip precision).
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

TraceArg Arg(std::string key, std::string value);
TraceArg Arg(std::string key, const char* value);
TraceArg Arg(std::string key, double value);
TraceArg Arg(std::string key, std::uint64_t value);
TraceArg Arg(std::string key, std::int64_t value);
TraceArg Arg(std::string key, std::uint32_t value);
TraceArg Arg(std::string key, int value);

/// Trace lanes. The engine's (and the coordinator's) events live in pid
/// 0; worker w of the multi-process backend gets pid kWorkerPidBase + w.
/// Pid 1 stays unused, so traces keep their worker lane numbers.
inline constexpr std::uint32_t kRealTimePid = 0;
inline constexpr std::uint32_t kWorkerPidBase = 2;

/// One recorded event. phase follows the Chrome trace_event convention:
/// 'X' = complete span [t_start_us, t_end_us], 'i' = instant at t_start_us.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';
  std::uint32_t pid = kRealTimePid;
  std::uint32_t tid = 0;
  std::uint32_t round = 0;
  std::uint32_t shard = 0;
  /// Process-unique task attempt group: both attempts of a speculated task
  /// share one id. 0 = event is not tied to a stage-graph task.
  std::uint64_t task_id = 0;
  std::uint64_t t_start_us = 0;
  std::uint64_t t_end_us = 0;
  std::vector<TraceArg> args;
};

/// Process-wide event sink. Recording threads append to thread-local ring
/// buffers (one short uncontended lock each; the global registry mutex is
/// taken only on first use per thread), so tracing adds no cross-thread
/// contention to the hot path. When disabled — the default — the only cost
/// at a call site is one relaxed atomic load.
///
/// Enable/Disable are refcounted so nested capture scopes compose; the
/// transition to the first enable clears previously recorded events.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Per-thread ring capacity used for buffers created while enabled.
  static constexpr std::size_t kDefaultEventsPerThread = 1 << 16;

  void Enable(std::size_t events_per_thread = kDefaultEventsPerThread);
  void Disable();

  /// Cheap global gate, valid for any thread at any time.
  static bool enabled() {
    return enabled_flag_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (process start), monotone.
  static std::uint64_t NowUs();

  /// Records `event`, filling tid with the calling thread's lane when the
  /// event is real-time and tid was left 0. Drops silently when disabled.
  void Append(TraceEvent event);

  /// A process-unique task id (never 0) for grouping task attempts.
  std::uint64_t NextTaskId() {
    return next_task_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// All retained events across threads, ordered by (t_start_us, pid, tid).
  std::vector<TraceEvent> Snapshot() const;

  /// Events evicted from full rings since the last Clear().
  std::uint64_t dropped_events() const;

  void Clear();

 private:
  struct ThreadBuffer {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::size_t capacity = 0;
    std::size_t next = 0;  // ring write position once full
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  TraceRecorder() = default;
  ThreadBuffer& LocalBuffer();

  static std::atomic<bool> enabled_flag_;

  std::atomic<std::uint64_t> next_task_id_{1};
  mutable std::mutex registry_mu_;
  int sessions_ = 0;
  std::size_t events_per_thread_ = kDefaultEventsPerThread;
  std::uint32_t next_tid_ = 0;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: stamps t_start at construction and records a complete event
/// at destruction (or at End()). Construction when tracing is disabled
/// costs one atomic load and records nothing.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category, std::uint32_t round = 0,
            std::uint32_t shard = 0, std::uint64_t task_id = 0);
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }

  /// Attaches an annotation; no-op when the span is inactive.
  void AddArg(TraceArg arg);

  /// Stamps t_end and records the event now instead of at destruction.
  void End();

 private:
  bool active_ = false;
  TraceEvent event_;
};

/// Records a zero-duration instant event; no-op when tracing is disabled.
void TraceInstant(const char* name, const char* category,
                  std::uint32_t round = 0, std::vector<TraceArg> args = {});

}  // namespace mrcost::obs

#endif  // MRCOST_OBS_TRACE_H_
