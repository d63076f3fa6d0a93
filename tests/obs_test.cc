// The observability layer (src/obs/): trace recording across threads,
// the Chrome trace_event JSON round trip, speculative attempt tagging
// through the real stage-graph executor, registry snapshot determinism,
// and the capture scope's file output.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/engine/executor.h"
#include "src/engine/plan.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace mrcost::obs {
namespace {

/// Enables the global recorder for one test body and clears it after.
class RecorderScope {
 public:
  RecorderScope() { TraceRecorder::Global().Enable(); }
  ~RecorderScope() { TraceRecorder::Global().Disable(); }
};

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string ArgValue(const TraceEvent& event, const std::string& key) {
  for (const TraceArg& arg : event.args) {
    if (arg.key == key) return arg.value;
  }
  return "";
}

// ------------------------------------------------------- recording

TEST(Trace, DisabledRecorderRecordsNothing) {
  ASSERT_FALSE(TraceRecorder::enabled());
  {
    TraceSpan span("ignored", "test");
    EXPECT_FALSE(span.active());
  }
  TraceInstant("also-ignored", "test");
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
}

TEST(Trace, SpansNestAndCarryArgs) {
  RecorderScope scope;
  {
    TraceSpan outer("outer", "test", /*round=*/3, /*shard=*/1);
    outer.AddArg(Arg("pairs", std::uint64_t{42}));
    { TraceSpan inner("inner", "test", 3, 1); }
  }
  const auto events = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = FindEvent(events, "outer");
  const TraceEvent* inner = FindEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->round, 3u);
  EXPECT_EQ(outer->shard, 1u);
  EXPECT_EQ(ArgValue(*outer, "pairs"), "42");
  // RAII nesting: the inner span's window sits inside the outer's.
  EXPECT_GE(inner->t_start_us, outer->t_start_us);
  EXPECT_LE(inner->t_end_us, outer->t_end_us);
}

TEST(Trace, ThreadsGetDistinctLanes) {
  RecorderScope scope;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("work", "test", /*round=*/0,
                       /*shard=*/static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto events = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Trace, RingBufferDropsOldestAndCounts) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("churn", "test", static_cast<std::uint32_t>(i));
  }
  const auto events = recorder.Snapshot();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  // The retained four are the newest (rounds 6..9), oldest-first.
  EXPECT_EQ(events.front().round, 6u);
  EXPECT_EQ(events.back().round, 9u);
  recorder.Disable();
}

// ------------------------------------------------------- JSON round trip

TEST(TraceExport, RoundTripPreservesEvents) {
  RecorderScope scope;
  {
    TraceSpan span("MapPartition", "map", /*round=*/2, /*shard=*/5);
    span.AddArg(Arg("pairs", std::uint64_t{1000}));
    span.AddArg(Arg("ratio", 1.5));
    span.AddArg(Arg("label", "a \"quoted\"\nvalue"));
  }
  TraceInstant("SpeculativeBackup", "speculation", 2,
               {Arg("shard", std::uint32_t{5})});
  const auto recorded = TraceRecorder::Global().Snapshot();
  const std::string json = ToChromeTraceJson(recorded);

  auto parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), recorded.size());
  const TraceEvent* span = FindEvent(*parsed, "MapPartition");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->phase, 'X');
  EXPECT_EQ(span->category, "map");
  EXPECT_EQ(span->round, 2u);
  EXPECT_EQ(span->shard, 5u);
  EXPECT_EQ(ArgValue(*span, "pairs"), "1000");
  EXPECT_EQ(ArgValue(*span, "ratio"), "1.5");
  EXPECT_EQ(ArgValue(*span, "label"), "a \"quoted\"\nvalue");
  const TraceEvent* instant = FindEvent(*parsed, "SpeculativeBackup");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->phase, 'i');
}

TEST(TraceExport, NamesTheEngineAndEachWorkerLane) {
  // Pid 0 is the engine; worker w's lane is kWorkerPidBase + w. Only lanes
  // that carry events are named, and nothing else gets a process_name.
  TraceEvent engine;
  engine.name = "Round";
  TraceEvent worker = engine;
  worker.name = "MapBlock";
  worker.pid = kWorkerPidBase;
  const std::string json = ToChromeTraceJson({engine, worker});
  std::vector<std::string> names;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"process_name\"") != std::string::npos) {
      names.push_back(line);
    }
  }
  ASSERT_EQ(names.size(), 2u) << json;
  EXPECT_NE(names[0].find("\"pid\":0,"), std::string::npos) << names[0];
  EXPECT_NE(names[0].find("\"name\":\"mrcost engine\""), std::string::npos)
      << names[0];
  EXPECT_NE(names[1].find("\"pid\":2,"), std::string::npos) << names[1];
  EXPECT_NE(names[1].find("\"name\":\"mrcost worker 0\""),
            std::string::npos)
      << names[1];
}

TEST(TraceExport, RejectsMalformedJson) {
  EXPECT_FALSE(ParseChromeTrace("not json").ok());
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[{]}").ok());
  EXPECT_FALSE(ParseChromeTrace("{\"noEvents\":1}").ok());
}

// --------------------------------------------- executor attempt tagging

TEST(TraceExecutor, SpeculativeAttemptsShareTaskIdWithOneWin) {
  RecorderScope scope;
  common::ThreadPool pool(4);
  engine::StageGraphExecutor exec(pool);
  std::atomic<double> clock_ms{0.0};
  exec.SetClockForTest([&] { return clock_ms.load(); });
  engine::SpeculationConfig spec;
  spec.enabled = true;
  spec.slowdown_factor = 2.0;
  spec.min_completed = 3;
  spec.min_task_ms = 0.0;
  exec.ConfigureSpeculation(spec);

  for (int i = 0; i < 3; ++i) {
    exec.AddTask(engine::StageKind::kReduce, 5, {}, [] {},
                 /*speculatable=*/true, "ReduceShard",
                 static_cast<std::uint32_t>(i));
  }
  exec.Wait();

  // Same script as the executor's own speculation test: the straggler's
  // first attempt spins until the backup runs, so the backup always wins.
  std::atomic<int> entries{0};
  std::atomic<bool> release{false};
  exec.AddTask(
      engine::StageKind::kReduce, 5, {},
      [&] {
        if (entries.fetch_add(1) == 0) {
          while (!release.load()) std::this_thread::yield();
        } else {
          release.store(true);
        }
      },
      /*speculatable=*/true, "ReduceShard", 3);
  while (entries.load() == 0) std::this_thread::yield();
  clock_ms.store(1000.0);
  exec.Wait();

  const auto events = TraceRecorder::Global().Snapshot();
  // Group attempt spans by task id.
  std::map<std::uint64_t, std::vector<const TraceEvent*>> attempts;
  for (const TraceEvent& e : events) {
    if (e.phase == 'X' && !ArgValue(e, "attempt").empty()) {
      attempts[e.task_id].push_back(&e);
    }
  }
  ASSERT_EQ(attempts.size(), 4u);  // four tasks, speculated or not
  int speculated = 0;
  for (const auto& [task_id, group] : attempts) {
    ASSERT_GE(group.size(), 1u);
    ASSERT_LE(group.size(), 2u);
    int wins = 0;
    for (const TraceEvent* e : group) {
      if (ArgValue(*e, "outcome") == "win") ++wins;
    }
    EXPECT_EQ(wins, 1) << "task " << task_id;
    if (group.size() == 2) {
      ++speculated;
      std::set<std::string> kinds{ArgValue(*group[0], "attempt"),
                                  ArgValue(*group[1], "attempt")};
      EXPECT_EQ(kinds, (std::set<std::string>{"primary", "backup"}));
      // The backup beat the spinning straggler, so it holds the win.
      for (const TraceEvent* e : group) {
        if (ArgValue(*e, "attempt") == "backup") {
          EXPECT_EQ(ArgValue(*e, "outcome"), "win");
        } else {
          EXPECT_EQ(ArgValue(*e, "outcome"), "loss");
        }
      }
    }
  }
  EXPECT_EQ(speculated, 1);
  // The SpeculativeBackup launch instant was recorded too.
  EXPECT_NE(FindEvent(events, "SpeculativeBackup"), nullptr);
}

// ------------------------------------------------------- registry

TEST(Registry, ShardsMergeAcrossThreads) {
  Registry registry;
  registry.Enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.AddCounter("work.items");
        registry.ObserveStats("work.size", static_cast<double>(i));
        registry.ObserveHistogram("work.hist",
                                  static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.count("work.items"), 1u);
  EXPECT_EQ(snapshot.counters.at("work.items"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  ASSERT_EQ(snapshot.stats.count("work.size"), 1u);
  EXPECT_EQ(snapshot.stats.at("work.size").count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(snapshot.stats.at("work.size").mean(),
                   (kPerThread - 1) / 2.0);
  ASSERT_EQ(snapshot.histograms.count("work.hist"), 1u);
  EXPECT_EQ(snapshot.histograms.at("work.hist").total(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  registry.Disable();
}

TEST(Registry, SnapshotJsonIsDeterministic) {
  // Identical recording sequences must serialize byte-identically —
  // iteration order never depends on shard or hash-map order.
  auto record = [](Registry& registry) {
    registry.Enable();
    registry.AddCounter("b.second", 2);
    registry.AddCounter("a.first", 1);
    registry.SetGauge("gauge.x", 1.25);
    registry.ObserveStats("stats.s", 3.0);
    registry.ObserveStats("stats.s", 5.0);
    registry.ObserveHistogram("hist.h", 7);
    std::string json = registry.TakeSnapshot().ToJson();
    registry.Disable();
    return json;
  };
  Registry first, second;
  const std::string a = record(first);
  const std::string b = record(second);
  EXPECT_EQ(a, b);
  // Sanity: keys appear in sorted order in the document.
  EXPECT_LT(a.find("a.first"), a.find("b.second"));
}

TEST(Registry, EngineCountersAreRunDeterministic) {
  // Two identical single-round jobs publish identical engine.* counters.
  // Timing-derived entries (durations, speculative outcomes) are
  // legitimately run-dependent and excluded.
  auto run_job = [] {
    Registry& registry = Registry::Global();
    registry.Enable();
    std::vector<std::uint64_t> inputs(1000);
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i;
    auto map_fn = [](const std::uint64_t& x,
                     engine::Emitter<std::uint64_t, int>& emitter) {
      emitter.Emit(x % 37, 1);
    };
    auto reduce_fn = [](const std::uint64_t& key,
                        engine::GroupView<int> values,
                        std::vector<std::uint64_t>& out) {
      out.push_back(key * 1000 + values.size());
    };
    engine::JobOptions options;
    options.num_threads = 4;
    engine::Plan()
        .Source(inputs)
        .Map<std::uint64_t, int>(map_fn)
        .ReduceByKey<std::uint64_t>(reduce_fn)
        .Execute(engine::ExecutionOptions(options));
    std::map<std::string, std::uint64_t> engine_counters;
    for (const auto& [name, value] :
         registry.TakeSnapshot().counters) {
      if (name.rfind("engine.", 0) == 0) engine_counters[name] = value;
    }
    registry.Disable();
    return engine_counters;
  };
  const auto first = run_job();
  const auto second = run_job();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.at("engine.inputs"), 1000u);
  EXPECT_EQ(first.at("engine.pairs_shuffled"), 1000u);
  EXPECT_EQ(first.at("engine.reducers"), 37u);
}

// ------------------------------------------------------- capture scope

TEST(ScopedCapture, WritesTraceAndMetricsFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string trace_path = (dir / "mrcost_obs_test_trace.json").string();
  const std::string metrics_path =
      (dir / "mrcost_obs_test_metrics.json").string();
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  {
    ScopedCapture capture(trace_path, metrics_path);
    ASSERT_TRUE(capture.active());
    TraceSpan span("captured", "test");
    Registry::Global().AddCounter("capture.test", 3);
  }
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  auto parsed = ParseChromeTrace(trace_buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_NE(FindEvent(*parsed, "captured"), nullptr);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  EXPECT_NE(metrics_buf.str().find("\"capture.test\":3"),
            std::string::npos);
  // Capture scopes close fully: recording is off again.
  EXPECT_FALSE(TraceRecorder::enabled());
  EXPECT_FALSE(MetricsEnabled());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(ScopedCapture, EmptyPathsAreInactive) {
  ScopedCapture capture("", "");
  EXPECT_FALSE(capture.active());
  EXPECT_FALSE(TraceRecorder::enabled());
}

TEST(CaptureFlags, ParsesSharedFlagConvention) {
  const char* argv_in[] = {"prog", "--trace_out=/tmp/t.json", "positional",
                           "--metrics_out=/tmp/m.json"};
  const CaptureFlags flags =
      ParseCaptureFlags(4, const_cast<char**>(argv_in));
  EXPECT_EQ(flags.trace_out, "/tmp/t.json");
  EXPECT_EQ(flags.metrics_out, "/tmp/m.json");
  const CaptureFlags none = ParseCaptureFlags(1, const_cast<char**>(argv_in));
  EXPECT_TRUE(none.trace_out.empty());
}

// -------------------------------------------- end-to-end through a job

TEST(TraceEndToEnd, JobProducesStageSpansForEveryRound) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string trace_path =
      (dir / "mrcost_obs_test_job_trace.json").string();
  std::remove(trace_path.c_str());
  {
    ScopedCapture capture(trace_path);
    std::vector<std::uint64_t> inputs(500);
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i;
    auto map_fn = [](const std::uint64_t& x,
                     engine::Emitter<std::uint64_t, int>& emitter) {
      emitter.Emit(x % 11, 1);
    };
    auto reduce_fn = [](const std::uint64_t& key,
                        engine::GroupView<int> values,
                        std::vector<std::uint64_t>& out) {
      out.push_back(key + values.size());
    };
    engine::JobOptions options;
    options.num_threads = 4;
    options.num_shards = 4;
    auto result = engine::Plan()
                      .Source(inputs)
                      .Map<std::uint64_t, int>(map_fn)
                      .ReduceByKey<std::uint64_t>(reduce_fn)
                      .Execute(engine::ExecutionOptions(options));
    ASSERT_EQ(result.outputs.size(), 11u);
  }
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = ParseChromeTrace(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::set<std::string> categories;
  for (const TraceEvent& e : *parsed) categories.insert(e.category);
  EXPECT_TRUE(categories.count("map"));
  EXPECT_TRUE(categories.count("shuffle"));
  EXPECT_TRUE(categories.count("reduce"));
  EXPECT_TRUE(categories.count("round"));
  const TraceEvent* round = nullptr;
  for (const TraceEvent& e : *parsed) {
    if (e.category == "round") round = &e;
  }
  ASSERT_NE(round, nullptr);
  EXPECT_FALSE(ArgValue(*round, "realized_q").empty());
  EXPECT_FALSE(ArgValue(*round, "realized_r").empty());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace mrcost::obs
