// The benchmark's measuring process: runs one workload through the public
// Plan API in a closed loop (one client, one job in flight) and writes the
// raw samples as one JSON document. perfbench/run.py turns the samples
// into metrics; this file only measures.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work DIR --out FILE
//
// Untraced (--trace 0): repeated set-ups, two warm-up jobs whose times are
// discarded, then timed jobs until S seconds have passed and at least 40
// jobs have run. Every job's output is checked outside the timed region.
//
// Traced (--trace 1): the same set-up inside a trace capture, then jobs
// alternating untraced / traced (each traced job writes its own Chrome
// trace and registry snapshot into DIR), then isolated probes of the
// storage codec and of worker spawn/stop. The benchmark's own spans
// (category "bench") wrap every call into the program; the program's own
// spans are folded by run.py.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/core/lower_bound.h"
#include "src/dist/coordinator.h"
#include "src/dist/registry.h"
#include "src/engine/plan.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"

namespace {

using namespace mrcost;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TimevalMs(const timeval& tv) {
  return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
}

/// Process CPU plus the CPU of every reaped child (the multi-process
/// backend's workers are reaped inside Execute).
double CpuMs() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return TimevalMs(self.ru_utime) + TimevalMs(self.ru_stime) +
         TimevalMs(children.ru_utime) + TimevalMs(children.ru_stime);
}

/// Starts peak-RSS accounting afresh, so the peak is the jobs' and not
/// that of the set-up's oracles: returns freed heap to the kernel, then
/// resets the high-water mark to the current RSS (Linux >= 4.0; on failure
/// the peak also covers set-up). Called before the first job forks any
/// worker, because a child's ru_maxrss starts at this process's RSS at
/// fork and cannot be reset.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The larger of this process's peak RSS and the largest reaped child's.
/// The own peak is VmHWM, not getrusage: Linux carries ru_maxrss across
/// exec, so getrusage would report the launching process's footprint.
/// A child's ru_maxrss can likewise include this process's RSS at fork,
/// which the own peak already bounds.
double PeakRssMb() {
  double own_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      own_kb = std::strtod(line.c_str() + 6, nullptr);
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(own_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------- workloads

/// One workload: inputs and plan from the seed, one job per Execute, and a
/// check of the last job's output against an oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs, builds the plan and estimates it: the set-up a
  /// user of the program pays. Called repeatedly; each call replaces the
  /// previous state.
  void Setup(std::uint64_t seed) {
    {
      obs::TraceSpan span("bench.Build", "bench");
      Build(seed);
    }
    obs::TraceSpan span("bench.Estimate", "bench");
    estimate_ = EstimatePlan();
  }

  /// Prepares what Check compares against, once, after the last Setup.
  /// The benchmark's own cost, so not part of set-up time.
  virtual void PrepareOracle() {}

  /// Runs one job; its output is kept for Check.
  virtual engine::PipelineMetrics Execute() = 0;
  /// Checks (and releases) the last job's output.
  virtual bool Check() = 0;

  virtual double LowerBoundR(double q) const = 0;
  /// Encode/decode probe shaped like this workload's largest shuffle.
  virtual void ProbeCodec(const engine::JobMetrics& round,
                          const std::string& dir, double* encode_mb_per_s,
                          double* decode_mb_per_s) const = 0;
  /// The registered dist recipe (name, args) that rebuilds this
  /// workload's plan in a worker; the spawn probe starts workers on it.
  virtual std::pair<std::string, std::string> DistRecipe() const = 0;

  const engine::PlanEstimate& estimate() const { return estimate_; }

  engine::ExecutionOptions options;

 protected:
  virtual void Build(std::uint64_t seed) = 0;
  virtual engine::PlanEstimate EstimatePlan() = 0;

 private:
  engine::PlanEstimate estimate_;
};

/// Times writing `run` through the block run writer and reading it back
/// through the disk block reader; medians of three passes.
void TimeCodec(const storage::ColumnarRun& run, const std::string& dir,
               double* encode_mb_per_s, double* decode_mb_per_s) {
  const double raw_mb = static_cast<double>(run.RawBytes()) / 1e6;
  const std::string path = dir + "/codec-probe.run";
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    auto writer = storage::BlockRunFileWriter::Create(path);
    MRCOST_CHECK_OK(writer.status());
    MRCOST_CHECK_OK(writer->AppendRun(run, 0, run.rows()));
    MRCOST_CHECK_OK(writer->Finish());
    encode_ms.push_back(MsSince(t0));

    const auto t1 = Clock::now();
    storage::DiskBlockRunSource reader(path);
    std::size_t rows = 0;
    while (reader.Peek() != nullptr) {
      reader.Advance();
      ++rows;
    }
    decode_ms.push_back(MsSince(t1));
    MRCOST_CHECK_OK(reader.status());
    MRCOST_CHECK(rows == run.rows());
  }
  std::remove(path.c_str());
  *encode_mb_per_s = raw_mb / (Median(encode_ms) / 1e3);
  *decode_mb_per_s = raw_mb / (Median(decode_ms) / 1e3);
}

/// A sorted run of `rows` rows over `keys` distinct u64 keys with values
/// from make_value(i) — the key/value widths of a workload's shuffle.
template <typename Value, typename MakeValue>
storage::ColumnarRun ShapedRun(std::uint64_t rows, std::uint64_t keys,
                               MakeValue make_value) {
  storage::KVBlock<std::uint64_t, Value> block;
  const std::uint64_t num_keys = std::max<std::uint64_t>(keys, 1);
  for (std::uint64_t i = 0; i < rows; ++i) {
    block.Append((i * 0x9e3779b97f4a7c15ULL) % num_keys, make_value(i));
  }
  return storage::SortedRunFromBlock(block, 0, block.rows(),
                                     [](std::size_t j) { return j; });
}

/// hamming-join: the distance-1 Splitting join over all 2^18 strings,
/// k = 3 (paper Section 3), in seed-shuffled input order.
class HammingJoin : public Workload {
 public:
  static constexpr int kBits = 18;
  static constexpr int kSegments = 3;

  engine::PipelineMetrics Execute() override {
    auto result = built_->pairs.Execute(options);
    outputs_ = std::move(result.outputs);
    return std::move(result.metrics);
  }

  /// Bit-flip oracle: the distance-1 pairs of the full domain are exactly
  /// (u, u ^ 2^i) with u < u ^ 2^i, one per (u, i) — so the output is
  /// right iff every pair has that shape, none repeats, and the count is
  /// b 2^b / 2.
  bool Check() override {
    const std::uint64_t n = std::uint64_t{1} << kBits;
    bool ok = outputs_.size() == n * kBits / 2;
    std::vector<bool> seen(n * kBits, false);
    for (const auto& [u, v] : outputs_) {
      if (!ok) break;
      const std::uint64_t diff = u ^ v;
      if (u >= v || v >= n || diff == 0 || (diff & (diff - 1)) != 0) {
        ok = false;
        break;
      }
      const std::size_t slot =
          u * kBits + static_cast<std::size_t>(__builtin_ctzll(diff));
      if (seen[slot]) ok = false;
      seen[slot] = true;
    }
    outputs_.clear();
    outputs_.shrink_to_fit();
    return ok;
  }

  std::pair<std::string, std::string> DistRecipe() const override {
    return {"hamming_splitting", "b=18,k=3,d=1"};
  }

  double LowerBoundR(double q) const override {
    return core::ClampedReplicationLowerBound(hamming::Hamming1Recipe(kBits),
                                              q);
  }

  void ProbeCodec(const engine::JobMetrics& round, const std::string& dir,
                  double* encode, double* decode) const override {
    TimeCodec(ShapedRun<std::uint64_t>(
                  round.pairs_shuffled, round.num_reducers,
                  [](std::uint64_t i) { return i & ((1u << kBits) - 1); }),
              dir, encode, decode);
  }

 protected:
  void Build(std::uint64_t seed) override {
    std::vector<hamming::BitString> strings = hamming::AllStrings(kBits);
    common::SplitMix64 rng(seed);
    for (std::size_t i = strings.size() - 1; i > 0; --i) {
      std::swap(strings[i], strings[rng.UniformBelow(i + 1)]);
    }
    built_.reset();
    auto built = hamming::BuildSplittingSimilarityJoinPlan(strings, kBits,
                                                           kSegments, 1);
    MRCOST_CHECK_OK(built.status());
    built_ = std::make_unique<hamming::SimilarityJoinPlan>(std::move(*built));
  }

  engine::PlanEstimate EstimatePlan() override {
    return built_->plan.Estimate(hamming::Hamming1Recipe(kBits));
  }

 private:
  std::unique_ptr<hamming::SimilarityJoinPlan> built_;
  std::vector<std::pair<hamming::BitString, hamming::BitString>> outputs_;
};

/// matmul-2round-spill: the two-phase multiply (paper Section 6.3), n =
/// 256, s = t = 32, under an 8 MB shuffle budget that forces the external
/// (spill) shuffle.
class MatmulSpill : public Workload {
 public:
  static constexpr int kN = 256;
  static constexpr int kTile = 32;

  explicit MatmulSpill(const std::string& spill_dir) {
    options.pipeline.shuffle.memory_budget_bytes = 8u << 20;
    options.pipeline.shuffle.spill_dir = spill_dir;
  }

  engine::PipelineMetrics Execute() override {
    auto result = built_->sums.Execute(options);
    outputs_ = std::move(result.outputs);
    return std::move(result.metrics);
  }

  /// Against the serial product computed at set-up: every cell exactly
  /// once, each within a relative 1e-9 (the engine adds partial sums in
  /// another order than the serial loop).
  bool Check() override {
    bool ok = outputs_.size() == static_cast<std::size_t>(kN) * kN;
    std::vector<bool> seen(static_cast<std::size_t>(kN) * kN, false);
    for (const auto& [key, value] : outputs_) {
      if (!ok) break;
      if (key >= seen.size() || seen[key]) {
        ok = false;
        break;
      }
      seen[key] = true;
      const double want = expected_.At(static_cast<int>(key / kN),
                                       static_cast<int>(key % kN));
      if (std::fabs(value - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        ok = false;
      }
    }
    outputs_.clear();
    outputs_.shrink_to_fit();
    return ok;
  }

  std::pair<std::string, std::string> DistRecipe() const override {
    return {"matmul_two_phase", "n=256,s_rows=32,t_js=32,seed=" +
                                    std::to_string(seed_)};
  }

  double LowerBoundR(double q) const override {
    return core::ClampedReplicationLowerBound(matmul::MatMulRecipe(kN), q);
  }

  void ProbeCodec(const engine::JobMetrics& round, const std::string& dir,
                  double* encode, double* decode) const override {
    TimeCodec(ShapedRun<matmul::Element>(
                  round.pairs_shuffled, round.num_reducers,
                  [](std::uint64_t i) {
                    return matmul::Element{
                        static_cast<std::uint8_t>(i & 1),
                        static_cast<std::uint32_t>((i >> 1) % kN),
                        static_cast<std::uint32_t>((i >> 9) % kN),
                        static_cast<double>(i) * 0.5};
                  }),
              dir, encode, decode);
  }

 protected:
  void Build(std::uint64_t seed) override {
    seed_ = seed;
    r_ = matmul::Matrix(kN, kN);
    s_ = matmul::Matrix(kN, kN);
    common::SplitMix64 rng(seed);
    r_.FillRandom(rng);
    s_.FillRandom(rng);
    built_.reset();
    auto built = matmul::BuildMultiplyTwoPhasePlan(r_, s_, kTile, kTile);
    MRCOST_CHECK_OK(built.status());
    built_ = std::make_unique<matmul::TwoPhasePlan>(std::move(*built));
  }

  engine::PlanEstimate EstimatePlan() override {
    return built_->plan.Estimate(matmul::MatMulRecipe(kN));
  }

  void PrepareOracle() override {
    expected_ = matmul::Matrix(kN, kN);
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        const double a = r_.At(i, j);
        for (int k = 0; k < kN; ++k) expected_.At(i, k) += a * s_.At(j, k);
      }
    }
  }

 private:
  std::uint64_t seed_ = 0;
  matmul::Matrix r_;
  matmul::Matrix s_;
  matmul::Matrix expected_;
  std::unique_ptr<matmul::TwoPhasePlan> built_;
  std::vector<std::pair<std::uint64_t, double>> outputs_;
};

/// sweep-dist: the shuffle_sweep recipe (1M pairs onto 4096 keys) on the
/// multi-process backend, wire transport, 2 workers. Shards are left to
/// the program.
class SweepDist : public Workload {
 public:
  using Row = std::pair<std::uint64_t, std::uint64_t>;

  explicit SweepDist(const std::string& spill_dir) {
    options.backend = engine::ExecutionBackend::kMultiProcess;
    options.dist.num_workers = 2;
    options.dist.shuffle_transport = engine::ShuffleTransport::kWireStream;
    options.dist.spill_dir = spill_dir;
  }

  engine::PipelineMetrics Execute() override {
    engine::PipelineMetrics metrics = plan_.Execute(options);
    outputs_ = TakeOutputs(plan_);
    return metrics;
  }

  /// Byte-identical to the in-process run of the same recipe and args.
  bool Check() override {
    const bool ok = outputs_ == expected_;
    outputs_.clear();
    outputs_.shrink_to_fit();
    return ok;
  }

  double LowerBoundR(double q) const override {
    // No recipe for this aggregation: the trivial bound r >= 1.
    core::Recipe none;
    none.g = [](double q_) { return q_; };
    return core::ClampedReplicationLowerBound(none, q);
  }

  void ProbeCodec(const engine::JobMetrics& round, const std::string& dir,
                  double* encode, double* decode) const override {
    TimeCodec(ShapedRun<std::uint64_t>(round.pairs_shuffled,
                                       round.num_reducers,
                                       [](std::uint64_t i) { return i; }),
              dir, encode, decode);
  }

  std::pair<std::string, std::string> DistRecipe() const override {
    return {"shuffle_sweep", args_};
  }

 protected:
  void Build(std::uint64_t seed) override {
    args_ = "pairs=1000000,keys=4096,seed=" + std::to_string(seed);
    auto plan = dist::PlanRegistry::Global().Build("shuffle_sweep", args_);
    MRCOST_CHECK_OK(plan.status());
    plan_ = std::move(*plan);
  }

  engine::PlanEstimate EstimatePlan() override {
    core::Recipe none;
    none.g = [](double q) { return q; };
    return plan_.Estimate(none);
  }

  void PrepareOracle() override {
    engine::ExecutionOptions in_process;
    in_process.pipeline.num_threads = options.pipeline.num_threads;
    plan_.Execute(in_process);
    expected_ = TakeOutputs(plan_);
  }

 private:
  static std::vector<Row> TakeOutputs(engine::Plan& plan) {
    auto slot =
        std::static_pointer_cast<std::vector<Row>>(plan.graph()->slots.back());
    std::vector<Row> rows = std::move(*slot);
    plan.graph()->slots.back() = nullptr;
    return rows;
  }

  std::string args_;
  engine::Plan plan_;
  std::vector<Row> outputs_;
  std::vector<Row> expected_;
};

// ------------------------------------------------------------------ output

/// A flat JSON object writer: numbers, strings, number arrays, and one
/// level of nested objects — all the samples file needs.
class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(17);
    os << (std::isfinite(value) ? value : 0.0);
    return Raw(key, os.str());
  }
  JsonOut& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + obs::JsonEscape(value) + "\"");
  }
  JsonOut& Nums(const std::string& key, const std::vector<double>& values) {
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? "," : "") << values[i];
    }
    os << "]";
    return Raw(key, os.str());
  }
  JsonOut& Strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += (i ? ",\"" : "\"") + obs::JsonEscape(vs[i]) + "\"";
    }
    return Raw(key, out + "]");
  }
  JsonOut& Obj(const std::string& key, const JsonOut& inner) {
    return Raw(key, inner.str());
  }
  JsonOut& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",\n") + ("\"" + key + "\": " + value);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The exact counts of one job, identical from job to job.
JsonOut CountsOf(const engine::PipelineMetrics& m, const Workload& w) {
  JsonOut out;
  const engine::JobMetrics& first = m.rounds.front();
  out.Num("inputs", static_cast<double>(first.num_inputs))
      .Num("bytes_shuffled", static_cast<double>(m.total_bytes()))
      .Num("replication_rate", m.total_replication_rate())
      .Num("max_q", static_cast<double>(m.max_reducer_input()))
      .Num("lower_bound_r",
           w.LowerBoundR(static_cast<double>(m.max_reducer_input())));
  // Predicted (at set-up) against realized q and r, round by round; run.py
  // turns them into prediction errors.
  std::vector<double> pred_q;
  std::vector<double> real_q;
  std::vector<double> pred_r;
  std::vector<double> real_r;
  for (std::size_t i = 0; i < m.rounds.size(); ++i) {
    if (i >= w.estimate().rounds.size()) break;
    pred_q.push_back(w.estimate().rounds[i].predicted_q);
    real_q.push_back(static_cast<double>(m.rounds[i].max_reducer_input));
    pred_r.push_back(w.estimate().rounds[i].predicted_r);
    real_r.push_back(m.rounds[i].replication_rate());
  }
  out.Nums("predicted_q", pred_q)
      .Nums("realized_q", real_q)
      .Nums("predicted_r", pred_r)
      .Nums("realized_r", real_r);
  return out;
}

/// Per-job layer numbers the program reports in its JobMetrics.
JsonOut EngineOf(const engine::PipelineMetrics& m) {
  double map_ms = 0, shuffle_ms = 0, reduce_ms = 0, barrier_ms = 0;
  double copied = 0, skew = 0, spill = 0, runs = 0, passes = 0;
  double raw_over_encoded = 0;
  for (const auto& r : m.rounds) {
    map_ms += r.map_ms;
    shuffle_ms += r.shuffle_ms;
    reduce_ms += r.reduce_ms;
    barrier_ms += r.barrier_wait_ms;
    copied += static_cast<double>(r.bytes_copied);
    skew = std::max(skew, r.partition_skew_ratio);
    spill += static_cast<double>(r.spill_bytes_written);
    runs += static_cast<double>(r.spill_runs);
    passes += static_cast<double>(r.merge_passes);
    raw_over_encoded = std::max(raw_over_encoded, r.compression_ratio);
  }
  JsonOut out;
  out.Num("map_ms", map_ms)
      .Num("shuffle_ms", shuffle_ms)
      .Num("reduce_ms", reduce_ms)
      .Num("barrier_wait_ms", barrier_ms)
      .Num("bytes_copied", copied)
      .Num("partition_skew_ratio", skew)
      .Num("spill_bytes", spill)
      .Num("spill_runs", runs)
      .Num("merge_passes", passes)
      .Num("compression_ratio", raw_over_encoded);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work") {
      args->work_dir = value;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->out.empty() && args->seconds > 0;
}

constexpr std::size_t kThreads = 2;

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& spill_dir) {
  std::unique_ptr<Workload> w;
  if (name == "hamming-join") w = std::make_unique<HammingJoin>();
  if (name == "matmul-2round-spill") {
    w = std::make_unique<MatmulSpill>(spill_dir);
  }
  if (name == "sweep-dist") w = std::make_unique<SweepDist>(spill_dir);
  // Every workload pins its thread count below the core count of a
  // 4-core host, so the task graph (NumChunks = 4 x threads) does not
  // follow the host. The multi-process backend sizes chunks from the
  // round options, hence the round default too.
  if (w) {
    w->options.pipeline.num_threads = kThreads;
    w->options.pipeline.round_defaults.num_threads = kThreads;
  }
  return w;
}

// The first set-ups of a run fault in fresh pages and run several times
// slower (up to 10 of them on sweep-dist); with 101 the median sits far
// past them.
constexpr int kSetups = 101;
constexpr int kWarmupJobs = 2;
// Untraced runs time at least this many jobs. run.py fixes the tail
// percentile from this count (p75: 10 jobs beyond it), so every run of a
// workload reports the same rung however many jobs fit in its seconds.
constexpr int kMinJobs = 40;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR --out FILE\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.work_dir);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string prefix = args.work_dir + "/" + args.workload;
  JsonOut out;

  // Set-up, repeated; the last one stays live and gets the oracle.
  std::vector<double> setup_ms;
  {
    const std::string setup_trace = prefix + "-setup.trace.json";
    obs::ScopedCapture capture(args.trace ? setup_trace : "");
    for (int i = 0; i < kSetups; ++i) {
      obs::TraceSpan span("bench.Setup", "bench");
      const auto t0 = Clock::now();
      w->Setup(args.seed);
      setup_ms.push_back(MsSince(t0));
    }
    {
      obs::TraceSpan span("bench.Reference", "bench");
      w->PrepareOracle();
    }
    if (args.trace) out.Str("setup_trace", setup_trace);
  }
  out.Nums("setup_ms", setup_ms);

  std::vector<double> wall_ms, cpu_ms, traced_ms;
  std::vector<std::string> traces;
  std::vector<double> dropped;
  std::vector<double> checks;  // 1 = the job's output passed its check
  engine::PipelineMetrics last;
  std::vector<std::string> engine_rows;

  auto run_job = [&](bool timed_sample, const std::string& trace_path) {
    double wall = 0;
    double cpu = 0;
    bool ok = false;
    {
      obs::ScopedCapture capture(
          trace_path, trace_path.empty() ? "" : trace_path + ".metrics");
      const double cpu0 = CpuMs();
      const auto t0 = Clock::now();
      {
        obs::TraceSpan span("bench.Execute", "bench");
        last = w->Execute();
      }
      wall = MsSince(t0);
      cpu = CpuMs() - cpu0;
      {
        obs::TraceSpan span("bench.Check", "bench");
        ok = w->Check();
      }
      if (!trace_path.empty()) {
        dropped.push_back(
            static_cast<double>(obs::TraceRecorder::Global().dropped_events()));
      }
    }
    checks.push_back(ok ? 1 : 0);
    if (!timed_sample) return;
    if (trace_path.empty()) {
      wall_ms.push_back(wall);
      cpu_ms.push_back(cpu);
    } else {
      traced_ms.push_back(wall);
      traces.push_back(trace_path);
    }
    engine_rows.push_back(EngineOf(last).str());
  };

  ResetPeakRss();
  for (int i = 0; i < kWarmupJobs; ++i) run_job(false, "");

  // The closed loop. Traced runs alternate untraced and traced jobs so
  // the tracing overhead is measured under the same host conditions.
  double timed_total_ms = 0;
  for (int job = 0;; ++job) {
    const bool traced = args.trace && job % 2 == 1;
    const std::string path =
        traced ? prefix + "-job" + std::to_string(job) + ".trace.json" : "";
    const auto t0 = Clock::now();
    run_job(true, path);
    timed_total_ms += MsSince(t0);
    if (timed_total_ms >= args.seconds * 1e3 &&
        static_cast<int>(wall_ms.size()) >= (args.trace ? 3 : kMinJobs)) {
      break;
    }
  }
  out.Nums("checks", checks)
      .Num("min_jobs", kMinJobs)
      .Nums("wall_ms", wall_ms)
      .Nums("cpu_ms", cpu_ms)
      .Num("peak_rss_mb", PeakRssMb())
      .Obj("counts", CountsOf(last, *w))
      .Raw("engine", "[" + [&] {
        std::string joined;
        for (const auto& row : engine_rows) {
          joined += (joined.empty() ? "" : ",") + row;
        }
        return joined;
      }() + "]");

  if (args.trace) {
    const std::string probes_trace = prefix + "-probes.trace.json";
    out.Nums("traced_ms", traced_ms)
        .Strs("traces", traces)
        .Nums("dropped_events", dropped)
        .Str("probes_trace", probes_trace);
    // Isolated probes, each inside the benchmark's own spans.
    obs::ScopedCapture capture(probes_trace);
    const engine::JobMetrics* widest = &last.rounds.front();
    for (const auto& round : last.rounds) {
      if (round.pairs_shuffled > widest->pairs_shuffled) widest = &round;
    }
    double encode = 0;
    double decode = 0;
    {
      obs::TraceSpan span("bench.CodecProbe", "bench");
      w->ProbeCodec(*widest, args.work_dir, &encode, &decode);
    }
    out.Num("encode_mb_per_s", encode).Num("decode_mb_per_s", decode);

    const auto [recipe, recipe_args] = w->DistRecipe();
    for (int i = 0; i < 3; ++i) {
      auto dir = common::TempDir::Create(args.work_dir, "spawn-probe-");
      MRCOST_CHECK_OK(dir.status());
      dist::Coordinator coordinator;
      dist::Coordinator::Options copts;
      copts.num_workers = w->options.dist.num_workers;
      copts.recipe = recipe;
      copts.args = recipe_args;
      copts.spill_dir = dir->path();
      copts.wire_shuffle = true;
      {
        obs::TraceSpan span("bench.CoordinatorStart", "bench");
        MRCOST_CHECK_OK(coordinator.Start(copts));
      }
      obs::TraceSpan span("bench.CoordinatorStop", "bench");
      coordinator.Stop();
    }
  }

  std::ofstream file(args.out, std::ios::trunc);
  file << out.str() << "\n";
  file.flush();
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
