#include "src/obs/registry.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/obs/export.h"

namespace mrcost::obs {

namespace {

std::string RenderNumber(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      value > -1e15 && value < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::atomic<std::uint64_t> next_registry_id{1};

// Shards are looked up thread-locally by a process-unique registry id (not
// the Registry address, which freestanding test instances could reuse).
// The map dies with its thread; the registry keeps its own shard refs.
thread_local std::unordered_map<std::uint64_t, std::shared_ptr<void>>
    tls_shards;

}  // namespace

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

void Registry::Enable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_ == 0) {
    ClearLocked();
    enabled_flag_.store(true, std::memory_order_relaxed);
  }
  ++sessions_;
}

void Registry::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_ > 0 && --sessions_ == 0) {
    enabled_flag_.store(false, std::memory_order_relaxed);
  }
}

Registry::Shard& Registry::LocalShard() {
  static thread_local std::uint64_t cached_id = 0;
  static thread_local Shard* cached_shard = nullptr;
  // One id per Registry instance, assigned lazily on first shard creation.
  // The fast path below is a thread-local compare, no locks.
  std::uint64_t id = instance_id_.load(std::memory_order_acquire);
  if (id == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    id = instance_id_.load(std::memory_order_relaxed);
    if (id == 0) {
      id = next_registry_id.fetch_add(1, std::memory_order_relaxed);
      instance_id_.store(id, std::memory_order_release);
    }
  }
  if (cached_shard != nullptr && cached_id == id) {
    return *cached_shard;
  }
  auto it = tls_shards.find(id);
  if (it == tls_shards.end()) {
    auto shard = std::make_shared<Shard>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      shards_.push_back(shard);
    }
    it = tls_shards.emplace(id, shard).first;
  }
  cached_id = id;
  cached_shard = static_cast<Shard*>(it->second.get());
  return *cached_shard;
}

void Registry::AddCounter(std::string_view name, std::uint64_t delta) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.counters[std::string(name)] += delta;
}

void Registry::SetGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[std::string(name)] = value;
}

void Registry::ObserveStats(std::string_view name, double value) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats[std::string(name)].Add(value);
}

void Registry::MergeStats(std::string_view name,
                          const common::RunningStats& stats) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats[std::string(name)].Merge(stats);
}

void Registry::ObserveHistogram(std::string_view name, std::uint64_t value) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.histograms[std::string(name)].Add(value);
}

void Registry::MergeHistogram(std::string_view name,
                              const common::Log2Histogram& histogram) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.histograms[std::string(name)].Merge(histogram);
}

Registry::Snapshot Registry::TakeSnapshot() const {
  Snapshot snapshot;
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards = shards_;
    snapshot.gauges = gauges_;
  }
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, value] : shard->counters) {
      snapshot.counters[name] += value;
    }
    for (const auto& [name, stats] : shard->stats) {
      snapshot.stats[name].Merge(stats);
    }
    for (const auto& [name, histogram] : shard->histograms) {
      snapshot.histograms[name].Merge(histogram);
    }
  }
  return snapshot;
}

void Registry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void Registry::ClearLocked() {
  gauges_.clear();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->counters.clear();
    shard->stats.clear();
    shard->histograms.clear();
  }
}

std::string Registry::Snapshot::ToJson() const {
  std::ostringstream os;
  os << "{";
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << RenderNumber(value);
  }
  os << "},\"stats\":{";
  first = true;
  for (const auto& [name, stats] : stats) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":{\"count\":" << stats.count()
       << ",\"sum\":" << RenderNumber(stats.sum())
       << ",\"mean\":" << RenderNumber(stats.mean())
       << ",\"min\":" << RenderNumber(stats.min())
       << ",\"max\":" << RenderNumber(stats.max())
       << ",\"stddev\":" << RenderNumber(stats.stddev()) << "}";
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":{\"total\":" << histogram.total()
       << ",\"zeros\":" << histogram.zeros() << ",\"buckets\":[";
    for (std::size_t i = 0; i < histogram.num_buckets(); ++i) {
      if (i > 0) os << ",";
      os << histogram.bucket(i);
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace mrcost::obs
