#include "src/join/aggregate.h"

#include <algorithm>
#include <cctype>

namespace mrcost::join {

std::vector<std::string> Tokenize(const std::vector<std::string>& documents) {
  std::vector<std::string> words;
  for (const std::string& doc : documents) {
    std::string current;
    for (char c : doc) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        current.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
      } else if (!current.empty()) {
        words.push_back(std::move(current));
        current.clear();
      }
    }
    if (!current.empty()) words.push_back(std::move(current));
  }
  return words;
}

WordCountPlan BuildWordCountPlan(
    const std::vector<std::string>& occurrences) {
  auto map_fn = [](const std::string& word,
                   engine::Emitter<std::string, std::uint64_t>& emitter) {
    emitter.Emit(word, 1);
  };
  auto reduce_fn = [](const std::string& word,
                      engine::GroupView<std::uint64_t> ones,
                      std::vector<std::pair<std::string, std::uint64_t>>&
                          out) {
    std::uint64_t total = 0;
    for (std::uint64_t one : ones) total += one;
    out.emplace_back(word, total);
  };
  engine::Plan plan;
  auto counts =
      plan.Source(occurrences, "words")
          .Map<std::string, std::uint64_t>(map_fn, "word count")
          .ReduceByKey<std::pair<std::string, std::uint64_t>>(reduce_fn);
  return WordCountPlan{std::move(plan), std::move(counts)};
}

WordCountResult WordCount(const std::vector<std::string>& occurrences,
                          const engine::JobOptions& options) {
  auto run = BuildWordCountPlan(occurrences)
                 .counts.Execute(engine::ExecutionOptions(options));
  std::sort(run.outputs.begin(), run.outputs.end());
  return WordCountResult{std::move(run.outputs),
                         std::move(run.metrics.rounds[0])};
}

GroupBySumResult GroupBySum(const std::vector<std::pair<Value, Value>>& rows,
                            const engine::JobOptions& options) {
  auto map_fn = [](const std::pair<Value, Value>& row,
                   engine::Emitter<Value, Value>& emitter) {
    emitter.Emit(row.first, row.second);
  };
  auto reduce_fn = [](const Value& group, engine::GroupView<Value> values,
                      std::vector<std::pair<Value, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (Value v : values) total += v;
    out.emplace_back(group, total);
  };
  engine::Plan plan;
  auto run = plan.Source(rows, "rows")
                 .Map<Value, Value>(map_fn, "group by")
                 .ReduceByKey<std::pair<Value, std::int64_t>>(reduce_fn)
                 .Execute(engine::ExecutionOptions(options));
  std::sort(run.outputs.begin(), run.outputs.end());
  return GroupBySumResult{std::move(run.outputs),
                          std::move(run.metrics.rounds[0])};
}

}  // namespace mrcost::join
