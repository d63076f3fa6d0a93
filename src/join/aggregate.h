#ifndef MRCOST_JOIN_AGGREGATE_H_
#define MRCOST_JOIN_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/plan.h"
#include "src/join/relation.h"

namespace mrcost::join {

/// Splits documents into whitespace-separated lowercase words — the
/// "inputs are the word occurrences themselves" view of Example 2.5 under
/// which word count has replication rate exactly 1.
std::vector<std::string> Tokenize(const std::vector<std::string>& documents);

struct WordCountResult {
  /// (word, count), sorted by word.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  engine::JobMetrics metrics;
};

/// Word count as a lazy one-round plan keyed by the word: `counts` holds
/// (word, count) in first-seen word order once the plan executes.
struct WordCountPlan {
  engine::Plan plan;
  engine::Dataset<std::pair<std::string, std::uint64_t>> counts;
};

/// Builds (without running) the word-count plan; `occurrences` are copied
/// into the plan.
WordCountPlan BuildWordCountPlan(const std::vector<std::string>& occurrences);

/// Example 2.5: the canonical embarrassingly parallel job. Inputs are word
/// occurrences; each is mapped to exactly one key-value pair, so
/// metrics.replication_rate() == 1 for every reducer-size limit.
WordCountResult WordCount(const std::vector<std::string>& occurrences,
                          const engine::JobOptions& options = {});

struct GroupBySumResult {
  /// (group value, sum), sorted by group.
  std::vector<std::pair<Value, std::int64_t>> sums;
  engine::JobMetrics metrics;
};

/// Example 2.4: SELECT A, SUM(B) FROM R GROUP BY A. Each input tuple maps
/// to one pair keyed by its A-value; r == 1.
GroupBySumResult GroupBySum(const std::vector<std::pair<Value, Value>>& rows,
                            const engine::JobOptions& options = {});

}  // namespace mrcost::join

#endif  // MRCOST_JOIN_AGGREGATE_H_
