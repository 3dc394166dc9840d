#include "dphist/query/range_query.h"

#include <string>

namespace dphist {

Status ValidateQueries(const std::vector<RangeQuery>& queries,
                       std::uint64_t domain_size) {
  // Policy: never clamp, never swap, never silently drop — an out-of-domain
  // or inverted query is a caller bug and must name the offender (same
  // fail-loudly contract as RankedFenwick's range checks).
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const RangeQuery& q = queries[i];
    if (q.begin >= q.end || q.end > domain_size) {
      return Status::InvalidArgument(
          "range query " + std::to_string(i) + " [" +
          std::to_string(q.begin) + ", " + std::to_string(q.end) +
          ") is " + (q.begin >= q.end ? "empty or inverted" : "out of domain") +
          " (domain size " + std::to_string(domain_size) + ")");
    }
  }
  return Status::Ok();
}

Result<std::vector<double>> AnswerQueries(
    const Histogram& histogram, const std::vector<RangeQuery>& queries,
    const AnswerQueriesOptions& options) {
  DPHIST_RETURN_IF_ERROR(ValidateQueries(queries, histogram.size()));
  // Seal once on the caller so the fan-out below reads a finished prefix
  // table through the lock-free fast path on every thread.
  histogram.SealPrefix();
  std::vector<double> answers(queries.size());
  auto answer_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      answers[i] =
          histogram.RangeSumUnchecked(queries[i].begin, queries[i].end);
    }
  };
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  // Each index writes only answers[i], so any chunking of [0, n) produces
  // the same bytes — the deterministic-parallelism contract.
  if (pool.thread_count() > 1 && queries.size() >= options.min_parallel) {
    pool.ParallelForChunks(0, queries.size(), /*min_chunk=*/64, answer_range);
  } else {
    answer_range(0, queries.size());
  }
  return answers;
}

Result<std::vector<double>> AnswerQueries(
    const Histogram& histogram, const std::vector<RangeQuery>& queries) {
  return AnswerQueries(histogram, queries, AnswerQueriesOptions{});
}

}  // namespace dphist
