#ifndef DPHIST_QUERY_RANGE_QUERY_H_
#define DPHIST_QUERY_RANGE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dphist/common/parallel_defaults.h"
#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/histogram.h"

namespace dphist {

/// \brief A half-open range-count query over unit bins: "how many records
/// fall in bins [begin, end)?" — the workload the paper's evaluation
/// measures accuracy on.
struct RangeQuery {
  std::size_t begin = 0;
  std::size_t end = 0;

  /// Query length in unit bins.
  std::size_t length() const { return end - begin; }

  friend bool operator==(const RangeQuery&, const RangeQuery&) = default;
};

/// Validates that every query fits the domain [0, domain_size) and is
/// non-empty. The domain is 64-bit, so one rule serves dense histograms
/// and sparse domains up to 2^63 alike: typed `kInvalidArgument` naming the
/// offender.
Status ValidateQueries(const std::vector<RangeQuery>& queries,
                       std::uint64_t domain_size);

/// Execution knobs for AnswerQueries.
struct AnswerQueriesOptions {
  /// Pool for the per-query fan-out; nullptr means ThreadPool::Global().
  ThreadPool* pool = nullptr;
  /// Batches smaller than this answer inline on the caller — each answer
  /// is one O(1) prefix-sum subtraction, so fork/join only pays for
  /// itself on large batches (same cut-over constant as the solver
  /// stages and the serve layer).
  std::size_t min_parallel = kDefaultMinParallelCandidates;
};

/// Evaluates every query against `histogram`. Fails if any query is out of
/// bounds. Large batches fan out across the pool; each query index writes
/// only its own answer slot, so the result is bit-identical at any thread
/// count (the histogram's prefix table is sealed before the fan-out).
Result<std::vector<double>> AnswerQueries(
    const Histogram& histogram, const std::vector<RangeQuery>& queries,
    const AnswerQueriesOptions& options);

/// Default-options overload (global pool, standard cut-over).
Result<std::vector<double>> AnswerQueries(
    const Histogram& histogram, const std::vector<RangeQuery>& queries);

}  // namespace dphist

#endif  // DPHIST_QUERY_RANGE_QUERY_H_
