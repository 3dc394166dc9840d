#ifndef DPHIST_QUERY_SPARSE_QUERY_H_
#define DPHIST_QUERY_SPARSE_QUERY_H_

/// \file
/// \brief Range-query answering over sparse histograms, consistent with
/// the dense `range_query` semantics: half-open `[begin, end)` ranges,
/// identical validation rules, identical answers when the sparse histogram
/// is a materialization of the dense one. Each query is answered in
/// O(log k) by binary search over the released keys.

#include <cstdint>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/query/range_query.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {

/// Answers every query against `histogram` after validation
/// (`ValidateQueries` over the 64-bit sparse domain).
Result<std::vector<double>> AnswerQueriesSparse(
    const sparse::SparseHistogram& histogram,
    const std::vector<RangeQuery>& queries);

}  // namespace dphist

#endif  // DPHIST_QUERY_SPARSE_QUERY_H_
