#include "dphist/query/sparse_query.h"

namespace dphist {

Result<std::vector<double>> AnswerQueriesSparse(
    const sparse::SparseHistogram& histogram,
    const std::vector<RangeQuery>& queries) {
  DPHIST_RETURN_IF_ERROR(ValidateQueries(queries, histogram.domain_size()));
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    answers.push_back(histogram.RangeSumUnchecked(q.begin, q.end));
  }
  return answers;
}

}  // namespace dphist
