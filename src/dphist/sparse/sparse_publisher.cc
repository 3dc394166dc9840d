#include "dphist/sparse/sparse_publisher.h"

#include "dphist/privacy/budget.h"

namespace dphist {
namespace sparse {

Status SparseHistogramPublisher::ValidatePublishArgs(
    const SparseHistogram& truth, double epsilon) {
  if (truth.domain_size() == 0) {
    return Status::InvalidArgument(
        "sparse publish: histogram has an empty domain");
  }
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "sparse publish: epsilon must be finite and > 0");
  }
  return CheckFiniteCounts(truth);
}

}  // namespace sparse
}  // namespace dphist
