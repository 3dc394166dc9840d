#include "dphist/metrics/analytic.h"

#include <algorithm>

#include "dphist/common/math_util.h"
#include "dphist/privacy/budget.h"
#include "dphist/transform/haar_wavelet.h"

namespace dphist {

namespace {

// Size of the overlap between [a1, b1) and [a2, b2).
std::size_t Overlap(std::size_t a1, std::size_t b1, std::size_t a2,
                    std::size_t b2) {
  const std::size_t lo = std::max(a1, a2);
  const std::size_t hi = std::min(b1, b2);
  return hi > lo ? hi - lo : 0;
}

}  // namespace

Result<double> DworkRangeVariance(std::size_t length, double epsilon) {
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "DworkRangeVariance requires a finite epsilon > 0");
  }
  return 2.0 * static_cast<double>(length) / (epsilon * epsilon);
}

Result<double> PriveletRangeVariance(std::size_t domain_size,
                                     const RangeQuery& query,
                                     double epsilon) {
  if (!IsPowerOfTwo(domain_size)) {
    return Status::InvalidArgument(
        "PriveletRangeVariance requires a power-of-two domain");
  }
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "PriveletRangeVariance requires a finite epsilon > 0");
  }
  if (query.begin >= query.end || query.end > domain_size) {
    return Status::InvalidArgument(
        "PriveletRangeVariance: query out of range");
  }
  const double rho = HaarWavelet::GeneralizedSensitivity(domain_size);
  const double len = static_cast<double>(query.length());

  // Overall average coefficient: weight len, scale rho/(eps * n).
  const double scale0 =
      rho / (epsilon * HaarWavelet::WeightOf(0, domain_size));
  double variance = len * len * 2.0 * scale0 * scale0;

  // Detail coefficients, heap order: node t owns a dyadic interval; its
  // reconstruction sign is +1 on the left half, -1 on the right half.
  for (std::size_t t = 1; t < domain_size; ++t) {
    const std::size_t level = HaarWavelet::LevelOf(t);
    const std::size_t node_len = domain_size >> level;
    const std::size_t begin = (t - (std::size_t{1} << level)) * node_len;
    const std::size_t mid = begin + node_len / 2;
    const std::size_t end = begin + node_len;
    const double weight =
        static_cast<double>(Overlap(query.begin, query.end, begin, mid)) -
        static_cast<double>(Overlap(query.begin, query.end, mid, end));
    if (weight == 0.0) {
      continue;
    }
    const double scale =
        rho / (epsilon * HaarWavelet::WeightOf(t, domain_size));
    variance += weight * weight * 2.0 * scale * scale;
  }
  return variance;
}

Result<double> GroupedBinVariance(std::size_t group_width, double epsilon) {
  if (group_width == 0) {
    return Status::InvalidArgument("GroupedBinVariance requires width >= 1");
  }
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "GroupedBinVariance requires a finite epsilon > 0");
  }
  const double w = static_cast<double>(group_width);
  return 2.0 / (w * w * epsilon * epsilon);
}

}  // namespace dphist
