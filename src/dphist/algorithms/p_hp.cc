#include "dphist/algorithms/p_hp.h"

#include <algorithm>
#include <cmath>

#include "dphist/common/math_util.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/privacy/exponential_mechanism.h"
#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

namespace {

// Sum of |x_i - mean| over [begin, end) from prefix tables would need the
// Fenwick machinery; bisection evaluates only O(n log k) interval costs, so
// a direct O(length) evaluation is cheaper overall and simpler.
double AbsoluteCost(const std::vector<double>& counts, std::size_t begin,
                    std::size_t end) {
  if (end - begin <= 1) {
    return 0.0;
  }
  KahanSum sum;
  for (std::size_t i = begin; i < end; ++i) {
    sum.Add(counts[i]);
  }
  const double mean = sum.Total() / static_cast<double>(end - begin);
  KahanSum cost;
  for (std::size_t i = begin; i < end; ++i) {
    cost.Add(std::abs(counts[i] - mean));
  }
  return cost.Total();
}

}  // namespace

PHPartition::PHPartition() : options_(Options()) {}

PHPartition::PHPartition(Options options) : options_(options) {}

Result<Histogram> PHPartition::PublishPrepared(
    const Histogram& histogram, const PreparedTruth* /*prepared*/,
    double epsilon, Rng& rng) const {
  return PublishWithDetails(histogram, epsilon, rng, nullptr);
}

Result<Histogram> PHPartition::PublishWithDetails(const Histogram& histogram,
                                                  double epsilon, Rng& rng,
                                                  Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (!(options_.structure_budget_ratio > 0.0) ||
      !(options_.structure_budget_ratio < 1.0)) {
    return Status::InvalidArgument(
        "PHPartition: structure_budget_ratio must lie in (0, 1)");
  }
  const std::size_t n = histogram.size();
  const std::vector<double>& counts = histogram.counts();

  // Resolve the bucket count to a power of two <= n.
  std::size_t requested = options_.num_buckets;
  if (requested == 0) {
    requested = std::max<std::size_t>(2, n / 16);
  }
  requested = std::min(requested, n);
  std::size_t k = 1;
  while (k * 2 <= requested) {
    k *= 2;
  }
  const std::size_t levels = FloorLog2(k);

  double eps_structure = 0.0;
  std::vector<std::size_t> cuts;
  if (levels > 0) {
    eps_structure = options_.structure_budget_ratio * epsilon;
    const double eps_level = eps_structure / static_cast<double>(levels);
    auto em =
        ExponentialMechanism::Create(eps_level, /*utility_sensitivity=*/2.0);
    if (!em.ok()) {
      return em.status();
    }
    // Frontier of intervals to split, as [begin, end) pairs.
    std::vector<std::pair<std::size_t, std::size_t>> frontier = {{0, n}};
    for (std::size_t level = 0; level < levels; ++level) {
      std::vector<std::pair<std::size_t, std::size_t>> next;
      next.reserve(frontier.size() * 2);
      for (const auto& [begin, end] : frontier) {
        if (end - begin <= 1) {
          next.push_back({begin, end});  // cannot split further
          continue;
        }
        std::vector<double> utilities;
        utilities.reserve(end - begin - 1);
        for (std::size_t split = begin + 1; split < end; ++split) {
          utilities.push_back(-(AbsoluteCost(counts, begin, split) +
                                AbsoluteCost(counts, split, end)));
        }
        auto pick = em.value().Select(utilities, rng);
        if (!pick.ok()) {
          return pick.status();
        }
        const std::size_t split = begin + 1 + pick.value();
        cuts.push_back(split);
        next.push_back({begin, split});
        next.push_back({split, end});
      }
      frontier = std::move(next);
    }
    std::sort(cuts.begin(), cuts.end());
  }

  const double eps_counts = epsilon - eps_structure;
  auto structure = Bucketization::FromCuts(n, cuts);
  if (!structure.ok()) {
    return structure.status();
  }
  auto laplace = LaplaceMechanism::Create(eps_counts, /*sensitivity=*/1.0);
  if (!laplace.ok()) {
    return laplace.status();
  }
  const Bucketization& buckets = structure.value();
  std::vector<double> means;
  means.reserve(buckets.num_buckets());
  for (std::size_t i = 0; i < buckets.num_buckets(); ++i) {
    const Bucket b = buckets.bucket(i);
    KahanSum sum;
    for (std::size_t j = b.begin; j < b.end; ++j) {
      sum.Add(counts[j]);
    }
    const double noisy_sum = laplace.value().Perturb(sum.Total(), rng);
    means.push_back(noisy_sum / static_cast<double>(b.length()));
  }
  auto published = buckets.Expand(means);
  if (!published.ok()) {
    return published.status();
  }
  std::vector<double> out = std::move(published).value();
  if (options_.clamp_nonnegative) {
    for (double& v : out) {
      v = std::max(v, 0.0);
    }
  }

  if (details != nullptr) {
    details->num_buckets = buckets.num_buckets();
    details->levels = levels;
    details->cuts = buckets.cuts();
    details->structure_epsilon = eps_structure;
    details->count_epsilon = eps_counts;
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
