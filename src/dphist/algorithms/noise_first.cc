#include "dphist/algorithms/noise_first.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

NoiseFirst::NoiseFirst() : options_(Options()) {}

NoiseFirst::NoiseFirst(Options options) : options_(options) {}

std::size_t NoiseFirst::AutoGridStep(std::size_t n) {
  if (n <= 2048) {
    return 1;
  }
  return (n + 1023) / 1024;
}

Result<Histogram> NoiseFirst::PublishPrepared(const Histogram& histogram,
                                              const PreparedTruth* /*prepared*/,
                                              double epsilon, Rng& rng) const {
  return PublishWithDetails(histogram, epsilon, rng, nullptr);
}

Result<Histogram> NoiseFirst::PublishWithDetails(const Histogram& histogram,
                                                 double epsilon, Rng& rng,
                                                 Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  const std::size_t n = histogram.size();

  // Step 1: spend the whole budget on per-bin Laplace noise.
  auto mechanism = LaplaceMechanism::Create(epsilon, /*sensitivity=*/1.0,
                                            options_.noise_model);
  if (!mechanism.ok()) {
    return mechanism.status();
  }
  const std::vector<double> noisy =
      mechanism.value().PerturbVector(histogram.counts(), rng);

  // Step 2: v-opt DP over the noisy counts (post-processing).
  IntervalCostTable::Options cost_options;
  cost_options.kind = CostKind::kSquared;
  cost_options.grid_step =
      options_.grid_step == 0 ? AutoGridStep(n) : options_.grid_step;
  auto cost_table = IntervalCostTable::Create(noisy, cost_options);
  if (!cost_table.ok()) {
    return cost_table.status();
  }
  const IntervalCostTable& costs = cost_table.value();
  const std::size_t m = costs.num_candidates();

  std::size_t max_k;
  if (options_.fixed_buckets != 0) {
    max_k = std::min(options_.fixed_buckets, m);
  } else if (options_.max_buckets != 0) {
    max_k = std::min(options_.max_buckets, m);
  } else {
    max_k = std::min<std::size_t>(m, 256);
  }
  auto solver = VOptSolver::Solve(costs, max_k);
  if (!solver.ok()) {
    return solver.status();
  }

  // Step 3: pick k (fixed, or k* from the error estimator).
  const double sigma_sq = mechanism.value().noise_variance();
  std::vector<double> estimated;
  std::size_t chosen_k;
  if (options_.fixed_buckets != 0) {
    chosen_k = max_k;
  } else {
    chosen_k = 1;
    double best = std::numeric_limits<double>::infinity();
    estimated.reserve(max_k);
    // Optional selection-bias correction: cumulative expected overfit gain
    // of the DP on pure Laplace noise (see Options).
    const double b_sq = sigma_sq / 2.0;  // Laplace scale squared
    double overfit = 0.0;
    for (std::size_t k = 1; k <= max_k; ++k) {
      if (options_.bias_corrected_selection && k >= 2) {
        const double log_term =
            std::log(static_cast<double>(n) / static_cast<double>(k - 1));
        overfit += b_sq * log_term * log_term;
      }
      double estimate =
          solver.value().MinCost(k) -
          (static_cast<double>(n) - 2.0 * static_cast<double>(k)) * sigma_sq;
      if (options_.bias_corrected_selection) {
        estimate += overfit;
      }
      estimated.push_back(estimate);
      if (estimate < best) {
        best = estimate;
        chosen_k = k;
      }
    }
  }

  auto structure = solver.value().Traceback(chosen_k);
  if (!structure.ok()) {
    return structure.status();
  }

  // Publish the mean of the *noisy* counts in each bucket.
  auto buckets = structure.value().Apply(noisy);
  if (!buckets.ok()) {
    return buckets.status();
  }
  std::vector<double> means;
  means.reserve(buckets.value().size());
  for (const Bucket& b : buckets.value()) {
    means.push_back(b.mean);
  }
  auto published = structure.value().Expand(means);
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
    details->chosen_buckets = chosen_k;
    details->cuts = structure.value().cuts();
    details->estimated_errors = std::move(estimated);
    details->noisy_counts = noisy;
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
