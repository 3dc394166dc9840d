#include "dphist/algorithms/ahp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dphist/common/math_util.h"
#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

Ahp::Ahp() : options_(Options()) {}

Ahp::Ahp(Options options) : options_(options) {}

Result<Histogram> Ahp::PublishPrepared(const Histogram& histogram,
                                       const PreparedTruth* /*prepared*/,
                                       double epsilon, Rng& rng) const {
  return PublishWithDetails(histogram, epsilon, rng, nullptr);
}

Result<Histogram> Ahp::PublishWithDetails(const Histogram& histogram,
                                          double epsilon, Rng& rng,
                                          Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (!(options_.structure_budget_ratio > 0.0) ||
      !(options_.structure_budget_ratio < 1.0)) {
    return Status::InvalidArgument(
        "Ahp: structure_budget_ratio must lie in (0, 1)");
  }
  if (!(options_.cluster_tolerance_scale > 0.0)) {
    return Status::InvalidArgument(
        "Ahp: cluster_tolerance_scale must be > 0");
  }
  const std::size_t n = histogram.size();
  const double eps_structure = options_.structure_budget_ratio * epsilon;
  const double eps_counts = epsilon - eps_structure;

  // Phase 1: noisy histogram.
  auto phase1 = LaplaceMechanism::Create(eps_structure, /*sensitivity=*/1.0);
  if (!phase1.ok()) {
    return phase1.status();
  }
  std::vector<double> noisy =
      phase1.value().PerturbVector(histogram.counts(), rng);

  // Phase 2 (post-processing): threshold, sort, greedy value-clustering.
  std::size_t thresholded = 0;
  if (options_.threshold_small_counts) {
    const double theta =
        std::log(static_cast<double>(std::max<std::size_t>(n, 2))) /
        eps_structure;
    for (double& v : noisy) {
      if (v < theta) {
        v = 0.0;
        ++thresholded;
      }
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return noisy[a] > noisy[b];
  });

  const double tolerance = options_.cluster_tolerance_scale / eps_counts;
  // clusters[i] = cluster id of the i-th bin in sorted order.
  std::vector<std::vector<std::size_t>> clusters;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const std::size_t bin = order[rank];
    if (clusters.empty() ||
        noisy[clusters.back().front()] - noisy[bin] > tolerance) {
      clusters.push_back({bin});
    } else {
      clusters.back().push_back(bin);
    }
  }

  // Phase 3: noisy cluster totals over the TRUE counts (clusters are
  // disjoint bin sets -> parallel composition).
  auto phase3 = LaplaceMechanism::Create(eps_counts, /*sensitivity=*/1.0);
  if (!phase3.ok()) {
    return phase3.status();
  }
  std::vector<double> out(n, 0.0);
  for (const std::vector<std::size_t>& cluster : clusters) {
    KahanSum sum;
    for (std::size_t bin : cluster) {
      sum.Add(histogram.count(bin));
    }
    const double noisy_total = phase3.value().Perturb(sum.Total(), rng);
    const double mean =
        noisy_total / static_cast<double>(cluster.size());
    for (std::size_t bin : cluster) {
      out[bin] = mean;
    }
  }
  if (options_.clamp_nonnegative) {
    for (double& v : out) {
      v = std::max(v, 0.0);
    }
  }

  if (details != nullptr) {
    details->num_clusters = clusters.size();
    details->thresholded_bins = thresholded;
    details->structure_epsilon = eps_structure;
    details->count_epsilon = eps_counts;
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
