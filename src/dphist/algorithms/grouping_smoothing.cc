#include "dphist/algorithms/grouping_smoothing.h"

#include <algorithm>

#include "dphist/common/math_util.h"
#include "dphist/hist/bucketization.h"
#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

GroupingSmoothing::GroupingSmoothing() : options_(Options()) {}

GroupingSmoothing::GroupingSmoothing(Options options) : options_(options) {}

Result<Histogram> GroupingSmoothing::PublishPrepared(
    const Histogram& histogram, const PreparedTruth* /*prepared*/,
    double epsilon, Rng& rng) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (options_.group_size == 0) {
    return Status::InvalidArgument("GroupingSmoothing: group_size must be >= 1");
  }
  const std::size_t n = histogram.size();
  const std::size_t width = std::min(options_.group_size, n);
  const std::size_t groups = std::max<std::size_t>(1, n / width);
  auto structure = Bucketization::EquiWidth(n, groups);
  if (!structure.ok()) {
    return structure.status();
  }
  auto laplace = LaplaceMechanism::Create(epsilon, /*sensitivity=*/1.0);
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
      sum.Add(histogram.count(j));
    }
    const double noisy = laplace.value().Perturb(sum.Total(), rng);
    means.push_back(noisy / static_cast<double>(b.length()));
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
  return Histogram(std::move(out));
}

}  // namespace dphist
