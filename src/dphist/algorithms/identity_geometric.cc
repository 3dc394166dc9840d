#include "dphist/algorithms/identity_geometric.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "dphist/privacy/geometric_mechanism.h"

namespace dphist {

Result<Histogram> IdentityGeometric::PublishPrepared(
    const Histogram& histogram, const PreparedTruth* /*prepared*/,
    double epsilon, Rng& rng) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  auto mechanism = GeometricMechanism::Create(epsilon, /*sensitivity=*/1,
                                              options_.noise_model);
  if (!mechanism.ok()) {
    return mechanism.status();
  }
  std::vector<std::int64_t> integral;
  integral.reserve(histogram.size());
  for (double count : histogram.counts()) {
    integral.push_back(static_cast<std::int64_t>(std::llround(count)));
  }
  const std::vector<std::int64_t> noisy =
      mechanism.value().PerturbVector(integral, rng);
  std::vector<double> out;
  out.reserve(noisy.size());
  for (std::int64_t v : noisy) {
    out.push_back(static_cast<double>(v));
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
