#include "dphist/algorithms/identity_laplace.h"

#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

Result<Histogram> IdentityLaplace::PublishPrepared(
    const Histogram& histogram, const PreparedTruth* /*prepared*/,
    double epsilon, Rng& rng) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  auto mechanism = LaplaceMechanism::Create(epsilon, /*sensitivity=*/1.0,
                                            options_.noise_model);
  if (!mechanism.ok()) {
    return mechanism.status();
  }
  return Histogram(mechanism.value().PerturbVector(histogram.counts(), rng));
}

}  // namespace dphist
