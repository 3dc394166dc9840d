#include "dphist/privacy/geometric_mechanism.h"

#include <cmath>

#include "dphist/privacy/budget.h"
#include "dphist/random/distributions.h"

namespace dphist {

Result<GeometricMechanism> GeometricMechanism::Create(
    double epsilon, std::int64_t sensitivity) {
  return Create(epsilon, sensitivity, NoiseModel::kAuto);
}

Result<GeometricMechanism> GeometricMechanism::Create(
    double epsilon, std::int64_t sensitivity, NoiseModel model) {
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "GeometricMechanism requires a finite epsilon > 0");
  }
  if (sensitivity < 1) {
    return Status::InvalidArgument(
        "GeometricMechanism requires integer sensitivity >= 1");
  }
  const double alpha =
      std::exp(-epsilon / static_cast<double>(sensitivity));
  return GeometricMechanism(epsilon, sensitivity, alpha,
                            ResolveNoiseModel(model));
}

double GeometricMechanism::noise_variance() const {
  const double one_minus = 1.0 - alpha_;
  return 2.0 * alpha_ / (one_minus * one_minus);
}

std::int64_t GeometricMechanism::Perturb(std::int64_t value, Rng& rng) const {
  if (model_ == NoiseModel::kTextbook) {
    return value + SampleTwoSidedGeometric(rng, alpha_);
  }
  const double t = epsilon_ / static_cast<double>(sensitivity_);
  return noise_batch::AddIntegerNoiseScalar(model_, t, value, rng);
}

std::vector<std::int64_t> GeometricMechanism::PerturbVector(
    const std::vector<std::int64_t>& values, Rng& rng) const {
  std::vector<std::int64_t> out(values.size());
  const double t = epsilon_ / static_cast<double>(sensitivity_);
  noise_batch::AddIntegerNoise(model_, t, values.data(), out.data(),
                               values.size(), rng);
  return out;
}

}  // namespace dphist
