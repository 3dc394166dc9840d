#include "dphist/privacy/laplace_mechanism.h"

#include "dphist/privacy/budget.h"
#include "dphist/random/distributions.h"

namespace dphist {

Result<LaplaceMechanism> LaplaceMechanism::Create(double epsilon,
                                                  double sensitivity) {
  return Create(epsilon, sensitivity, NoiseModel::kAuto);
}

Result<LaplaceMechanism> LaplaceMechanism::Create(double epsilon,
                                                  double sensitivity,
                                                  NoiseModel model) {
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "LaplaceMechanism requires a finite epsilon > 0");
  }
  if (!(sensitivity > 0.0)) {
    return Status::InvalidArgument(
        "LaplaceMechanism requires sensitivity > 0");
  }
  return LaplaceMechanism(epsilon, sensitivity, ResolveNoiseModel(model));
}

double LaplaceMechanism::Perturb(double value, Rng& rng) const {
  if (model_ == NoiseModel::kTextbook) {
    return value + SampleLaplace(rng, scale());
  }
  return noise_batch::AddContinuousNoiseScalar(model_, scale(), value, rng);
}

std::vector<double> LaplaceMechanism::PerturbVector(
    const std::vector<double>& values, Rng& rng) const {
  std::vector<double> out(values.size());
  noise_batch::AddContinuousNoise(model_, scale(), values.data(), out.data(),
                                  values.size(), rng);
  return out;
}

}  // namespace dphist
