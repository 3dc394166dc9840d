#include "dphist/privacy/exponential_mechanism.h"

#include <algorithm>
#include <cmath>

#include "dphist/privacy/budget.h"
#include "dphist/random/distributions.h"

namespace dphist {

Result<ExponentialMechanism> ExponentialMechanism::Create(
    double epsilon, double utility_sensitivity) {
  if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "ExponentialMechanism requires a finite epsilon > 0");
  }
  if (!(utility_sensitivity > 0.0)) {
    return Status::InvalidArgument(
        "ExponentialMechanism requires utility sensitivity > 0");
  }
  return ExponentialMechanism(epsilon, utility_sensitivity);
}

Result<std::size_t> ExponentialMechanism::Select(
    const std::vector<double>& utilities, Rng& rng) const {
  if (utilities.empty()) {
    return Status::InvalidArgument(
        "ExponentialMechanism::Select needs at least one candidate");
  }
  const double factor = epsilon_ / (2.0 * utility_sensitivity_);
  std::vector<double> log_weights;
  log_weights.reserve(utilities.size());
  for (double u : utilities) {
    log_weights.push_back(factor * u);
  }
  return SampleFromLogWeights(rng, log_weights);
}

Result<std::vector<double>> ExponentialMechanism::SelectionProbabilities(
    const std::vector<double>& utilities) const {
  if (utilities.empty()) {
    return Status::InvalidArgument(
        "ExponentialMechanism::SelectionProbabilities needs candidates");
  }
  const double factor = epsilon_ / (2.0 * utility_sensitivity_);
  const double max_utility =
      *std::max_element(utilities.begin(), utilities.end());
  std::vector<double> probabilities;
  probabilities.reserve(utilities.size());
  double normalizer = 0.0;
  for (double u : utilities) {
    const double w = std::exp(factor * (u - max_utility));
    probabilities.push_back(w);
    normalizer += w;
  }
  for (double& p : probabilities) {
    p /= normalizer;
  }
  return probabilities;
}

}  // namespace dphist
