#ifndef DPHIST_PRIVACY_EXPONENTIAL_MECHANISM_H_
#define DPHIST_PRIVACY_EXPONENTIAL_MECHANISM_H_

#include <cstddef>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/random/rng.h"

namespace dphist {

/// \brief The exponential mechanism of McSherry & Talwar (FOCS'07).
///
/// Given a finite candidate set with utility scores `u(D, r)` whose
/// per-record sensitivity is `Delta_u`, selecting candidate `r` with
/// probability proportional to `exp(epsilon * u(D, r) / (2 * Delta_u))`
/// satisfies epsilon-differential privacy.
///
/// StructureFirst uses this mechanism to sample each histogram-merge
/// boundary, with utility = negated merge cost (see
/// algorithms/structure_first.h for the sensitivity analysis of the cost).
class ExponentialMechanism {
 public:
  /// Creates a mechanism; requires a finite epsilon > 0 and
  /// utility_sensitivity > 0.
  static Result<ExponentialMechanism> Create(double epsilon,
                                             double utility_sensitivity);

  /// The privacy budget epsilon.
  double epsilon() const { return epsilon_; }
  /// The utility sensitivity Delta_u.
  double utility_sensitivity() const { return utility_sensitivity_; }

  /// Selects an index into `utilities` with probability proportional to
  /// exp(epsilon * u / (2 * Delta_u)), via the Gumbel-max trick (numerically
  /// exact in distribution and immune to overflow from large utilities).
  /// Returns InvalidArgument for an empty candidate set.
  Result<std::size_t> Select(const std::vector<double>& utilities,
                             Rng& rng) const;

  /// Returns the exact selection probabilities (normalized, computed with a
  /// max-shift for numerical stability). Exposed so tests can verify the
  /// sampled distribution against the definition.
  Result<std::vector<double>> SelectionProbabilities(
      const std::vector<double>& utilities) const;

 private:
  ExponentialMechanism(double epsilon, double utility_sensitivity)
      : epsilon_(epsilon), utility_sensitivity_(utility_sensitivity) {}

  double epsilon_;
  double utility_sensitivity_;
};

}  // namespace dphist

#endif  // DPHIST_PRIVACY_EXPONENTIAL_MECHANISM_H_
