#ifndef DPHIST_PRIVACY_GEOMETRIC_MECHANISM_H_
#define DPHIST_PRIVACY_GEOMETRIC_MECHANISM_H_

#include <cstdint>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/random/noise_batch.h"
#include "dphist/random/rng.h"

namespace dphist {

/// \brief The geometric (discrete Laplace) mechanism of Ghosh, Roughgarden &
/// Sundararajan (STOC'09).
///
/// For an integer-valued query with sensitivity `Delta` (an integer), adding
/// two-sided geometric noise with alpha = exp(-epsilon/Delta) satisfies
/// epsilon-DP and is universally utility-maximizing for count queries. It is
/// the integer-valued, floating-point-side-channel-free alternative to the
/// Laplace mechanism, useful when published histogram counts must remain
/// integers.
///
/// The NoiseModel (DESIGN §10) selects the sampling construction:
/// kTextbook (the resolved default) is the historical scalar sampler,
/// bit-identical to prior releases; every other model uses the exact
/// batched CDF-inversion kernel (integer noise is already discrete, so
/// kBatched/kSnapped/kDiscrete coincide here).
class GeometricMechanism {
 public:
  /// Creates a mechanism; requires a finite epsilon > 0 and
  /// sensitivity >= 1.
  static Result<GeometricMechanism> Create(double epsilon,
                                           std::int64_t sensitivity);

  /// As above with an explicit noise model; kAuto consults the
  /// DPHIST_NOISE_MODEL environment variable (an explicit model wins).
  static Result<GeometricMechanism> Create(double epsilon,
                                           std::int64_t sensitivity,
                                           NoiseModel model);

  /// The privacy budget epsilon.
  double epsilon() const { return epsilon_; }
  /// The integer L1 sensitivity.
  std::int64_t sensitivity() const { return sensitivity_; }
  /// alpha = exp(-epsilon/sensitivity), the geometric decay rate.
  double alpha() const { return alpha_; }
  /// Noise variance 2*alpha / (1-alpha)^2.
  double noise_variance() const;
  /// The resolved sampling construction (never kAuto).
  NoiseModel noise_model() const { return model_; }

  /// Returns `value + TwoSidedGeometric(alpha())`.
  std::int64_t Perturb(std::int64_t value, Rng& rng) const;

  /// Element-wise perturbation; the same parallel-composition caveat as
  /// LaplaceMechanism::PerturbVector applies.
  std::vector<std::int64_t> PerturbVector(
      const std::vector<std::int64_t>& values, Rng& rng) const;

 private:
  GeometricMechanism(double epsilon, std::int64_t sensitivity, double alpha,
                     NoiseModel model)
      : epsilon_(epsilon),
        sensitivity_(sensitivity),
        alpha_(alpha),
        model_(model) {}

  double epsilon_;
  std::int64_t sensitivity_;
  double alpha_;
  NoiseModel model_;
};

}  // namespace dphist

#endif  // DPHIST_PRIVACY_GEOMETRIC_MECHANISM_H_
