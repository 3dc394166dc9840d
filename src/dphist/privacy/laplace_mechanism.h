#ifndef DPHIST_PRIVACY_LAPLACE_MECHANISM_H_
#define DPHIST_PRIVACY_LAPLACE_MECHANISM_H_

#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/random/noise_batch.h"
#include "dphist/random/rng.h"

namespace dphist {

/// \brief The Laplace mechanism of Dwork, McSherry, Nissim & Smith (TCC'06).
///
/// For a query `f` with L1 sensitivity `Delta`, releasing
/// `f(D) + Lap(Delta/epsilon)` satisfies epsilon-differential privacy.
/// This class validates its parameters once at construction and then offers
/// scalar and vector perturbation.
///
/// The sampling construction is selected by a NoiseModel (DESIGN §10):
/// the default resolves DPHIST_NOISE_MODEL and falls back to the textbook
/// scalar sampler, which reproduces the historical draw sequence
/// bit-for-bit. kAuto is resolved once at Create, so one mechanism's calls
/// are always mutually consistent even if the environment changes.
class LaplaceMechanism {
 public:
  /// Creates a mechanism for the given budget and sensitivity.
  /// Returns InvalidArgument unless epsilon is finite and > 0 and
  /// sensitivity > 0.
  static Result<LaplaceMechanism> Create(double epsilon, double sensitivity);

  /// As above with an explicit noise model; kAuto consults the
  /// DPHIST_NOISE_MODEL environment variable (an explicit model wins).
  static Result<LaplaceMechanism> Create(double epsilon, double sensitivity,
                                         NoiseModel model);

  /// The privacy budget epsilon.
  double epsilon() const { return epsilon_; }
  /// The L1 sensitivity the mechanism was calibrated for.
  double sensitivity() const { return sensitivity_; }
  /// The Laplace scale parameter b = sensitivity / epsilon.
  double scale() const { return sensitivity_ / epsilon_; }
  /// The noise variance 2 b^2 of each released coordinate.
  double noise_variance() const { return 2.0 * scale() * scale(); }
  /// The resolved sampling construction (never kAuto).
  NoiseModel noise_model() const { return model_; }

  /// Returns `value + Lap(scale())` (model-dependent construction).
  double Perturb(double value, Rng& rng) const;

  /// Returns the element-wise perturbation of `values`.
  ///
  /// NOTE: this is epsilon-DP only when `values` as a whole has L1
  /// sensitivity `sensitivity()` — e.g. a histogram's unit-bin counts, where
  /// one record changes a single coordinate by 1 (parallel composition over
  /// disjoint bins).
  std::vector<double> PerturbVector(const std::vector<double>& values,
                                    Rng& rng) const;

 private:
  LaplaceMechanism(double epsilon, double sensitivity, NoiseModel model)
      : epsilon_(epsilon), sensitivity_(sensitivity), model_(model) {}

  double epsilon_;
  double sensitivity_;
  NoiseModel model_;
};

}  // namespace dphist

#endif  // DPHIST_PRIVACY_LAPLACE_MECHANISM_H_
