#ifndef DPHIST_ALGORITHMS_EFPA_H_
#define DPHIST_ALGORITHMS_EFPA_H_

#include <cstddef>
#include <string>

#include "dphist/algorithms/publisher.h"

namespace dphist {

/// \brief EFPA — Enhanced Fourier Perturbation Algorithm (Acs,
/// Castelluccia & Chen, ICDM'12), the lossy-compression relative of the
/// paper's algorithms (library extension; the follow-up literature
/// benchmarks NF/SF against it).
///
/// Pipeline, with budget split epsilon = eps_1 + eps_2 (default halves):
///   1. (eps_1) Choose the number k of retained (lowest-frequency) Fourier
///      coefficients with the exponential mechanism. Utility is the
///      negated estimated total L2 error
///        u(k) = -( ||tail(k)||_2 / sqrt(n)  +  noise(k) ),
///      where, by Parseval, ||tail(k)||_2 / sqrt(n) is exactly the
///      time-domain L2 error of dropping all but the first k coefficients,
///      and noise(k) = sqrt(8 k) * lambda_k / sqrt(n) is the expected L2
///      norm of the reconstruction noise below. One record changes every
///      |F_j| by at most 1, hence the tail norm by at most
///      sqrt(n)/sqrt(n) = 1, and noise(k) is data-independent: Delta_u = 1.
///   2. (eps_2) Perturb the real and imaginary parts of the k retained
///      coefficients with Lap(lambda_k), lambda_k = sqrt(2) k / eps_2:
///      one record moves each complex coefficient by a unit phasor, so
///      |d re| + |d im| <= sqrt(2) per coefficient and the L1 sensitivity
///      of the 2k released reals is sqrt(2) k.
///   3. Reconstruct by zero-padding the spectrum (conjugate symmetry
///      restored), inverse FFT, truncate to the original domain.
///
/// EFPA excels on smooth/periodic histograms whose energy concentrates in
/// few frequencies, and degrades on spiky data (spectral leakage).
class Efpa final : public HistogramPublisher {
 public:
  struct Options {
    /// If non-zero, skip the private k selection and keep exactly this
    /// many coefficients (clamped to n/2 + 1).
    std::size_t fixed_coefficients = 0;
    /// Fraction of epsilon spent selecting k. Must lie in (0, 1); ignored
    /// when fixed_coefficients != 0 (everything then goes to noise).
    double selection_budget_ratio = 0.5;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
  };

  /// Diagnostics for tests and benches.
  struct Details {
    /// Number of retained coefficients.
    std::size_t kept_coefficients = 0;
    /// Budget spent on the k selection (0 when fixed).
    double selection_epsilon = 0.0;
    /// Budget spent on coefficient noise.
    double noise_epsilon = 0.0;
  };

  Efpa();
  explicit Efpa(Options options);

  std::string name() const override { return "efpa"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  /// Like Publish, additionally filling `details` (may be null).
  Result<Histogram> PublishWithDetails(const Histogram& histogram,
                                       double epsilon, Rng& rng,
                                       Details* details) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_EFPA_H_
