#ifndef DPHIST_ALGORITHMS_PRIVELET_H_
#define DPHIST_ALGORITHMS_PRIVELET_H_

#include <string>

#include "dphist/algorithms/publisher.h"

namespace dphist {

/// \brief Privelet — the wavelet baseline of Xiao, Wang & Gehrke (ICDE'10),
/// compared against in the paper's evaluation.
///
/// Pipeline:
///   1. Pad the counts with zero bins to a power of two and take the Haar
///      wavelet transform.
///   2. Add Lap(rho / (epsilon * W(c))) noise to each coefficient c, where
///      W is the Privelet weight (the coefficient's interval length; n for
///      the overall average) and rho = 1 + log2(n) is the generalized
///      sensitivity: one record changes the weighted coefficient vector by
///      exactly rho in L1, so the release is epsilon-DP (generalized
///      Laplace mechanism).
///   3. Invert the transform and truncate to the original domain.
///
/// Like Boost, Privelet trades slightly worse unit-bin accuracy for
/// polylogarithmic range-query noise: any range touches O(log n)
/// coefficients per level.
class Privelet final : public HistogramPublisher {
 public:
  struct Options {
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
  };

  Privelet();
  explicit Privelet(Options options);

  std::string name() const override { return "privelet"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_PRIVELET_H_
