#ifndef DPHIST_ALGORITHMS_IDENTITY_LAPLACE_H_
#define DPHIST_ALGORITHMS_IDENTITY_LAPLACE_H_

#include <string>

#include "dphist/algorithms/publisher.h"
#include "dphist/random/noise_batch.h"

namespace dphist {

/// \brief The Dwork et al. baseline: add Lap(1/epsilon) noise to every
/// unit-bin count independently.
///
/// Privacy: one record changes exactly one unit-bin count by 1, so the
/// count vector has L1 sensitivity 1 and the release is epsilon-DP
/// (equivalently, the bins partition the data, so per-bin mechanisms
/// compose in parallel).
///
/// Error: every unit bin carries noise variance 2/epsilon^2; a range query
/// of length r accumulates variance 2r/epsilon^2. This data-independent
/// profile is the yardstick both of the paper's algorithms improve on.
class IdentityLaplace final : public HistogramPublisher {
 public:
  struct Options {
    /// Sampling construction for the per-bin noise (DESIGN §10). kAuto
    /// resolves DPHIST_NOISE_MODEL and falls back to the textbook scalar
    /// sampler; an explicit model here wins over the environment.
    NoiseModel noise_model = NoiseModel::kAuto;
  };

  IdentityLaplace() = default;
  explicit IdentityLaplace(Options options) : options_(options) {}

  std::string name() const override { return "dwork"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_IDENTITY_LAPLACE_H_
