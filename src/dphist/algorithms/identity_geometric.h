#ifndef DPHIST_ALGORITHMS_IDENTITY_GEOMETRIC_H_
#define DPHIST_ALGORITHMS_IDENTITY_GEOMETRIC_H_

#include <string>

#include "dphist/algorithms/publisher.h"
#include "dphist/random/noise_batch.h"

namespace dphist {

/// \brief Integer-valued Dwork baseline: add two-sided geometric (discrete
/// Laplace) noise to every unit-bin count (library extension).
///
/// Same privacy argument as IdentityLaplace (sensitivity-1 counts,
/// parallel composition over disjoint bins), but the release stays
/// integral — useful when downstream consumers require genuine counts —
/// and the sampler involves no floating-point inverse CDF, avoiding the
/// Mironov-style side channel of textbook Laplace sampling. The geometric
/// mechanism is also universally utility-maximizing for count queries
/// (Ghosh, Roughgarden & Sundararajan).
///
/// Input counts are rounded to the nearest integer before perturbation
/// (true histograms are integral by definition).
class IdentityGeometric final : public HistogramPublisher {
 public:
  struct Options {
    /// Sampling construction for the per-bin noise (DESIGN §10): the
    /// textbook scalar sampler, or the exact batched CDF-inversion kernel
    /// (any non-textbook model). kAuto resolves DPHIST_NOISE_MODEL.
    NoiseModel noise_model = NoiseModel::kAuto;
  };

  IdentityGeometric() = default;
  explicit IdentityGeometric(Options options) : options_(options) {}

  std::string name() const override { return "geometric"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_IDENTITY_GEOMETRIC_H_
