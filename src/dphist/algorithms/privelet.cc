#include "dphist/algorithms/privelet.h"

#include <algorithm>

#include "dphist/random/distributions.h"
#include "dphist/transform/haar_wavelet.h"

namespace dphist {

Privelet::Privelet() : options_(Options()) {}

Privelet::Privelet(Options options) : options_(options) {}

Result<Histogram> Privelet::PublishPrepared(const Histogram& histogram,
                                            const PreparedTruth* /*prepared*/,
                                            double epsilon, Rng& rng) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  const std::size_t n = histogram.size();

  const std::vector<double> padded =
      HaarWavelet::PadToPowerOfTwo(histogram.counts());
  auto coefficients = HaarWavelet::Forward(padded);
  if (!coefficients.ok()) {
    return coefficients.status();
  }
  std::vector<double> noisy = std::move(coefficients).value();

  const std::size_t padded_n = padded.size();
  const double rho = HaarWavelet::GeneralizedSensitivity(padded_n);
  for (std::size_t t = 0; t < noisy.size(); ++t) {
    const double weight = HaarWavelet::WeightOf(t, padded_n);
    const double scale = rho / (epsilon * weight);
    noisy[t] += SampleLaplace(rng, scale);
  }

  auto reconstructed = HaarWavelet::Inverse(noisy);
  if (!reconstructed.ok()) {
    return reconstructed.status();
  }
  std::vector<double> out(reconstructed.value().begin(),
                          reconstructed.value().begin() +
                              static_cast<long>(n));
  if (options_.clamp_nonnegative) {
    for (double& v : out) {
      v = std::max(v, 0.0);
    }
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
