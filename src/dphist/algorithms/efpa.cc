#include "dphist/algorithms/efpa.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "dphist/common/math_util.h"
#include "dphist/privacy/exponential_mechanism.h"
#include "dphist/random/distributions.h"
#include "dphist/transform/fourier.h"
#include "dphist/transform/haar_wavelet.h"

namespace dphist {

namespace {

// Expected total L2 norm of the time-domain reconstruction noise when the
// first k coefficients carry Lap(lambda) on both components: the zero-
// padded spectrum has ~2 mirrored copies of each noisy coefficient, the
// inverse transform divides by n, and Parseval converts back:
// E||noise||_2^2 ~= (2k * 2 * 2 lambda^2) / n = 8 k lambda^2 / n.
double NoiseL2(std::size_t k, double lambda, std::size_t n) {
  return std::sqrt(8.0 * static_cast<double>(k) * lambda * lambda /
                   static_cast<double>(n));
}

}  // namespace

Efpa::Efpa() : options_(Options()) {}

Efpa::Efpa(Options options) : options_(options) {}

Result<Histogram> Efpa::PublishPrepared(const Histogram& histogram,
                                        const PreparedTruth* /*prepared*/,
                                        double epsilon, Rng& rng) const {
  return PublishWithDetails(histogram, epsilon, rng, nullptr);
}

Result<Histogram> Efpa::PublishWithDetails(const Histogram& histogram,
                                           double epsilon, Rng& rng,
                                           Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (options_.fixed_coefficients == 0 &&
      (!(options_.selection_budget_ratio > 0.0) ||
       !(options_.selection_budget_ratio < 1.0))) {
    return Status::InvalidArgument(
        "Efpa: selection_budget_ratio must lie in (0, 1)");
  }
  const std::size_t n = histogram.size();
  const std::vector<double> padded =
      HaarWavelet::PadToPowerOfTwo(histogram.counts());
  const std::size_t padded_n = padded.size();
  const std::size_t max_kept = padded_n / 2 + 1;

  auto spectrum = Fft::ForwardReal(padded);
  if (!spectrum.ok()) {
    return spectrum.status();
  }

  // Energy of the "tail" beyond a prefix of k coefficients, counting the
  // mirrored half (|F_{n-j}| = |F_j|).
  std::vector<double> tail_energy(max_kept + 1, 0.0);
  for (std::size_t k = max_kept; k-- > 0;) {
    const std::size_t j = k;  // coefficient index being dropped at level k
    double energy = std::norm(spectrum.value()[j]);
    if (j != 0 && j != padded_n - j) {
      energy *= 2.0;  // mirrored coefficient drops with it
    }
    tail_energy[k] = tail_energy[k + 1] + energy;
  }

  std::size_t kept;
  double eps_selection = 0.0;
  double eps_noise;
  if (options_.fixed_coefficients != 0) {
    kept = std::min(options_.fixed_coefficients, max_kept);
    eps_noise = epsilon;
  } else {
    eps_selection = options_.selection_budget_ratio * epsilon;
    eps_noise = epsilon - eps_selection;
    auto em = ExponentialMechanism::Create(eps_selection,
                                           /*utility_sensitivity=*/1.0);
    if (!em.ok()) {
      return em.status();
    }
    std::vector<double> utilities;
    utilities.reserve(max_kept);
    const double sqrt_n = std::sqrt(static_cast<double>(padded_n));
    for (std::size_t k = 1; k <= max_kept; ++k) {
      const double approx = std::sqrt(tail_energy[k]) / sqrt_n;
      const double lambda =
          std::sqrt(2.0) * static_cast<double>(k) / eps_noise;
      utilities.push_back(-(approx + NoiseL2(k, lambda, padded_n)));
    }
    auto pick = em.value().Select(utilities, rng);
    if (!pick.ok()) {
      return pick.status();
    }
    kept = 1 + pick.value();
  }

  // Perturb the retained coefficients.
  const double lambda = std::sqrt(2.0) * static_cast<double>(kept) / eps_noise;
  std::vector<std::complex<double>> noisy(
      spectrum.value().begin(),
      spectrum.value().begin() + static_cast<long>(kept));
  for (std::complex<double>& c : noisy) {
    c += std::complex<double>(SampleLaplace(rng, lambda),
                              SampleLaplace(rng, lambda));
  }

  auto reconstructed = Fft::ReconstructFromPrefix(noisy, padded_n);
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

  if (details != nullptr) {
    details->kept_coefficients = kept;
    details->selection_epsilon = eps_selection;
    details->noise_epsilon = eps_noise;
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
