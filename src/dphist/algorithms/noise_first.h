#ifndef DPHIST_ALGORITHMS_NOISE_FIRST_H_
#define DPHIST_ALGORITHMS_NOISE_FIRST_H_

#include <cstddef>
#include <string>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/hist/bucketization.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/random/noise_batch.h"

namespace dphist {

/// \brief NoiseFirst — the paper's first algorithm.
///
/// Pipeline:
///   1. Perturb every unit-bin count with Lap(1/epsilon) (the full budget:
///      this is the only access to the sensitive data).
///   2. Run the v-optimal dynamic program *on the noisy counts* to merge
///      them into k buckets, publishing each bucket's mean of the noisy
///      counts.
///   3. Choose k = k* minimizing an estimate of the true error.
///
/// Privacy: step 1 is the Dwork mechanism (epsilon-DP); steps 2-3 are
/// deterministic functions of its output, i.e. post-processing, and cost
/// nothing. NoiseFirst is therefore epsilon-DP for free structure.
///
/// The k* estimator. Let sigma^2 = 2/epsilon^2 be the per-bin noise
/// variance and SSE~(k) the DP-optimal squared cost of merging the *noisy*
/// counts into k buckets. For a bucket of length L,
///   E[SSE~(bucket)]  = SSE_true(bucket) + (L-1) sigma^2, and
///   E[err(bucket)]   = SSE_true(bucket) + sigma^2
/// (err = squared distance of the published bucket mean to the true unit
/// counts). Summing over a k-bucket structure:
///   E[err(k)] ~= SSE~(k) - (n - k) sigma^2 + k sigma^2
///              = SSE~(k) - (n - 2k) sigma^2,
/// so NoiseFirst picks k* = argmin_k [ SSE~(k) - (n - 2k) sigma^2 ].
/// With k = n the algorithm degenerates to the Dwork baseline, which is why
/// NoiseFirst never does worse than Dwork by much and typically much better
/// on short-range queries.
class NoiseFirst final : public HistogramPublisher {
 public:
  struct Options {
    /// Largest k considered by the k* search; 0 means automatic
    /// (min(candidates, 256)). Ignored when fixed_buckets != 0.
    std::size_t max_buckets = 0;
    /// If non-zero, skip the k* search and use exactly this many buckets
    /// (clamped to the number of candidates).
    std::size_t fixed_buckets = 0;
    /// Boundary-candidate grid step; 0 means automatic (1 for domains up to
    /// 2048 bins, ~n/1024 beyond). The paper's exact algorithm is step 1.
    std::size_t grid_step = 0;
    /// Clamp published counts at zero (post-processing; never hurts when
    /// the true counts are non-negative).
    bool clamp_nonnegative = false;
    /// Counteract selection bias in the k* search (library extension, off
    /// by default to match the paper). The unbiased estimator assumes a
    /// fixed structure, but the dynamic program *minimizes* over
    /// structures, so on pure noise it can cut out the largest deviations
    /// — Laplace noise is heavy-tailed and the j-th largest |noise| is
    /// roughly b*ln(n/j), inflating k*. When enabled, the estimator adds
    /// the expected cumulative overfit gain sum_{j<k} b^2 ln^2(n/j) to the
    /// k-bucket score, which restores small k* on structure-less data.
    bool bias_corrected_selection = false;
    /// Sampling construction for the step-1 per-bin noise (DESIGN §10).
    /// kAuto resolves DPHIST_NOISE_MODEL and falls back to the textbook
    /// scalar sampler; an explicit model here wins over the environment.
    /// Steps 2-3 post-process whatever step 1 released, so the model
    /// never changes the structure-selection logic itself.
    NoiseModel noise_model = NoiseModel::kAuto;
  };

  /// Diagnostic output of a publication run, for tests and benches.
  struct Details {
    /// The chosen number of buckets.
    std::size_t chosen_buckets = 0;
    /// The merged structure.
    std::vector<std::size_t> cuts;
    /// estimator[k-1] = estimated error of the k-bucket structure,
    /// for k = 1..max considered.
    std::vector<double> estimated_errors;
    /// The intermediate noisy counts (the Dwork release NoiseFirst
    /// post-processes).
    std::vector<double> noisy_counts;
  };

  NoiseFirst();
  explicit NoiseFirst(Options options);

  std::string name() const override { return "noise_first"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  /// Like Publish, additionally filling `details` (may be null).
  Result<Histogram> PublishWithDetails(const Histogram& histogram,
                                       double epsilon, Rng& rng,
                                       Details* details) const;

  const Options& options() const { return options_; }

  /// The automatic grid step used for a domain of `n` unit bins.
  static std::size_t AutoGridStep(std::size_t n);

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_NOISE_FIRST_H_
