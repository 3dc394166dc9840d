#ifndef DPHIST_ALGORITHMS_AHP_H_
#define DPHIST_ALGORITHMS_AHP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "dphist/algorithms/publisher.h"

namespace dphist {

/// \brief AHP — Accurate Histogram Publication (Zhang, Chen, Xu, Meng &
/// Xie, SDM'14), the direct successor of NoiseFirst/StructureFirst in the
/// literature (library extension).
///
/// AHP's twist on the NF/SF trade-off is to cluster bins by *value* rather
/// than by position, so far-apart bins with similar counts can share one
/// noisy estimate:
///
///   1. (eps_1 = ratio * eps) Perturb every count with Lap(1/eps_1).
///   2. Post-processing on the noisy counts (free): zero counts below the
///      threshold theta = ln(n)/eps_1 (noise-dominated bins), sort
///      descending, and greedily cut the sorted sequence into clusters —
///      a new cluster starts when the gap to the cluster's first value
///      exceeds the cluster tolerance (a small multiple of the phase-2
///      noise scale; see Options::cluster_tolerance_scale).
///   3. (eps_2 = eps - eps_1) For each cluster (a set of bins, disjoint
///      across clusters), query the *true* total of its bins with
///      Lap(1/eps_2) — parallel composition — and publish the cluster's
///      mean for each member bin.
///
/// Privacy: step 1 is eps_1-DP; step 2 consumes nothing; step 3 is
/// eps_2-DP by parallel composition over disjoint bin sets. Total
/// eps_1 + eps_2 = eps.
///
/// The exact threshold/tolerance constants of the original are
/// reconstruction choices here (documented inline); the structure —
/// value-clustering with two-phase budget — is the algorithm's substance.
class Ahp final : public HistogramPublisher {
 public:
  struct Options {
    /// Fraction of epsilon spent on the phase-1 noisy histogram.
    /// Must lie in (0, 1).
    double structure_budget_ratio = 0.5;
    /// Cluster tolerance, in units of the phase-2 noise scale 1/eps_2: a
    /// sorted run is clustered together while
    /// first - current <= tolerance_scale / eps_2.
    double cluster_tolerance_scale = 4.0;
    /// Disable the small-count thresholding (step 2a) — for ablation.
    bool threshold_small_counts = true;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = true;
  };

  /// Diagnostics for tests and benches.
  struct Details {
    std::size_t num_clusters = 0;
    std::size_t thresholded_bins = 0;
    double structure_epsilon = 0.0;
    double count_epsilon = 0.0;
  };

  Ahp();
  explicit Ahp(Options options);

  std::string name() const override { return "ahp"; }

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

#endif  // DPHIST_ALGORITHMS_AHP_H_
