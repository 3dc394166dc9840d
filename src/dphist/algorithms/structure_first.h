#ifndef DPHIST_ALGORITHMS_STRUCTURE_FIRST_H_
#define DPHIST_ALGORITHMS_STRUCTURE_FIRST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/hist/bucketization.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/random/noise_batch.h"

namespace dphist {

/// \brief StructureFirst — the paper's second algorithm.
///
/// Pipeline, with budget split epsilon = eps_s + eps_c:
///   1. (eps_s) Select a k-bucket structure privately. Run the v-optimal
///      dynamic program over the true counts, then sample the k-1 cut
///      positions back-to-front: the cut before the current suffix end `e`
///      is drawn by the exponential mechanism over candidates j with
///      utility u(j) = -( T[t][j] + cost(p_j, p_e) ), budget eps_s/(k-1)
///      per draw. T[t][j] is the optimal t-bucket cost of the prefix — so a
///      draw prefers cuts that extend to a low-total-cost structure, and at
///      zero temperature the procedure reduces to the exact v-opt optimum.
///   2. (eps_c) Publish each bucket's mean: one record changes exactly one
///      bucket's sum by 1, so bucket sums compose in parallel; add
///      Lap(1/eps_c) to each bucket sum and divide by the bucket length.
///      A bucket of length L thus carries per-unit-bin noise variance
///      2/(L^2 eps_c^2) — the source of StructureFirst's advantage on
///      long-range queries.
///
/// Privacy: each of the k-1 draws is an exponential mechanism with budget
/// eps_s/(k-1) and utility sensitivity Delta_u (below); sequential
/// composition gives eps_s. Step 2 is eps_c-DP by parallel composition.
/// Total: eps_s + eps_c = epsilon. When the structure is data-independent
/// (k == 1, or k equals the number of candidates), the full budget goes to
/// step 2.
///
/// Utility sensitivity. For a *fixed* structure the total merge cost
/// changes, between neighboring datasets, only in the single bucket
/// containing the changed record; and T[t][j] is a minimum of fixed-
/// structure costs, so it inherits the same bound. Per cost kind:
///   - kAbsolute (default): bucket cost sum|x_i - mean|. A unit change in
///     one count moves the mean by 1/L, each of the other L-1 terms by at
///     most 1/L and the changed term by at most 1 + 1/L: Delta_u <= 2,
///     with no assumption on the data.
///   - kSquared: the classical SSE changes by 2|x_i - mean| + 1 - 1/L,
///     which is unbounded in the counts. We therefore clamp the *scoring*
///     copy of the counts to [0, count_cap] (a data-independent constant;
///     clamping is 1-Lipschitz per record so neighbors stay neighbors) and
///     use Delta_u = 2 * count_cap + 1. The published counts are never
///     clamped. This mirrors the boundedness assumption required to
///     instantiate the original paper's SSE-based score.
///
/// Stages. The structure is scored on the true counts, so the interval-cost
/// table depends only on the truth, the cost kind, the grid step and the
/// count cap: `Prepare` builds it once, and every `PublishPrepared` over
/// that truth reads it, whatever its epsilon and seed. The v-opt solve, the
/// k draw, the boundary draws and the bucket noise run per release.
class StructureFirst final : public HistogramPublisher {
 public:
  struct Options {
    /// Number of buckets k. 0 (the default) selects k privately with one
    /// extra exponential-mechanism draw over candidate bucket counts, with
    /// utility u(k) = -( T[k][m] + k/eps_c ): the best achievable k-bucket
    /// merge cost plus the expected total absolute count noise (each
    /// bucket sum carries Lap(1/eps_c) noise of mean magnitude 1/eps_c,
    /// a data-independent term). T[k][m] has the same per-record
    /// sensitivity as the boundary utilities, so the draw is budgeted and
    /// accounted exactly like one extra boundary draw.
    std::size_t num_buckets = 0;
    /// Upper bound on the k candidates considered by the adaptive
    /// selection; 0 means automatic (min(candidates, 128)).
    std::size_t max_buckets_considered = 0;
    /// Fraction of eps_s spent on the adaptive k draw (remainder goes to
    /// the boundary draws). Only used when num_buckets == 0.
    double k_selection_ratio = 0.2;
    /// Fraction of epsilon spent on structure selection (eps_s = ratio *
    /// epsilon). Must lie in (0, 1). The paper's default split is 0.5.
    double structure_budget_ratio = 0.5;
    /// Merge-cost measure for structure scoring (see class comment).
    CostKind cost_kind = CostKind::kAbsolute;
    /// Count cap used only with CostKind::kSquared.
    double count_cap = 1000.0;
    /// Boundary-candidate grid step; 0 means automatic (same rule as
    /// NoiseFirst::AutoGridStep).
    std::size_t grid_step = 0;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
    /// Sampling construction for the step-2 bucket-sum noise (DESIGN
    /// §10). kAuto resolves DPHIST_NOISE_MODEL and falls back to the
    /// textbook scalar sampler. The step-1 exponential-mechanism draws
    /// are unaffected (they add no additive noise to snap or batch).
    NoiseModel noise_model = NoiseModel::kAuto;
  };

  /// What `Prepare` builds: the scoring interval-cost table over the true
  /// counts, clamped to [0, count_cap] for the squared cost. The table
  /// records its domain size, cost kind and grid step; the count cap and
  /// the truth's `FingerprintHistogram` are kept beside it. A
  /// `PublishPrepared` whose truth or options disagree with any of the
  /// five fails with InvalidArgument, so a table scored on other counts
  /// can never pick a structure.
  class Prepared final : public PreparedTruth {
   public:
    /// The scoring table the boundary utilities read.
    const IntervalCostTable& costs() const { return costs_; }
    /// The cap the scoring counts were clamped to (squared cost only).
    double count_cap() const { return count_cap_; }
    /// `FingerprintHistogram` of the truth the table was built from.
    std::uint64_t truth_fingerprint() const { return truth_fingerprint_; }

   private:
    friend class StructureFirst;

    Prepared(IntervalCostTable costs, double count_cap,
             std::uint64_t truth_fingerprint)
        : costs_(std::move(costs)),
          count_cap_(count_cap),
          truth_fingerprint_(truth_fingerprint) {}

    IntervalCostTable costs_;
    double count_cap_;
    std::uint64_t truth_fingerprint_;
  };

  /// Diagnostic output of a publication run.
  struct Details {
    /// Number of buckets actually used.
    std::size_t num_buckets = 0;
    /// True when k was selected adaptively (Options::num_buckets == 0).
    bool adaptive_k = false;
    /// The selected cuts (unit-bin positions).
    std::vector<std::size_t> cuts;
    /// Budget actually spent on structure (0 when the structure was
    /// data-independent).
    double structure_epsilon = 0.0;
    /// Budget spent on the bucket counts.
    double count_epsilon = 0.0;
    /// Utility sensitivity used for the exponential mechanism.
    double utility_sensitivity = 0.0;
  };

  StructureFirst();
  explicit StructureFirst(Options options);

  std::string name() const override { return "structure_first"; }

  /// Builds a `Prepared` over `truth`. Fails with InvalidArgument for an
  /// empty histogram, a non-finite count, invalid options, or a table past
  /// IntervalCostTable's cell cap.
  Result<std::shared_ptr<const PreparedTruth>> Prepare(
      const Histogram& truth) const override;

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  /// Like Publish, additionally filling `details` (may be null).
  Result<Histogram> PublishWithDetails(const Histogram& histogram,
                                       double epsilon, Rng& rng,
                                       Details* details) const;

  /// Like PublishPrepared, additionally filling `details` (may be null).
  Result<Histogram> PublishWithDetails(const Histogram& histogram,
                                       const PreparedTruth* prepared,
                                       double epsilon, Rng& rng,
                                       Details* details) const;

  const Options& options() const { return options_; }

 private:
  Status ValidateOptions() const;

  /// The grid step of the cost table for a domain of `n` bins.
  std::size_t GridStep(std::size_t n) const;

  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_STRUCTURE_FIRST_H_
