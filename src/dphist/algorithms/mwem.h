#ifndef DPHIST_ALGORITHMS_MWEM_H_
#define DPHIST_ALGORITHMS_MWEM_H_

#include <cstddef>
#include <string>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/query/range_query.h"

namespace dphist {

/// \brief MWEM — Multiplicative Weights / Exponential Mechanism (Hardt,
/// Ligett & McSherry, NIPS'12), the classic workload-driven baseline the
/// DP-histogram literature measures against (library extension).
///
/// MWEM maintains a synthetic distribution over the unit bins,
/// initialized uniform, and iterates T times:
///   1. (eps/(2T) each) Exponential mechanism selects the workload query
///      on which the synthetic histogram errs most (utility
///      |q(true) - q(synth)|, per-record sensitivity 1).
///   2. (eps/(2T) each) Laplace-measure the selected query's true answer.
///   3. Multiplicative-weights update: bins inside the query are scaled by
///      exp( (measurement - q(synth)) / (2 * total) ), then renormalized.
///
/// A small slice of the budget (Options::total_budget_ratio) first
/// estimates the dataset cardinality, which scales the synthetic
/// distribution into counts; the remainder drives the T iterations.
///
/// Privacy: the total estimate, the T selections, and the T measurements
/// compose sequentially to exactly epsilon.
class Mwem final : public HistogramPublisher {
 public:
  struct Options {
    /// Number of MWEM iterations T.
    std::size_t iterations = 10;
    /// The workload to optimize for. When empty, Publish generates
    /// `default_workload_size` random ranges from its Rng (so the
    /// publisher is usable in generic harnesses).
    std::vector<RangeQuery> workload;
    /// Size of the generated workload when `workload` is empty.
    std::size_t default_workload_size = 200;
    /// Fraction of epsilon spent estimating the dataset cardinality.
    /// Must lie in (0, 1).
    double total_budget_ratio = 0.1;
    /// Clamp published counts at zero (MWEM's output is non-negative by
    /// construction unless the noisy total went negative).
    bool clamp_nonnegative = true;
  };

  /// Diagnostics for tests and benches.
  struct Details {
    /// The noisy cardinality estimate used to scale the distribution.
    double noisy_total = 0.0;
    /// Indices (into the workload) of the queries selected per iteration.
    std::vector<std::size_t> selected_queries;
  };

  Mwem();
  explicit Mwem(Options options);

  std::string name() const override { return "mwem"; }

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

#endif  // DPHIST_ALGORITHMS_MWEM_H_
