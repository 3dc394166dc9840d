#ifndef DPHIST_ALGORITHMS_P_HP_H_
#define DPHIST_ALGORITHMS_P_HP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/hist/bucketization.h"

namespace dphist {

/// \brief P-HP — private hierarchical partitioning (Acs, Castelluccia &
/// Chen, ICDM'12), the greedy top-down cousin of StructureFirst (library
/// extension; the follow-up literature compares NF/SF against it).
///
/// Pipeline, with budget split epsilon = eps_s + eps_c:
///   1. (eps_s) Recursive bisection to k = 2^L buckets. At each of the L
///      levels, every current interval picks a split point with the
///      exponential mechanism, utility
///        u(split) = -( cost(left) + cost(right) ),
///      where cost is the absolute merge cost (sum |x_i - mean|, with
///      per-record sensitivity 2, as in StructureFirst). Intervals at the
///      same level are disjoint, so their draws compose in parallel: one
///      level costs eps_s / L, not eps_s * (#intervals) / L.
///   2. (eps_c) Publish each bucket's mean with Lap(1/eps_c) noise on the
///      bucket sum, exactly as in StructureFirst.
///
/// Compared to StructureFirst's global dynamic program, bisection is
/// greedy (it cannot undo an early bad split) but much cheaper
/// (O(n log k) cost evaluations) and its per-draw budget shrinks with
/// log k instead of k, which helps at strict budgets.
class PHPartition final : public HistogramPublisher {
 public:
  struct Options {
    /// Number of buckets (rounded down to a power of two, clamped to the
    /// domain size). 0 means automatic: 2^floor(log2(max(2, n/16))).
    std::size_t num_buckets = 0;
    /// Fraction of epsilon spent on structure. Must lie in (0, 1).
    double structure_budget_ratio = 0.5;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
  };

  /// Diagnostics for tests and benches.
  struct Details {
    std::size_t num_buckets = 0;
    std::size_t levels = 0;
    std::vector<std::size_t> cuts;
    double structure_epsilon = 0.0;
    double count_epsilon = 0.0;
  };

  PHPartition();
  explicit PHPartition(Options options);

  std::string name() const override { return "p_hp"; }

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

#endif  // DPHIST_ALGORITHMS_P_HP_H_
