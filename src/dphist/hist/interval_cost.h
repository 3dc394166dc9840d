#ifndef DPHIST_HIST_INTERVAL_COST_H_
#define DPHIST_HIST_INTERVAL_COST_H_

#include <cstddef>
#include <vector>

#include "dphist/common/mapped_doubles.h"
#include "dphist/common/parallel_defaults.h"
#include "dphist/common/result.h"
#include "dphist/common/status.h"

namespace dphist {

class ThreadPool;

/// \brief The merge-cost measure used when scoring a candidate bucket.
enum class CostKind {
  /// Sum of squared errors: sum_i (x_i - mean)^2 — the classical v-optimal
  /// objective. Its per-record sensitivity is data-dependent (see
  /// algorithms/structure_first.h), so StructureFirst only uses it with a
  /// documented count cap.
  kSquared,
  /// Sum of absolute errors: sum_i |x_i - mean| — per-record sensitivity 2
  /// regardless of the data, making it the privacy-safe default score for
  /// StructureFirst's exponential-mechanism boundary sampling.
  kAbsolute,
};

/// Returns "squared" or "absolute".
const char* CostKindName(CostKind kind);

/// \brief Precomputed interval merge costs over a histogram, restricted to
/// grid-aligned boundary candidates.
///
/// The v-optimal dynamic program and StructureFirst's boundary sampling both
/// consult costs of the form cost([p_a, p_b)) where p_0=0 < p_1 < ... <
/// p_m=n are the candidate cut positions (all multiples of `grid_step`,
/// plus the domain end). Squared costs are O(1) from prefix tables; absolute
/// costs are materialized into a packed a < b triangle built with a rank
/// Fenwick tree in O((n^2/g) log n).
class IntervalCostTable {
 public:
  struct Options {
    /// Which cost measure to evaluate.
    CostKind kind = CostKind::kSquared;
    /// Boundary candidates are multiples of grid_step (>= 1). A coarser
    /// grid trades structure quality for speed/memory — the paper's exact
    /// algorithm corresponds to grid_step = 1.
    std::size_t grid_step = 1;
    /// Safety cap on the absolute-cost triangle (number of stored cells).
    /// Create fails with InvalidArgument when (m+1)*m/2 would exceed it;
    /// increase grid_step in that case.
    std::size_t max_table_cells = 1ULL << 26;
    /// Pool for the absolute-cost matrix build (the per-endpoint Fenwick
    /// sweeps are independent); nullptr means ThreadPool::Global(). The
    /// resulting table is bit-identical for any thread count.
    ThreadPool* pool = nullptr;
    /// The matrix build only parallelizes when there are at least this
    /// many candidates; small tables stay on the sequential path. Shared
    /// with the v-opt solver (common/parallel_defaults.h) so both stages
    /// of one solve cut over at the same size.
    std::size_t min_parallel_candidates = kDefaultMinParallelCandidates;
  };

  /// Builds the table for `counts`. Fails with InvalidArgument for an
  /// empty histogram, a NaN or infinite count, a zero grid step, or an
  /// absolute-cost matrix exceeding the cell cap.
  static Result<IntervalCostTable> Create(const std::vector<double>& counts,
                                          const Options& options);

  /// Domain size n (unit bins).
  std::size_t domain_size() const { return domain_size_; }
  /// The cost measure.
  CostKind kind() const { return kind_; }
  /// The grid step.
  std::size_t grid_step() const { return grid_step_; }

  /// Candidate cut positions p_0=0 < ... < p_m=n (unit-bin indices).
  const std::vector<std::size_t>& positions() const { return positions_; }

  /// Number of candidate intervals m = positions().size() - 1; the finest
  /// expressible structure has m buckets.
  std::size_t num_candidates() const { return positions_.size() - 1; }

  /// Cost of merging [positions()[a], positions()[b]) into one bucket.
  /// Requires a < b < positions().size(). O(1).
  double CostBetween(std::size_t a, std::size_t b) const;

  /// Mean of counts over the arbitrary unit-bin interval [begin, end).
  /// Requires begin < end <= domain_size(). O(1).
  double MeanOf(std::size_t begin, std::size_t end) const;

  /// Squared-error cost of an arbitrary unit-bin interval (available for
  /// both kinds; used by NoiseFirst's error estimator). O(1).
  double SquaredCostOf(std::size_t begin, std::size_t end) const;

  /// Prefix sums over unit bins, sums()[i] = sum counts[0..i) (size
  /// domain_size()+1). Exposed for the monotone v-opt solver, whose bound
  /// kernel mirrors SquaredCostOf's arithmetic from these tables.
  const std::vector<double>& prefix_sums() const { return sums_; }

  /// Prefix sums of squares, same layout as prefix_sums().
  const std::vector<double>& prefix_squares() const { return squares_; }

  /// Pointer to the packed absolute-cost column of end candidate `b`:
  /// column[a] == cost of [positions()[a], positions()[b]) for a < b.
  /// Requires kind() == kAbsolute and 1 <= b < positions().size(). The
  /// contiguous column layout is what lets the monotone v-opt solver scan
  /// a fixed-end row of candidates with a vectorized block min.
  const double* AbsoluteColumn(std::size_t b) const {
    return absolute_costs_.data() + b * (b - 1) / 2;
  }

 private:
  IntervalCostTable() = default;

  void BuildAbsoluteMatrix(const std::vector<double>& counts,
                           const Options& options);

  // Packed triangular index: only a < b intervals exist, stored
  // column-major by end candidate b — column b occupies the contiguous
  // range [b*(b-1)/2, b*(b+1)/2). Half the memory of the historical full
  // (positions x positions) matrix, and fixed-b columns are contiguous.
  double AbsoluteAt(std::size_t a, std::size_t b) const {
    return absolute_costs_[b * (b - 1) / 2 + a];
  }

  std::size_t domain_size_ = 0;
  CostKind kind_ = CostKind::kSquared;
  std::size_t grid_step_ = 1;
  std::vector<std::size_t> positions_;
  // Prefix sums over unit bins: sums_[i] = sum counts[0..i).
  std::vector<double> sums_;
  std::vector<double> squares_;
  // Packed a < b triangle, column-major by end candidate (see AbsoluteAt),
  // in pages of its own: a prepared StructureFirst keeps it for its
  // dataset's lifetime, and a destroyed one returns it to the OS. Empty
  // when kind == kSquared.
  MappedDoubles absolute_costs_;
};

}  // namespace dphist

#endif  // DPHIST_HIST_INTERVAL_COST_H_
