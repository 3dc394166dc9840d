#ifndef DPHIST_HIST_VOPT_DP_H_
#define DPHIST_HIST_VOPT_DP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dphist/common/parallel_defaults.h"
#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/hist/bucketization.h"
#include "dphist/hist/interval_cost.h"

namespace dphist {

class ThreadPool;

/// \brief How VOptSolver fills each DP row (see DESIGN §7).
enum class VOptStrategy {
  /// Pick from the decision table in DESIGN §7 (monotone whenever its
  /// preconditions hold and the row is long enough to prune).
  kAuto,
  /// The reference O(i) predecessor scan per cell.
  kNaive,
  /// Certified-lower-bound pruning with SIMD block scans. Produces
  /// bit-identical tables to kNaive (same values, same leftmost-argmin
  /// tie-breaking) at any thread count; only the work skipped differs.
  kMonotone,
};

/// Returns "auto", "naive", or "monotone".
const char* VOptStrategyName(VOptStrategy strategy);

/// \brief The v-optimal histogram dynamic program (Jagadish et al.,
/// VLDB'98), generalized to an arbitrary interval-cost measure.
///
/// Given candidate cut positions p_0=0 < ... < p_m=n and an interval cost
/// `c`, the solver computes, for every k <= max_buckets and every candidate
/// prefix i,
///
///   T[k][i] = min over structures of [p_0, p_i) with exactly k buckets of
///             the total cost,
///
/// in O(max_buckets * m^2) cost lookups on the naive path — the monotone
/// path prunes most of them (DESIGN §7) without changing a single table
/// bit. The full table is retained because both of the paper's algorithms
/// consume it beyond the optimum: NoiseFirst scans T[k][m] over k to pick
/// k*, and StructureFirst samples boundaries from the suffix costs
/// T[k][j] + c(p_j, p_end).
class VOptSolver {
 public:
  /// \brief Execution knobs for Solve.
  ///
  /// Within one row k of the table, every cell T[k][i] depends only on the
  /// completed row k-1, so the i loop parallelizes with a barrier between
  /// rows. Cells are pure min-reductions over identical double arithmetic,
  /// so the table (and hence every Traceback) is **bit-identical** for any
  /// thread count — parallelism never changes a published structure.
  struct SolveOptions {
    /// Pool for row-level parallelism; nullptr means ThreadPool::Global().
    ThreadPool* pool = nullptr;
    /// Rows are only parallelized when the candidate count m is at least
    /// this large; below it the fork/join overhead dwarfs the row work and
    /// the solver stays on the sequential path. Shared with the
    /// absolute-cost build (common/parallel_defaults.h) so both stages of
    /// one solve cut over at the same size.
    std::size_t min_parallel_candidates = kDefaultMinParallelCandidates;
    /// Row-fill strategy. kAuto applies the DESIGN §7 decision table; an
    /// explicit kNaive/kMonotone is for the equivalence tests and the
    /// benchmark sweeps that compare the two fills.
    VOptStrategy strategy = VOptStrategy::kAuto;
  };

  /// What one Solve actually did — resolved strategy plus deterministic
  /// work counts (bit-identical across thread counts; the monotone counts
  /// may differ across CPU generations because the pruning thresholds
  /// round differently under FMA variants, never across runs on one
  /// machine). Mirrored into the obs registry under vopt/*.
  struct SolveStats {
    /// The strategy the rows were actually filled with (never kAuto).
    VOptStrategy strategy = VOptStrategy::kNaive;
    /// DP rows filled, including the base row.
    std::uint64_t rows = 0;
    /// Table cells written.
    std::uint64_t cells = 0;
    /// Exact cost evaluations (CostBetween calls or packed-column reads).
    std::uint64_t cost_lookups = 0;
    /// Candidates scanned by the vectorized bound kernel (monotone only).
    std::uint64_t bound_scans = 0;
  };

  /// Runs the dynamic program for up to `max_buckets` buckets.
  /// `max_buckets` is clamped to the number of candidate intervals m;
  /// passing 0 means "up to m". Fails only on m == 0 (cannot happen for a
  /// valid cost table).
  static Result<VOptSolver> Solve(const IntervalCostTable& costs,
                                  std::size_t max_buckets);

  /// As above with explicit execution options (thread pool, sequential
  /// cut-over, row strategy). The result is bit-identical across all
  /// option choices.
  static Result<VOptSolver> Solve(const IntervalCostTable& costs,
                                  std::size_t max_buckets,
                                  const SolveOptions& options);

  /// Largest bucket count the table covers.
  std::size_t max_buckets() const { return max_buckets_; }

  /// Number of candidate intervals m.
  std::size_t num_candidates() const { return num_candidates_; }

  /// Minimum total cost of a k-bucket structure over the whole domain.
  /// Requires 1 <= k <= max_buckets().
  double MinCost(std::size_t k) const {
    return PrefixCost(k, num_candidates_);
  }

  /// T[k][i]: minimum cost of splitting the candidate prefix [p_0, p_i)
  /// into exactly k buckets. Requires k <= max_buckets() and k <= i <= m;
  /// returns +infinity for infeasible (i < k) combinations.
  double PrefixCost(std::size_t k, std::size_t i) const;

  /// The argmin predecessor of T[k][i] — the leftmost j achieving
  /// T[k-1][j] + c(p_j, p_i) — or -1 for out-of-range / infeasible (k, i).
  /// Exposed so the equivalence suite can compare whole parent tables, not
  /// just the tracebacks they imply.
  std::int32_t PrefixParent(std::size_t k, std::size_t i) const;

  /// Reconstructs the optimal k-bucket structure over the whole domain.
  /// Requires 1 <= k <= max_buckets().
  Result<Bucketization> Traceback(std::size_t k) const;

  /// The candidate cut positions (copied from the cost table).
  const std::vector<std::size_t>& positions() const { return positions_; }

  /// Work accounting for the Solve that produced this table.
  const SolveStats& stats() const { return stats_; }

 private:
  VOptSolver() = default;

  std::size_t max_buckets_ = 0;
  std::size_t num_candidates_ = 0;
  std::size_t domain_size_ = 0;
  std::vector<std::size_t> positions_;
  // Row-major (max_buckets+1) x (m+1); row 0 unused.
  std::vector<double> table_;
  // Argmin predecessor index for traceback; same layout.
  std::vector<std::int32_t> parent_;
  SolveStats stats_;
};

}  // namespace dphist

#endif  // DPHIST_HIST_VOPT_DP_H_
