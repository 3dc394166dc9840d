#ifndef DPHIST_HIST_VOPT_KERNEL_H_
#define DPHIST_HIST_VOPT_KERNEL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dphist/hist/interval_cost.h"

namespace dphist {
namespace vopt_kernel {

// Bound kernels for the monotone v-opt row solver (DESIGN §7).
//
// The out-of-line kernels live in vopt_kernel.cc. That translation unit
// is compiled with -ffinite-math-only -fno-signed-zeros (see
// src/CMakeLists.txt) so the compiler vectorizes the floating-point min
// reductions, the bound passes and the first-match select, with
// target_clones dispatching to AVX2/AVX-512 at runtime where available.
// The relaxed FP semantics are safe there because no kernel computes a DP
// value: the squared kernels produce pruning thresholds and masks only,
// the absolute block minimum selects one of its exact sums, and the
// solver re-evaluates every candidate it keeps with strict scalar
// arithmetic. Neither flag changes an IEEE add or an equality compare of
// finite operands, so the exact-tie-breaking contract of the solver
// cannot be perturbed.
//
// Kernel preconditions: b0 < e, and every input in [b0, e) is finite (the
// solver only scans candidates whose previous-row cost is finite, and the
// cost table rejects non-finite counts).

/// Interval-length reciprocals rr are inflated by 1 + 2^-40 so that
/// (sum*sum) * rr >= fl((sum*sum) / length) under any rounding — including
/// any FMA contraction of the kernel expression: the inflation dominates
/// the relative rounding error of the reciprocal and of the product (each
/// ~2^-53) by orders of magnitude, while remaining far too small to cost
/// measurable pruning. This is what makes the squared bounds *certified* —
/// never above the exact candidate — rather than merely close (DESIGN §7
/// gives the full argument).
constexpr double kReciprocalInflate = 1.0 + 0x1p-40;

/// Slack that certifies SquaredBlockBounds: an upper bound on how far a
/// computed CostBetween(j, i) can fall below a computed CostBetween(j', i)
/// for j <= j', plus the rounding of the block bound's own sum. DESIGN §7
/// derives 32 * (sqrt(n) + 2) * 2^-53 * total_squares from the Kahan error
/// of the prefix tables and the rounding of the cost formula, where
/// `total_squares` is csq[m] (the prefix sum of squares over the whole
/// domain) and `n` the domain size in unit bins. The proof assumes
/// n <= 2^30; beyond that the slack is the largest double, so no block is
/// ever skipped.
inline double SquaredCostSlack(double total_squares, std::size_t n) {
  if (n > (std::size_t{1} << 30)) {
    return std::numeric_limits<double>::max();
  }
  return 32.0 * (std::sqrt(static_cast<double>(n)) + 2.0) * 0x1p-53 *
         total_squares;
}

/// Certified lower bounds for `blocks` blocks of squared-cost candidates
/// of one cell i (DESIGN §7). For each block q, end_sum[q] and end_sq[q]
/// are the prefix sum and sum of squares at the block's last candidate,
/// end_rr[q] the inflated reciprocal of that candidate's interval length
/// to i, and pmin[q] must not exceed prev[j] anywhere in the block. Writes
///   out[q] = (pmin[q] + max(0, (qi - end_sq[q])
///                              - (si - end_sum[q])^2 * end_rr[q])) - slack,
/// with slack = SquaredCostSlack(csq[m], n). An interval's SSE only grows
/// as its start moves left, so every candidate of the block costs at least
/// its last candidate's interval; `out[q]` never exceeds any
/// prev[j] + CostBetween(j, i) of block q.
void SquaredBlockBounds(const double* pmin, const double* end_sum,
                        const double* end_sq, const double* end_rr, double si,
                        double qi, double slack, std::size_t blocks,
                        double* out);

/// For every j in [b0, e), with e - b0 <= 64, writes the certified
/// lower bound
///   lb[j - b0] = max(prev[j], prev[j] + ((qi - csq[j]) - (si - csum[j])^2
///                                        * rr[j]))
/// on the squared-cost candidate prev[j] + CostBetween(j, i), where si/qi
/// are the prefix sum/sum of squares at i and rr[j] is the *inflated*
/// reciprocal of the interval length (kReciprocalInflate). Returns the
/// mask whose bit j - b0 is set iff lb[j - b0] <= ub: every candidate
/// whose exact value is at most ub has its bit set. The bound never
/// exceeds the exact candidate, for any rounding or FMA contraction of
/// this expression (DESIGN §7 gives the argument).
std::uint64_t SquaredCandidateMask(const double* prev, const double* csum,
                                   const double* csq, const double* rr,
                                   double si, double qi, double ub,
                                   std::size_t b0, std::size_t e, double* lb);

/// min over j in [b0, e) of prev[j] + col[j] — the *exact* candidate block
/// minimum for the absolute cost, where col is the packed triangular
/// column col[j] = AbsoluteAt(j, i) (IntervalCostTable::AbsoluteColumn).
/// The result is one of the sums it covers, bit for bit.
double AbsoluteCandidateBlockMin(const double* prev, const double* col,
                                 std::size_t b0, std::size_t e);

/// The leftmost j in [b0, e) with prev[j] + col[j] == bmin, or e when there
/// is none: the monotone absolute path's achiever of the exact block
/// minimum AbsoluteCandidateBlockMin returned. Each lane adds the same two
/// doubles as the scalar sum and compares them exactly, so the index is
/// the one a scalar scan finds (DESIGN §7).
std::size_t AbsoluteFirstMatch(const double* prev, const double* col,
                               std::size_t b0, std::size_t e, double bmin);

/// Exact minima of every absolute-cost column over aligned blocks of
/// `block` candidates, built once per solve for the absolute block bound
/// (DESIGN §7). With m = costs.num_candidates() and stride m / block + 1,
/// the result has (m + 1) * stride slots, and for every end candidate i in
/// [1, m] and every q with q * block < i
///   out[i * stride + q] = min of costs.AbsoluteColumn(i)[j]
///                         over j in [q * block, min(i, (q + 1) * block)).
/// The last block of a column is partial when block does not divide i.
/// Other slots are zero. Each minimum is one of the costs it covers.
/// Requires costs.kind() == CostKind::kAbsolute and block >= 1.
std::vector<double> AbsoluteColumnBlockMinima(const IntervalCostTable& costs,
                                              std::size_t block);

}  // namespace vopt_kernel
}  // namespace dphist

#endif  // DPHIST_HIST_VOPT_KERNEL_H_
