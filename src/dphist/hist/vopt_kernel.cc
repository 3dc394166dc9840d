#include "dphist/hist/vopt_kernel.h"

#include <algorithm>
#include <limits>

// Runtime multi-versioning: the default clone keeps the portable baseline
// ABI while x86-64-v3/v4 clones use AVX2/AVX-512 where the CPU has them.
// GCC's IFUNC-based dispatch interacts poorly with the sanitizer
// runtimes' early interceptors, and the sanitizer jobs don't measure
// performance anyway, so clones are disabled there.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define DPHIST_VOPT_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define DPHIST_VOPT_KERNEL_CLONES
#endif

namespace dphist {
namespace vopt_kernel {

// The min/max reductions are written as ternaries rather than std::min:
// under this TU's finite-math flags GCC vectorizes the ternary form but
// treats the std::min call as a memory clobber and gives up.

DPHIST_VOPT_KERNEL_CLONES
void SquaredBlockBounds(const double* __restrict pmin,
                        const double* __restrict end_sum,
                        const double* __restrict end_sq,
                        const double* __restrict end_rr, double si, double qi,
                        double slack, std::size_t blocks,
                        double* __restrict out) {
  for (std::size_t q = 0; q < blocks; ++q) {
    const double sum = si - end_sum[q];
    const double cost = (qi - end_sq[q]) - (sum * sum) * end_rr[q];
    out[q] = (pmin[q] + (cost > 0.0 ? cost : 0.0)) - slack;
  }
}

// The mask is an OR reduction of per-lane bits, which GCC vectorizes with
// a variable shift by the lane index.
DPHIST_VOPT_KERNEL_CLONES
std::uint64_t SquaredCandidateMask(const double* __restrict prev,
                                   const double* __restrict csum,
                                   const double* __restrict csq,
                                   const double* __restrict rr, double si,
                                   double qi, double ub, std::size_t b0,
                                   std::size_t e, double* __restrict lb) {
  std::uint64_t mask = 0;
  for (std::size_t j = b0; j < e; ++j) {
    const double sum = si - csum[j];
    double bound = prev[j] + ((qi - csq[j]) - (sum * sum) * rr[j]);
    const double p = prev[j];
    bound = bound > p ? bound : p;
    lb[j - b0] = bound;
    mask |= static_cast<std::uint64_t>(bound <= ub) << (j - b0);
  }
  return mask;
}

DPHIST_VOPT_KERNEL_CLONES
double AbsoluteCandidateBlockMin(const double* __restrict prev,
                                 const double* __restrict col, std::size_t b0,
                                 std::size_t e) {
  double mn = std::numeric_limits<double>::max();
  for (std::size_t j = b0; j < e; ++j) {
    const double cand = prev[j] + col[j];
    mn = cand < mn ? cand : mn;
  }
  return mn;
}

// Scanned right to left so the last index written is the leftmost match;
// the select form is what GCC vectorizes (an early-exit loop is not).
DPHIST_VOPT_KERNEL_CLONES
std::size_t AbsoluteFirstMatch(const double* __restrict prev,
                               const double* __restrict col, std::size_t b0,
                               std::size_t e, double bmin) {
  std::size_t first = e;
  for (std::size_t j = e; j-- > b0;) {
    first = prev[j] + col[j] == bmin ? j : first;
  }
  return first;
}

DPHIST_VOPT_KERNEL_CLONES
std::vector<double> AbsoluteColumnBlockMinima(const IntervalCostTable& costs,
                                              std::size_t block) {
  const std::size_t m = costs.num_candidates();
  const std::size_t stride = m / block + 1;
  std::vector<double> out((m + 1) * stride, 0.0);
  for (std::size_t i = 1; i <= m; ++i) {
    const double* __restrict col = costs.AbsoluteColumn(i);
    double* __restrict row = out.data() + i * stride;
    for (std::size_t q = 0; q * block < i; ++q) {
      const std::size_t e = std::min(i, (q + 1) * block);
      double mn = std::numeric_limits<double>::max();
      for (std::size_t j = q * block; j < e; ++j) {
        mn = col[j] < mn ? col[j] : mn;
      }
      row[q] = mn;
    }
  }
  return out;
}

}  // namespace vopt_kernel
}  // namespace dphist
