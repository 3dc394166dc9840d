#ifndef DPHIST_COMMON_MATH_UTIL_H_
#define DPHIST_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dphist/common/status.h"

namespace dphist {

/// \brief Numerical helpers shared across dphist.
///
/// All functions are pure and allocation behaviour is documented per
/// function. Prefix-table helpers use Kahan (compensated) summation so that
/// interval statistics over long, large-count histograms stay accurate.

/// Returns the smallest power of two >= `n`; returns 1 for n == 0.
std::size_t NextPowerOfTwo(std::size_t n);

/// Returns true iff `n` is a (positive) power of two.
bool IsPowerOfTwo(std::size_t n);

/// Returns floor(log2(n)) for n >= 1; returns 0 for n == 0.
std::uint32_t FloorLog2(std::size_t n);

/// Returns ceil(log2(n)) for n >= 1; returns 0 for n <= 1.
std::uint32_t CeilLog2(std::size_t n);

/// Returns ceil(log_base(n)) for n >= 1 and base >= 2; 0 for n <= 1.
std::uint32_t CeilLogBase(std::size_t n, std::size_t base);

/// Clamps `v` into [lo, hi]. Requires lo <= hi.
double Clamp(double v, double lo, double hi);

/// OK when `count` is finite; otherwise the kInvalidArgument that every
/// finite-count check reports, naming the count's place: "count of
/// <unit> <index> is nan; counts must be finite" (unit "bin" for dense
/// histograms, "key" for sparse ones).
Status CheckFiniteCount(double count, const char* unit, std::uint64_t index);

/// \brief Compensated (Kahan) accumulator for summing many doubles.
class KahanSum {
 public:
  /// Adds `v` to the running sum.
  void Add(double v) {
    double y = v - compensation_;
    double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  /// The current compensated total.
  double Total() const { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Returns prefix sums p of `values`: p[0] = 0, p[i] = sum of values[0..i).
/// Uses compensated summation. The returned vector has size values.size()+1.
std::vector<double> PrefixSums(const std::vector<double>& values);

/// Returns prefix sums of squares: p[i] = sum of values[j]^2 for j < i.
std::vector<double> PrefixSumsOfSquares(const std::vector<double>& values);

/// Returns the arithmetic mean of `values`; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// Returns the (population) variance of `values`; 0 for size < 2.
double Variance(const std::vector<double>& values);

}  // namespace dphist

#endif  // DPHIST_COMMON_MATH_UTIL_H_
