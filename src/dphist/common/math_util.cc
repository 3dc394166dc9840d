#include "dphist/common/math_util.h"

#include <bit>
#include <cmath>
#include <string>

namespace dphist {

std::size_t NextPowerOfTwo(std::size_t n) {
  if (n <= 1) {
    return 1;
  }
  return std::bit_ceil(n);
}

bool IsPowerOfTwo(std::size_t n) { return n != 0 && std::has_single_bit(n); }

std::uint32_t FloorLog2(std::size_t n) {
  if (n == 0) {
    return 0;
  }
  return static_cast<std::uint32_t>(std::bit_width(n) - 1);
}

std::uint32_t CeilLog2(std::size_t n) {
  if (n <= 1) {
    return 0;
  }
  return static_cast<std::uint32_t>(std::bit_width(n - 1));
}

std::uint32_t CeilLogBase(std::size_t n, std::size_t base) {
  if (n <= 1 || base < 2) {
    return 0;
  }
  std::uint32_t levels = 0;
  std::size_t reach = 1;
  while (reach < n) {
    // reach * base might overflow for adversarial inputs; detect and bail.
    if (reach > n / base + 1) {
      reach = n;
    } else {
      reach *= base;
    }
    ++levels;
  }
  return levels;
}

double Clamp(double v, double lo, double hi) {
  if (v < lo) {
    return lo;
  }
  if (v > hi) {
    return hi;
  }
  return v;
}

Status CheckFiniteCount(double count, const char* unit, std::uint64_t index) {
  if (std::isfinite(count)) {
    return Status::Ok();
  }
  const char* text = std::isnan(count) ? "nan" : count > 0.0 ? "+inf" : "-inf";
  return Status::InvalidArgument("count of " + std::string(unit) + " " +
                                 std::to_string(index) + " is " + text +
                                 "; counts must be finite");
}

std::vector<double> PrefixSums(const std::vector<double>& values) {
  std::vector<double> prefix(values.size() + 1, 0.0);
  KahanSum acc;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc.Add(values[i]);
    prefix[i + 1] = acc.Total();
  }
  return prefix;
}

std::vector<double> PrefixSumsOfSquares(const std::vector<double>& values) {
  std::vector<double> prefix(values.size() + 1, 0.0);
  KahanSum acc;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc.Add(values[i] * values[i]);
    prefix[i + 1] = acc.Total();
  }
  return prefix;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  KahanSum acc;
  for (double v : values) {
    acc.Add(v);
  }
  return acc.Total() / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0.0;
  }
  const double mean = Mean(values);
  KahanSum acc;
  for (double v : values) {
    const double d = v - mean;
    acc.Add(d * d);
  }
  return acc.Total() / static_cast<double>(values.size());
}

}  // namespace dphist
