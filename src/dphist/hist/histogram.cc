#include "dphist/hist/histogram.h"

#include <cstring>
#include <utility>

#include "dphist/common/math_util.h"

namespace dphist {

Histogram::Histogram(std::vector<double> counts)
    : counts_(std::move(counts)) {}

Histogram::Histogram(const Histogram& other)
    : counts_(other.counts_),
      prefix_(other.prefix_),
      prefix_valid_(other.prefix_valid_.load(std::memory_order_acquire)) {}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this != &other) {
    counts_ = other.counts_;
    prefix_ = other.prefix_;
    prefix_valid_.store(other.prefix_valid_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  return *this;
}

Histogram::Histogram(Histogram&& other) noexcept
    : counts_(std::move(other.counts_)),
      prefix_(std::move(other.prefix_)),
      prefix_valid_(other.prefix_valid_.load(std::memory_order_acquire)) {
  other.prefix_valid_.store(false, std::memory_order_release);
}

Histogram& Histogram::operator=(Histogram&& other) noexcept {
  if (this != &other) {
    counts_ = std::move(other.counts_);
    prefix_ = std::move(other.prefix_);
    prefix_valid_.store(other.prefix_valid_.load(std::memory_order_acquire),
                        std::memory_order_release);
    other.prefix_valid_.store(false, std::memory_order_release);
  }
  return *this;
}

Histogram Histogram::Zeros(std::size_t num_bins) {
  return Histogram(std::vector<double>(num_bins, 0.0));
}

void Histogram::set_count(std::size_t i, double value) {
  counts_[i] = value;
  prefix_valid_.store(false, std::memory_order_release);
}

void Histogram::Add(std::size_t i, double delta) {
  counts_[i] += delta;
  prefix_valid_.store(false, std::memory_order_release);
}

double Histogram::Total() const {
  EnsurePrefix();
  return prefix_.back();
}

Result<double> Histogram::RangeSum(std::size_t begin, std::size_t end) const {
  if (begin > end || end > counts_.size()) {
    return Status::InvalidArgument("RangeSum: invalid range");
  }
  return RangeSumUnchecked(begin, end);
}

double Histogram::RangeSumUnchecked(std::size_t begin,
                                    std::size_t end) const {
  EnsurePrefix();
  return prefix_[end] - prefix_[begin];
}

std::vector<double> Histogram::ToDistribution() const {
  std::vector<double> dist(counts_.size(), 0.0);
  KahanSum total;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    dist[i] = counts_[i] > 0.0 ? counts_[i] : 0.0;
    total.Add(dist[i]);
  }
  if (dist.empty()) {
    return dist;
  }
  if (total.Total() <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(dist.size());
    for (double& p : dist) {
      p = uniform;
    }
    return dist;
  }
  for (double& p : dist) {
    p /= total.Total();
  }
  return dist;
}

void Histogram::EnsurePrefix() const {
  // Once-init: the acquire load pairs with the release store below, so a
  // reader that sees `true` also sees the fully built table. Concurrent
  // first readers serialize on the mutex; exactly one builds.
  if (prefix_valid_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(prefix_mutex_);
  if (prefix_valid_.load(std::memory_order_relaxed)) {
    return;
  }
  prefix_ = PrefixSums(counts_);
  prefix_valid_.store(true, std::memory_order_release);
}

Status CheckFiniteCounts(const std::vector<double>& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    DPHIST_RETURN_IF_ERROR(CheckFiniteCount(counts[i], "bin", i));
  }
  return Status::Ok();
}

std::uint64_t FingerprintHistogram(const Histogram& histogram) {
  // FNV-1a over the size and the raw double bits of every count. Bit-level
  // (not value-level) identity: -0.0 vs 0.0 or different NaN payloads are
  // different inputs to a publisher and must not alias.
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  auto mix = [](std::uint64_t hash, std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffULL;
      hash *= kPrime;
    }
    return hash;
  };
  std::uint64_t hash = mix(kOffset, histogram.size());
  for (const double count : histogram.counts()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &count, sizeof(bits));
    hash = mix(hash, bits);
  }
  return hash;
}

}  // namespace dphist
