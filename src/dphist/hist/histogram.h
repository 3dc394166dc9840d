#ifndef DPHIST_HIST_HISTOGRAM_H_
#define DPHIST_HIST_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"

namespace dphist {

/// \brief A one-dimensional histogram over an ordered domain of unit bins.
///
/// This is the object the paper publishes: `counts()[i]` is the (possibly
/// noisy) number of records whose attribute falls in the i-th unit bin of
/// the domain. Range sums are answered in O(1) from a prefix table, which
/// is built at most once after the last mutation.
///
/// Thread safety: const accessors (including the lazily-sealing
/// `RangeSum*`/`Total`) are safe to call concurrently from any number of
/// threads — the prefix table is built under an internal mutex and
/// published through an acquire/release flag, so exactly one caller builds
/// it and every other caller either sees the finished table or waits for
/// it (never a torn one). Mutators (`set_count`, `Add`, assignment)
/// require exclusive access, the usual C++ const-correctness contract.
/// Serving code seals the prefix eagerly at publish time (`SealPrefix`) so
/// the hot read path is a single relaxed-ish atomic load plus two array
/// reads, with no lock and no lazy state.
class Histogram {
 public:
  /// Creates an empty histogram (zero bins).
  Histogram() = default;

  /// Creates a histogram with the given unit-bin counts. Counts may be
  /// fractional or negative (noisy histograms are both).
  explicit Histogram(std::vector<double> counts);

  /// Copy/move preserve counts and any already-built prefix table; the
  /// internal synchronization state is fresh per object (a mutex is not
  /// copyable). Copying or moving FROM a histogram requires the same
  /// exclusive access as any other read racing no writer.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);
  Histogram(Histogram&& other) noexcept;
  Histogram& operator=(Histogram&& other) noexcept;

  /// Creates a zeroed histogram with `num_bins` bins.
  static Histogram Zeros(std::size_t num_bins);

  /// Number of unit bins.
  std::size_t size() const { return counts_.size(); }
  /// True iff the histogram has no bins.
  bool empty() const { return counts_.empty(); }

  /// The unit-bin counts.
  const std::vector<double>& counts() const { return counts_; }

  /// The count of bin `i`. Requires i < size().
  double count(std::size_t i) const { return counts_[i]; }

  /// Sets the count of bin `i` and invalidates the prefix table.
  /// Requires exclusive access (see class comment).
  void set_count(std::size_t i, double value);

  /// Adds `delta` to bin `i` and invalidates the prefix table.
  /// Requires exclusive access (see class comment).
  void Add(std::size_t i, double delta);

  /// Builds the prefix table now if it is not already valid. Publishing
  /// paths call this once before a histogram becomes a shared immutable
  /// release, so every subsequent concurrent reader takes the lock-free
  /// fast path. Safe (and cheap) to call repeatedly or concurrently.
  void SealPrefix() const { EnsurePrefix(); }

  /// Sum of all counts.
  double Total() const;

  /// Sum of counts in the half-open range [begin, end).
  /// Returns InvalidArgument unless begin <= end <= size().
  Result<double> RangeSum(std::size_t begin, std::size_t end) const;

  /// Like RangeSum but with unchecked bounds (for hot loops where the
  /// workload was validated up front). Requires begin <= end <= size().
  double RangeSumUnchecked(std::size_t begin, std::size_t end) const;

  /// Returns counts normalized to sum to 1, after clamping negatives to 0.
  /// If every clamped count is zero, returns the uniform distribution.
  /// Useful for distribution-level metrics (KL divergence).
  std::vector<double> ToDistribution() const;

 private:
  void EnsurePrefix() const;

  std::vector<double> counts_;
  // Prefix sums, built at most once per mutation epoch:
  // prefix_[i] = sum of counts_[0..i). Guarded by the once-init protocol:
  // written under prefix_mutex_, published by the release-store of
  // prefix_valid_, and immutable while prefix_valid_ is true.
  mutable std::vector<double> prefix_;
  mutable std::atomic<bool> prefix_valid_{false};
  mutable std::mutex prefix_mutex_;
};

/// Returns kInvalidArgument naming the first bin whose count is NaN or
/// infinite, and OK when every count is finite. Every dense publisher, the
/// interval-cost build and ReleaseServer::AddDataset check this: a NaN
/// count would otherwise publish an all-NaN release (and a NaN mean scores
/// its interval's absolute cost as 0).
Status CheckFiniteCounts(const std::vector<double>& counts);

/// 64-bit FNV-1a fingerprint of a histogram's exact bit pattern (size and
/// every count's double bits). Two histograms share a fingerprint iff they
/// are bit-identical, which is the identity both a release cache and a
/// publisher's data-only stage need: the same truth gives the same
/// deterministic release and the same prepared tables.
std::uint64_t FingerprintHistogram(const Histogram& histogram);

}  // namespace dphist

#endif  // DPHIST_HIST_HISTOGRAM_H_
