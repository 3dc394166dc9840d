#ifndef DPHIST_SPARSE_SPARSE_HISTOGRAM_H_
#define DPHIST_SPARSE_SPARSE_HISTOGRAM_H_

/// \file
/// \brief Sparse histogram: sorted key -> count pairs over a domain whose
/// size d may vastly exceed the number of stored keys (d up to 2^63).
///
/// The dense `Histogram` materializes every bin, which is unusable for
/// high-cardinality domains (URLs, user IDs). `SparseHistogram` stores only
/// the keys with an explicit count; every other key implicitly holds 0.
/// Range sums share the half-open `[begin, end)` semantics of the dense
/// `Histogram::RangeSum`: the difference of two entries of a
/// Kahan-compensated prefix-sum table, each found by a radix bucket index
/// on the key's top bits and a search inside one bucket (DESIGN §12).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"

namespace dphist {
namespace sparse {

/// Largest domain size a SparseHistogram may span. Capped at 2^63 so that
/// any valid key or domain also fits in a signed 64-bit integer, keeping
/// arithmetic like `end - begin` free of unsigned wrap surprises in
/// downstream consumers.
inline constexpr std::uint64_t kMaxSparseDomain = 1ULL << 63;

/// One stored key with its count. Counts are doubles so that released
/// (noisy, possibly negative) histograms reuse the same representation as
/// true-count inputs.
struct SparseEntry {
  std::uint64_t key = 0;
  double count = 0.0;

  friend bool operator==(const SparseEntry& a, const SparseEntry& b) {
    return a.key == b.key && a.count == b.count;
  }
};

class SparseHistogram {
 public:
  /// An empty histogram over a zero-sized domain. Invalid for publishing;
  /// exists so the type is default-constructible for containers. Its one
  /// valid range, `[0, 0)`, sums to 0.
  SparseHistogram() : SparseHistogram(0, {}) {}

  /// Validates and adopts `entries` over a domain of `domain_size` keys
  /// `[0, domain_size)`. Entries must be strictly increasing by key (sorted,
  /// no duplicates) and every key must be `< domain_size`. Returns a typed
  /// `kInvalidArgument` otherwise, or when `domain_size` is 0 or exceeds
  /// 2^63, or when there are 2^32 entries or more (the wire format's entry
  /// count is a u32, and such a histogram would need over 64 GiB).
  static Result<SparseHistogram> Create(std::uint64_t domain_size,
                                        std::vector<SparseEntry> entries);

  /// Builds a sparse histogram from a multiset of raw record keys: each
  /// occurrence of a key contributes 1.0 to its count. Keys may arrive in
  /// any order with repeats. Rejects keys `>= domain_size`.
  static Result<SparseHistogram> FromRecords(std::uint64_t domain_size,
                                             std::vector<std::uint64_t> keys);

  std::uint64_t domain_size() const { return domain_size_; }

  /// The explicitly stored entries, strictly increasing by key.
  const std::vector<SparseEntry>& entries() const { return entries_; }

  /// Number of explicitly stored keys (k), not the domain size.
  std::size_t stored_keys() const { return entries_.size(); }

  /// The count at `key`: the stored value, or 0.0 when absent. Keys at or
  /// beyond the domain also read as 0.0 (matching a dense histogram padded
  /// with nothing).
  double CountFor(std::uint64_t key) const;

  /// Sum of all stored counts.
  double Total() const;

  /// Sum over the half-open key range `[begin, end)`. Requires
  /// `begin <= end <= domain_size()`; typed `kInvalidArgument` otherwise.
  Result<double> RangeSum(std::uint64_t begin, std::uint64_t end) const;

  /// `RangeSum` without bounds checking; caller guarantees
  /// `begin <= end <= domain_size()`. Each endpoint costs one index read
  /// and a search inside one bucket, O(1) for keys spread over the domain
  /// and O(log k) at worst, when every key shares a bucket.
  double RangeSumUnchecked(std::uint64_t begin, std::uint64_t end) const {
    return prefix_[LowerBound(end)] - prefix_[LowerBound(begin)];
  }

  friend bool operator==(const SparseHistogram& a, const SparseHistogram& b) {
    return a.domain_size_ == b.domain_size_ && a.entries_ == b.entries_;
  }

 private:
  SparseHistogram(std::uint64_t domain_size, std::vector<SparseEntry> entries);

  // Index of the first stored key >= `key`, for `key <= domain_size()`.
  // Every key of an earlier bucket is smaller than `key` and every key of a
  // later one larger, so the answer lies among `key`'s bucket and the key
  // after it (the next bucket's first, or the sentinel). A binary search
  // over those whose step is a select, not a branch, finds it.
  std::size_t LowerBound(std::uint64_t key) const {
    const std::uint64_t bucket = key >> shift_;
    const std::uint64_t* base = keys_.data() + bucket_start_[bucket];
    std::size_t n = bucket_start_[bucket + 1] - bucket_start_[bucket] + 1;
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half] < key ? base + half : base;
      n -= half;
    }
    return static_cast<std::size_t>(base - keys_.data()) + (*base < key);
  }

  std::uint64_t domain_size_ = 0;
  std::vector<SparseEntry> entries_;
  // keys_[i] = entries_[i].key, packed for the search, then a sentinel
  // larger than any endpoint: size k + 1.
  std::vector<std::uint64_t> keys_;
  // prefix_[i] = Kahan-compensated sum of entries_[0..i), size k + 1.
  std::vector<double> prefix_;
  // The radix bucket index: bucket b holds the keys with key >> shift_ == b,
  // starting at keys_[bucket_start_[b]]. It has a bucket for every
  // endpoint in [0, domain_size_], plus a closing entry equal to k.
  std::vector<std::uint32_t> bucket_start_;
  unsigned shift_ = 0;
};

/// kInvalidArgument naming the first stored key whose count is NaN or
/// infinite (the message of the dense `CheckFiniteCounts`, with "key" for
/// "bin"), OK when every count is finite. Sparse publishers and
/// `ReleaseServer::AddSparseDataset` check it: a non-finite count would
/// otherwise release an infinite count and a NaN total.
Status CheckFiniteCounts(const SparseHistogram& histogram);

/// 64-bit FNV-1a fingerprint over the domain size, keys, and count bit
/// patterns. Fills the same role for sparse datasets as
/// `FingerprintHistogram` does for dense ones: journal records carry
/// it so `ReleaseServer::Recover` can refuse replays against a different
/// dataset.
std::uint64_t FingerprintSparseHistogram(const SparseHistogram& histogram);

}  // namespace sparse
}  // namespace dphist

#endif  // DPHIST_SPARSE_SPARSE_HISTOGRAM_H_
