#include "dphist/sparse/sparse_histogram.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "dphist/common/math_util.h"

namespace dphist {
namespace sparse {

SparseHistogram::SparseHistogram(std::uint64_t domain_size,
                                 std::vector<SparseEntry> entries)
    : domain_size_(domain_size), entries_(std::move(entries)) {
  std::vector<double> counts;
  counts.reserve(entries_.size());
  keys_.reserve(entries_.size() + 1);
  for (const SparseEntry& entry : entries_) {
    keys_.push_back(entry.key);
    counts.push_back(entry.count);
  }
  keys_.push_back(std::numeric_limits<std::uint64_t>::max());
  prefix_ = PrefixSums(counts);

  // 2^bit_width(k) buckets, between one and two per stored key, over the
  // top bits of the largest key the domain holds. The endpoint
  // `domain_size_` itself lands at most one bucket past those, so the
  // table has at most 2k + 3 entries.
  const int index_bits = std::bit_width(entries_.size());
  const int key_bits = domain_size_ == 0 ? 0 : std::bit_width(domain_size_ - 1);
  shift_ = static_cast<unsigned>(std::max(key_bits - index_bits, 0));
  bucket_start_.assign((domain_size_ >> shift_) + 2, 0);
  for (const SparseEntry& entry : entries_) {
    ++bucket_start_[(entry.key >> shift_) + 1];
  }
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
}

Result<SparseHistogram> SparseHistogram::Create(
    std::uint64_t domain_size, std::vector<SparseEntry> entries) {
  if (domain_size == 0) {
    return Status::InvalidArgument("sparse histogram: domain size must be >= 1");
  }
  if (domain_size > kMaxSparseDomain) {
    return Status::InvalidArgument(
        "sparse histogram: domain size " + std::to_string(domain_size) +
        " exceeds the 2^63 maximum");
  }
  if (entries.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "sparse histogram: " + std::to_string(entries.size()) +
        " entries exceed the 2^32 - 1 maximum");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key >= domain_size) {
      return Status::InvalidArgument(
          "sparse histogram: key " + std::to_string(entries[i].key) +
          " at entry " + std::to_string(i) + " is outside the domain of size " +
          std::to_string(domain_size));
    }
    if (i > 0 && entries[i].key <= entries[i - 1].key) {
      return Status::InvalidArgument(
          "sparse histogram: keys must be strictly increasing, but entry " +
          std::to_string(i) + " has key " + std::to_string(entries[i].key) +
          " after " + std::to_string(entries[i - 1].key));
    }
  }
  return SparseHistogram(domain_size, std::move(entries));
}

Result<SparseHistogram> SparseHistogram::FromRecords(
    std::uint64_t domain_size, std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<SparseEntry> entries;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    entries.push_back(SparseEntry{keys[i], static_cast<double>(j - i)});
    i = j;
  }
  return Create(domain_size, std::move(entries));
}

double SparseHistogram::CountFor(std::uint64_t key) const {
  if (key >= domain_size_) return 0.0;
  const std::size_t i = LowerBound(key);
  return keys_[i] == key ? entries_[i].count : 0.0;
}

double SparseHistogram::Total() const { return prefix_.back(); }

Result<double> SparseHistogram::RangeSum(std::uint64_t begin,
                                         std::uint64_t end) const {
  if (begin > end || end > domain_size_) {
    return Status::InvalidArgument(
        "sparse histogram: range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") is invalid for domain size " +
        std::to_string(domain_size_));
  }
  return RangeSumUnchecked(begin, end);
}

Status CheckFiniteCounts(const SparseHistogram& histogram) {
  for (const SparseEntry& entry : histogram.entries()) {
    DPHIST_RETURN_IF_ERROR(CheckFiniteCount(entry.count, "key", entry.key));
  }
  return Status::Ok();
}

std::uint64_t FingerprintSparseHistogram(const SparseHistogram& histogram) {
  // FNV-1a over the domain size, then each (key, count-bit-pattern) pair —
  // the same construction as FingerprintHistogram, extended with the
  // key stream so permuting counts across keys changes the fingerprint.
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  const std::uint64_t domain = histogram.domain_size();
  mix(&domain, sizeof(domain));
  for (const SparseEntry& entry : histogram.entries()) {
    mix(&entry.key, sizeof(entry.key));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(entry.count), "double must be 64-bit");
    std::memcpy(&bits, &entry.count, sizeof(bits));
    mix(&bits, sizeof(bits));
  }
  return hash;
}

}  // namespace sparse
}  // namespace dphist
