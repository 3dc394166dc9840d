// SparseHistogram core invariants: construction validation, exact range
// sums against a naive loop and, bit for bit, against a std::lower_bound
// search over the keys (the bucket index must not change one answer),
// aggregation from raw records, fingerprint sensitivity, and the CSV
// round-trip with its typed parse failures.

#include "dphist/sparse/sparse_histogram.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/math_util.h"
#include "dphist/common/status.h"
#include "dphist/sparse/sparse_csv.h"

namespace dphist {
namespace sparse {
namespace {

std::vector<SparseEntry> SampleEntries() {
  return {{2, 1.5}, {5, -0.25}, {9, 4.0}, {1ULL << 40, 7.0}};
}

TEST(SparseHistogramTest, CreateAcceptsSortedInDomainEntries) {
  auto histogram = SparseHistogram::Create(1ULL << 41, SampleEntries());
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  EXPECT_EQ(histogram.value().domain_size(), 1ULL << 41);
  EXPECT_EQ(histogram.value().stored_keys(), 4u);
}

TEST(SparseHistogramTest, CreateAcceptsEmptyEntries) {
  auto histogram = SparseHistogram::Create(10, {});
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  EXPECT_EQ(histogram.value().stored_keys(), 0u);
  EXPECT_DOUBLE_EQ(histogram.value().Total(), 0.0);
}

TEST(SparseHistogramTest, CreateRejectsDuplicateKeys) {
  auto histogram = SparseHistogram::Create(10, {{3, 1.0}, {3, 2.0}});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, CreateRejectsUnsortedKeys) {
  auto histogram = SparseHistogram::Create(10, {{5, 1.0}, {3, 2.0}});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, CreateRejectsOutOfDomainKey) {
  auto histogram = SparseHistogram::Create(10, {{10, 1.0}});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, CreateRejectsZeroDomain) {
  auto histogram = SparseHistogram::Create(0, {});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, CreateRejectsDomainPastMaximum) {
  EXPECT_TRUE(SparseHistogram::Create(kMaxSparseDomain, {}).ok());
  auto histogram = SparseHistogram::Create(kMaxSparseDomain + 1, {});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, CountForReadsStoredAndImplicitKeys) {
  auto histogram = SparseHistogram::Create(1ULL << 41, SampleEntries());
  ASSERT_TRUE(histogram.ok());
  EXPECT_DOUBLE_EQ(histogram.value().CountFor(2), 1.5);
  EXPECT_DOUBLE_EQ(histogram.value().CountFor(5), -0.25);
  EXPECT_DOUBLE_EQ(histogram.value().CountFor(1ULL << 40), 7.0);
  EXPECT_DOUBLE_EQ(histogram.value().CountFor(3), 0.0);
  EXPECT_DOUBLE_EQ(histogram.value().CountFor((1ULL << 41) - 1), 0.0);
  // Past the domain also reads 0.
  EXPECT_DOUBLE_EQ(histogram.value().CountFor(~0ULL), 0.0);
}

TEST(SparseHistogramTest, TotalSumsAllStoredCounts) {
  auto histogram = SparseHistogram::Create(1ULL << 41, SampleEntries());
  ASSERT_TRUE(histogram.ok());
  EXPECT_DOUBLE_EQ(histogram.value().Total(), 1.5 - 0.25 + 4.0 + 7.0);
}

TEST(SparseHistogramTest, RangeSumMatchesNaiveLoopOnSmallDomain) {
  auto histogram = SparseHistogram::Create(
      16, {{1, 2.0}, {3, -1.0}, {4, 0.5}, {9, 3.0}, {15, 1.0}});
  ASSERT_TRUE(histogram.ok());
  for (std::uint64_t begin = 0; begin <= 16; ++begin) {
    for (std::uint64_t end = begin; end <= 16; ++end) {
      double naive = 0.0;
      for (std::uint64_t key = begin; key < end; ++key) {
        naive += histogram.value().CountFor(key);
      }
      auto sum = histogram.value().RangeSum(begin, end);
      ASSERT_TRUE(sum.ok()) << "[" << begin << ", " << end << ")";
      EXPECT_DOUBLE_EQ(sum.value(), naive)
          << "[" << begin << ", " << end << ")";
      EXPECT_DOUBLE_EQ(histogram.value().RangeSumUnchecked(begin, end), naive);
    }
  }
}

TEST(SparseHistogramTest, RangeSumSpansHugeDomains) {
  auto histogram = SparseHistogram::Create(kMaxSparseDomain, SampleEntries());
  ASSERT_TRUE(histogram.ok());
  auto everything = histogram.value().RangeSum(0, kMaxSparseDomain);
  ASSERT_TRUE(everything.ok());
  EXPECT_DOUBLE_EQ(everything.value(), histogram.value().Total());
  auto tail = histogram.value().RangeSum(10, kMaxSparseDomain);
  ASSERT_TRUE(tail.ok());
  EXPECT_DOUBLE_EQ(tail.value(), 7.0);
}

TEST(SparseHistogramTest, RangeSumRejectsInvalidBounds) {
  auto histogram = SparseHistogram::Create(10, {{3, 1.0}});
  ASSERT_TRUE(histogram.ok());
  auto reversed = histogram.value().RangeSum(5, 2);
  ASSERT_FALSE(reversed.ok());
  EXPECT_EQ(reversed.status().code(), StatusCode::kInvalidArgument);
  auto past_domain = histogram.value().RangeSum(0, 11);
  ASSERT_FALSE(past_domain.ok());
  EXPECT_EQ(past_domain.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseHistogramTest, DefaultConstructedIsAValidEmptyHistogram) {
  const SparseHistogram histogram;
  EXPECT_EQ(histogram.domain_size(), 0u);
  EXPECT_EQ(histogram.stored_keys(), 0u);
  EXPECT_EQ(histogram.Total(), 0.0);
  EXPECT_EQ(histogram.CountFor(0), 0.0);
  auto empty = histogram.RangeSum(0, 0);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(histogram.RangeSumUnchecked(0, 0), 0.0);
  EXPECT_FALSE(histogram.RangeSum(0, 1).ok());
}

// RangeSumUnchecked as it was before the bucket index: two std::lower_bound
// searches over the sorted keys into the same Kahan prefix sums.
class LowerBoundReference {
 public:
  explicit LowerBoundReference(const std::vector<SparseEntry>& entries) {
    std::vector<double> counts;
    for (const SparseEntry& entry : entries) {
      keys_.push_back(entry.key);
      counts.push_back(entry.count);
    }
    prefix_ = PrefixSums(counts);
  }

  double RangeSum(std::uint64_t begin, std::uint64_t end) const {
    return prefix_[Lower(end)] - prefix_[Lower(begin)];
  }

 private:
  std::size_t Lower(std::uint64_t key) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  std::vector<std::uint64_t> keys_;
  std::vector<double> prefix_;
};

void ExpectBitIdentical(double actual, double expected, std::uint64_t begin,
                        std::uint64_t end) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << "[" << begin << ", " << end << "): " << actual << " vs "
      << expected;
}

// Every endpoint that can sit on a bucket or key boundary — 0, the domain,
// each key and each key +- 1 — paired with 0, with the domain, and with
// its neighbours in the sorted endpoint list, plus seeded random pairs.
void ExpectMatchesLowerBoundReference(std::uint64_t domain,
                                      const std::vector<SparseEntry>& entries) {
  auto created = SparseHistogram::Create(domain, entries);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const SparseHistogram& histogram = created.value();
  const LowerBoundReference reference(entries);
  std::vector<std::uint64_t> endpoints = {0, domain};
  for (const SparseEntry& entry : entries) {
    endpoints.push_back(entry.key);
    endpoints.push_back(entry.key + 1);
    if (entry.key > 0) {
      endpoints.push_back(entry.key - 1);
    }
    EXPECT_EQ(histogram.CountFor(entry.key), entry.count);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  const auto check = [&](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t begin = std::min(a, b);
    const std::uint64_t end = std::max(a, b);
    ExpectBitIdentical(histogram.RangeSumUnchecked(begin, end),
                       reference.RangeSum(begin, end), begin, end);
  };
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    check(0, endpoints[i]);
    check(endpoints[i], domain);
    if (i + 1 < endpoints.size()) {
      check(endpoints[i], endpoints[i + 1]);
    }
  }
  std::mt19937_64 rng(domain ^ entries.size());
  for (int trial = 0; trial < 2000; ++trial) {
    check(endpoints[rng() % endpoints.size()],
          endpoints[rng() % endpoints.size()]);
  }
}

// `count` distinct sorted keys drawn from [low, low + span), with counts
// whose prefix sums round (no two alike, some negative, some tiny).
std::vector<SparseEntry> RandomEntries(std::size_t count, std::uint64_t low,
                                       std::uint64_t span, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<std::uint64_t> keys;
  while (keys.size() < count) {
    keys.insert(low + rng() % span);
  }
  std::vector<SparseEntry> entries;
  for (const std::uint64_t key : keys) {
    const double count_value =
        static_cast<double>(static_cast<std::int64_t>(rng() % 2001) - 1000) /
        7.0;
    entries.push_back(SparseEntry{key, count_value});
  }
  return entries;
}

TEST(SparseHistogramTest, RangeSumsMatchLowerBoundReferenceBitwise) {
  const std::uint64_t kTop = 1ULL << 63;
  // Domain 1: empty, and its one key.
  ExpectMatchesLowerBoundReference(1, {});
  ExpectMatchesLowerBoundReference(1, {{0, 2.5}});
  for (const std::uint64_t domain : {std::uint64_t{1} << 40, kTop}) {
    ExpectMatchesLowerBoundReference(domain, {});
    ExpectMatchesLowerBoundReference(domain, {{domain - 1, -1.25}});
    ExpectMatchesLowerBoundReference(domain, {{0, 3.0}});
    ExpectMatchesLowerBoundReference(domain,
                                     RandomEntries(1025, 0, domain, domain));
    // The edges of the key space: the first and last keys of the domain.
    std::vector<SparseEntry> edges = RandomEntries(1021, 2, domain - 4, 7);
    edges.insert(edges.begin(), {{0, 1.0}, {1, 0.1}});
    edges.push_back({domain - 2, 0.2});
    edges.push_back({domain - 1, 0.3});
    ExpectMatchesLowerBoundReference(domain, edges);
  }
}

TEST(SparseHistogramTest, ClusteredKeysMatchLowerBoundReferenceBitwise) {
  // Keys packed into one bucket's span (and into a dense run) degrade the
  // index to one search over every key; answers must not change.
  const std::uint64_t domain = 1ULL << 40;
  ExpectMatchesLowerBoundReference(
      domain, RandomEntries(1025, 1ULL << 39, 1ULL << 20, 3));
  ExpectMatchesLowerBoundReference(domain, RandomEntries(1025, 12345, 1025, 4));
  ExpectMatchesLowerBoundReference(1ULL << 63,
                                   RandomEntries(1025, 0, 1ULL << 30, 5));
  // A small domain, where every key has a bucket of its own.
  ExpectMatchesLowerBoundReference(2000, RandomEntries(1025, 0, 2000, 6));
}

TEST(SparseHistogramTest, FromRecordsAggregatesMultiset) {
  auto histogram =
      SparseHistogram::FromRecords(100, {7, 3, 7, 99, 7, 3});
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  const std::vector<SparseEntry> expected = {{3, 2.0}, {7, 3.0}, {99, 1.0}};
  EXPECT_EQ(histogram.value().entries(), expected);
}

TEST(SparseHistogramTest, FromRecordsRejectsOutOfDomainRecord) {
  auto histogram = SparseHistogram::FromRecords(100, {7, 100});
  ASSERT_FALSE(histogram.ok());
  EXPECT_EQ(histogram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseFingerprintTest, SensitiveToDomainKeysAndCountBits) {
  auto base = SparseHistogram::Create(1000, {{1, 2.0}, {5, 3.0}});
  auto other_domain = SparseHistogram::Create(1001, {{1, 2.0}, {5, 3.0}});
  auto other_key = SparseHistogram::Create(1000, {{1, 2.0}, {6, 3.0}});
  // -0.0 == 0.0 as doubles but differs in bit pattern; the fingerprint
  // must see the bits, not the compare.
  auto plus_zero = SparseHistogram::Create(1000, {{1, 0.0}});
  auto minus_zero = SparseHistogram::Create(1000, {{1, -0.0}});
  ASSERT_TRUE(base.ok() && other_domain.ok() && other_key.ok() &&
              plus_zero.ok() && minus_zero.ok());
  const std::uint64_t fp = FingerprintSparseHistogram(base.value());
  EXPECT_EQ(fp, FingerprintSparseHistogram(base.value()));
  EXPECT_NE(fp, FingerprintSparseHistogram(other_domain.value()));
  EXPECT_NE(fp, FingerprintSparseHistogram(other_key.value()));
  EXPECT_NE(FingerprintSparseHistogram(plus_zero.value()),
            FingerprintSparseHistogram(minus_zero.value()));
}

class SparseCsvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) {
      std::remove(path_.c_str());
    }
  }

  // One file per test: ctest runs each case as its own process, so cases
  // of this fixture can run at the same time under `ctest -j`.
  const std::string& WriteFile(const std::string& contents) {
    path_ = ::testing::TempDir() + "/sparse_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    std::ofstream out(path_);
    out << contents;
    return path_;
  }

  std::string path_;
};

TEST_F(SparseCsvTest, SaveLoadRoundTripsExactly) {
  auto histogram = SparseHistogram::Create(
      kMaxSparseDomain,
      {{0, 1.5}, {42, -2.25}, {kMaxSparseDomain - 1, 0.125}});
  ASSERT_TRUE(histogram.ok());
  const std::string path = ::testing::TempDir() + "/sparse_roundtrip.csv";
  ASSERT_TRUE(SaveSparseHistogramCsv(histogram.value(), path).ok());
  auto loaded = LoadSparseHistogramCsv(path, kMaxSparseDomain);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == histogram.value());
}

TEST_F(SparseCsvTest, ParsesCommentsAndBlankLines) {
  const std::string& path = WriteFile(
      "# sparse histogram\n"
      "\n"
      "3,2.5\n"
      "  # indented comment\n"
      "17,4\n");
  auto loaded = LoadSparseHistogramCsv(path, 100);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<SparseEntry> expected = {{3, 2.5}, {17, 4.0}};
  EXPECT_EQ(loaded.value().entries(), expected);
}

TEST_F(SparseCsvTest, KeyOverflowingU64IsInvalidArgument) {
  // 2^64 = 18446744073709551616 does not fit a uint64; parsing through a
  // double would silently round instead of failing.
  const std::string& path = WriteFile("18446744073709551616,1\n");
  auto loaded = LoadSparseHistogramCsv(path, 100);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SparseCsvTest, MalformedLinesAreParseErrors) {
  for (const char* bad : {"nokey\n", "1;2\n", "1,\n", "1,notanumber\n",
                          "1,2,3trailing\n", "-1,2\n"}) {
    const std::string& path = WriteFile(bad);
    auto loaded = LoadSparseHistogramCsv(path, 100);
    ASSERT_FALSE(loaded.ok()) << "accepted: " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "line: " << bad << " -> " << loaded.status().ToString();
  }
}

TEST_F(SparseCsvTest, KeyPastDomainIsInvalidArgument) {
  const std::string& path = WriteFile("100,1\n");
  auto loaded = LoadSparseHistogramCsv(path, 100);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SparseCsvTest, MissingFileIsNotFound) {
  auto loaded =
      LoadSparseHistogramCsv(::testing::TempDir() + "/does_not_exist.csv", 10);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sparse
}  // namespace dphist
