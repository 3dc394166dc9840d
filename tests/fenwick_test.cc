#include "dphist/hist/fenwick.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(FenwickTest, EmptyTree) {
  RankedFenwick tree(8);
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_DOUBLE_EQ(tree.TotalSum(), 0.0);
  EXPECT_EQ(tree.CountUpTo(7), 0);
}

TEST(FenwickTest, SingleInsert) {
  RankedFenwick tree(8);
  tree.Insert(3, 2.5);
  EXPECT_EQ(tree.CountUpTo(2), 0);
  EXPECT_EQ(tree.CountUpTo(3), 1);
  EXPECT_EQ(tree.CountUpTo(7), 1);
  EXPECT_DOUBLE_EQ(tree.SumUpTo(3), 2.5);
  EXPECT_DOUBLE_EQ(tree.SumUpTo(2), 0.0);
}

TEST(FenwickTest, InsertRemoveCancels) {
  RankedFenwick tree(4);
  tree.Insert(1, 5.0);
  tree.Insert(2, 7.0);
  tree.Remove(1, 5.0);
  EXPECT_EQ(tree.TotalCount(), 1);
  EXPECT_DOUBLE_EQ(tree.TotalSum(), 7.0);
  EXPECT_EQ(tree.CountUpTo(1), 0);
}

TEST(FenwickTest, ClearResets) {
  RankedFenwick tree(4);
  tree.Insert(0, 1.0);
  tree.Insert(3, 2.0);
  tree.Clear();
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_DOUBLE_EQ(tree.TotalSum(), 0.0);
  tree.Insert(2, 4.0);
  EXPECT_DOUBLE_EQ(tree.SumUpTo(2), 4.0);
}

// Regression: the seed implementation's Insert/Remove loops never executed
// for rank >= num_ranks(), silently dropping the value and leaving
// TotalCount/TotalSum quietly wrong. The contract is now a hard abort, so
// these death tests fail against the pre-fix code (which no-ops and
// returns normally).
TEST(FenwickDeathTest, InsertOutOfRangeAborts) {
  RankedFenwick tree(4);
  tree.Insert(3, 9.0);
  EXPECT_DEATH_IF_SUPPORTED(tree.Insert(4, 1.0), "Insert.*out of range");
  EXPECT_DEATH_IF_SUPPORTED(tree.Insert(100, 1.0), "Insert.*out of range");
}

TEST(FenwickDeathTest, RemoveOutOfRangeAborts) {
  RankedFenwick tree(4);
  tree.Insert(2, 5.0);
  EXPECT_DEATH_IF_SUPPORTED(tree.Remove(4, 5.0), "Remove.*out of range");
}

// Queries used to clamp an out-of-range rank to the last one, answering
// for a rank the caller never asked about; they now share the update
// contract.
TEST(FenwickDeathTest, QueryOutOfRangeAborts) {
  RankedFenwick tree(4);
  tree.Insert(3, 9.0);
  EXPECT_DEATH_IF_SUPPORTED(tree.CountUpTo(4), "CountUpTo.*out of range");
  EXPECT_DEATH_IF_SUPPORTED(tree.SumUpTo(100), "SumUpTo.*out of range");
}

TEST(FenwickDeathTest, CountAndSumBelowOutOfRangeAborts) {
  RankedFenwick tree(4);
  tree.Insert(3, 9.0);
  EXPECT_EQ(tree.CountAndSumBelow(4).count, 1);  // a rank count: 4 is valid
  EXPECT_DEATH_IF_SUPPORTED(tree.CountAndSumBelow(5),
                            "CountAndSumBelow.*out of range");
}

// The fused walk is the only prefix walk: CountUpTo/SumUpTo(r - 1) and
// TotalSum must be the same nodes added in the same order, which shows on
// non-integer values as bitwise equality. The shadow node array (summed
// in insertion order, walked high index to low) pins that order
// independently of the class, so a reordered walk fails here even though
// it would still agree with itself.
TEST(FenwickTest, CountAndSumBelowIsThePrefixWalkBitwise) {
  for (const std::size_t ranks :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64},
        std::size_t{100}}) {
    RankedFenwick tree(ranks);
    std::vector<std::int64_t> node_count(ranks + 1, 0);
    std::vector<double> node_sum(ranks + 1, 0.0);
    Rng rng(2000 + ranks);
    for (int op = 0; op < 300; ++op) {
      const std::size_t rank = SampleIndex(rng, ranks);
      const double value = SampleLaplace(rng, 1e3) + 0.1;
      tree.Insert(rank, value);
      for (std::size_t i = rank + 1; i <= ranks; i += i & (~i + 1)) {
        node_count[i] += 1;
        node_sum[i] += value;
      }
    }
    for (std::size_t r = 0; r <= ranks; ++r) {
      std::int64_t want_count = 0;
      double want_sum = 0.0;
      for (std::size_t i = r; i > 0; i -= i & (~i + 1)) {
        want_count += node_count[i];
        want_sum += node_sum[i];
      }
      const RankedFenwick::CountAndSum below = tree.CountAndSumBelow(r);
      EXPECT_EQ(below.count, want_count) << "ranks=" << ranks << " r=" << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(below.sum),
                std::bit_cast<std::uint64_t>(want_sum))
          << "ranks=" << ranks << " r=" << r;
      if (r > 0) {
        EXPECT_EQ(below.count, tree.CountUpTo(r - 1));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(below.sum),
                  std::bit_cast<std::uint64_t>(tree.SumUpTo(r - 1)))
            << "ranks=" << ranks << " r=" << r;
      } else {
        EXPECT_EQ(below.count, 0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(below.sum),
                  std::bit_cast<std::uint64_t>(0.0));
      }
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.TotalSum()),
              std::bit_cast<std::uint64_t>(tree.SumUpTo(ranks - 1)));
    EXPECT_EQ(tree.TotalCount(), 300);
  }
}

TEST(FenwickTest, LastRankQueryStillReturnsTotals) {
  RankedFenwick tree(4);
  tree.Insert(3, 9.0);
  tree.Insert(0, 1.0);
  EXPECT_EQ(tree.CountUpTo(3), 2);
  EXPECT_DOUBLE_EQ(tree.SumUpTo(3), 10.0);
  EXPECT_EQ(tree.TotalCount(), 2);
  EXPECT_DOUBLE_EQ(tree.TotalSum(), 10.0);
}

// Property sweep: random insert/remove traces agree with a naive
// multiset implementation across sizes.
class FenwickPropertySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FenwickPropertySweep, MatchesNaiveReference) {
  const std::size_t ranks = GetParam();
  RankedFenwick tree(ranks);
  std::vector<std::int64_t> naive_count(ranks, 0);
  std::vector<double> naive_sum(ranks, 0.0);
  Rng rng(1000 + ranks);
  for (int op = 0; op < 500; ++op) {
    const std::size_t rank = SampleIndex(rng, ranks);
    const double value = static_cast<double>(SampleUniformInt(rng, -20, 20));
    if (naive_count[rank] > 0 && SampleUniformDouble(rng) < 0.3) {
      tree.Remove(rank, naive_sum[rank] / naive_count[rank]);
      naive_sum[rank] -= naive_sum[rank] / naive_count[rank];
      naive_count[rank] -= 1;
    } else {
      tree.Insert(rank, value);
      naive_count[rank] += 1;
      naive_sum[rank] += value;
    }
    // Check a few prefix queries.
    for (std::size_t q = 0; q < ranks; q += (ranks / 4) + 1) {
      std::int64_t want_count = 0;
      double want_sum = 0.0;
      for (std::size_t r = 0; r <= q; ++r) {
        want_count += naive_count[r];
        want_sum += naive_sum[r];
      }
      EXPECT_EQ(tree.CountUpTo(q), want_count);
      EXPECT_NEAR(tree.SumUpTo(q), want_sum, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FenwickPropertySweep,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 33, 100));

}  // namespace
}  // namespace dphist
