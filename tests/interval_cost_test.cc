#include "dphist/hist/interval_cost.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/hist/fenwick.h"
#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

double NaiveMean(const std::vector<double>& x, std::size_t b, std::size_t e) {
  double sum = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    sum += x[i];
  }
  return sum / static_cast<double>(e - b);
}

double NaiveSse(const std::vector<double>& x, std::size_t b, std::size_t e) {
  const double mu = NaiveMean(x, b, e);
  double sse = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    sse += (x[i] - mu) * (x[i] - mu);
  }
  return sse;
}

double NaiveSae(const std::vector<double>& x, std::size_t b, std::size_t e) {
  const double mu = NaiveMean(x, b, e);
  double sae = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    sae += std::abs(x[i] - mu);
  }
  return sae;
}

std::vector<double> RandomCounts(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counts(n, 0.0);
  for (double& c : counts) {
    c = static_cast<double>(SampleUniformInt(rng, 0, 100));
  }
  return counts;
}

// The absolute-cost sweep as it stood before the rank cursor and the fused
// walk: a binary search for mu's rank at every cell, then separate
// SumUpTo/CountUpTo walks. Kept as the bitwise reference for the
// triangle; returns the packed columns in AbsoluteColumn order.
std::vector<double> ReferenceAbsoluteTriangle(const std::vector<double>& counts,
                                              std::size_t grid_step) {
  std::vector<std::size_t> positions;
  for (std::size_t p = 0; p < counts.size(); p += grid_step) {
    positions.push_back(p);
  }
  positions.push_back(counts.size());
  const std::size_t m = positions.size();
  std::vector<double> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<double> triangle(m * (m - 1) / 2, 0.0);
  RankedFenwick fenwick(sorted.size());
  for (std::size_t b = 1; b < m; ++b) {
    fenwick.Clear();
    double* column = &triangle[b * (b - 1) / 2];
    const std::size_t end = positions[b];
    std::size_t a = b;
    for (std::size_t j = end; j-- > 0;) {
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), counts[j]) -
          sorted.begin());
      fenwick.Insert(rank, counts[j]);
      if (a > 0 && positions[a - 1] == j) {
        --a;
        const double length = static_cast<double>(end - positions[a]);
        const double total = fenwick.SumUpTo(sorted.size() - 1);
        const double mu = total / length;
        const auto it = std::upper_bound(sorted.begin(), sorted.end(), mu);
        double below_sum = 0.0;
        double below_count = 0.0;
        if (it != sorted.begin()) {
          const std::size_t le =
              static_cast<std::size_t>(it - sorted.begin()) - 1;
          below_sum = fenwick.SumUpTo(le);
          below_count = static_cast<double>(fenwick.CountUpTo(le));
        }
        const double above_sum = total - below_sum;
        const double above_count = length - below_count;
        const double cost =
            (mu * below_count - below_sum) + (above_sum - mu * above_count);
        column[a] = cost > 0.0 ? cost : 0.0;
      }
    }
  }
  return triangle;
}

struct TriangleInput {
  std::string label;
  std::vector<double> counts;
  std::size_t grid_step;
};

std::vector<TriangleInput> TriangleInputs() {
  std::vector<TriangleInput> inputs;
  // The herd build: StructureFirst scores the true trace counts (few
  // distinct values, so the cursor barely moves).
  inputs.push_back({"herd", MakeNetTrace(1024, 42).histogram.counts(), 1});
  // The cold_publish counts: the trace plus epsilon = 0.1 Laplace noise,
  // 1024 distinct values, so the cursor walks in both directions.
  std::vector<double> cold = MakeNetTrace(1024, 42).histogram.counts();
  Rng cold_rng(5);
  for (double& c : cold) {
    c += SampleLaplace(cold_rng, 10.0);
  }
  inputs.push_back({"cold_noisy", std::move(cold), 1});
  Rng rng(77);
  std::vector<double> laplace(400);
  for (double& c : laplace) {
    c = 3.25 + SampleLaplace(rng, 2.0);
  }
  inputs.push_back({"laplace", std::move(laplace), 1});
  std::vector<double> negative(300);
  for (double& c : negative) {
    c = -static_cast<double>(SampleUniformInt(rng, 0, 40)) - 0.5;
  }
  inputs.push_back({"negative", std::move(negative), 1});
  std::vector<double> big(300);
  for (double& c : big) {
    c = 1e8 + static_cast<double>(SampleUniformInt(rng, 0, 9));
  }
  inputs.push_back({"1e8_plus_small", std::move(big), 1});
  inputs.push_back({"all_equal", std::vector<double>(200, 7.0), 1});
  inputs.push_back({"single_bin", {42.5}, 1});
  inputs.push_back({"grid3_off_grid_end", RandomCounts(301, 16), 3});
  return inputs;
}

// The triangle must be bit-identical to the reference sweep for every
// finite input, at any pool width (min_parallel_candidates = 1 so the
// four-worker pool really splits the columns).
TEST(IntervalCostTest, AbsoluteTriangleMatchesReferenceSweepBitwise) {
  for (const TriangleInput& input : TriangleInputs()) {
    const std::vector<double> want =
        ReferenceAbsoluteTriangle(input.counts, input.grid_step);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(width);
      IntervalCostTable::Options options;
      options.kind = CostKind::kAbsolute;
      options.grid_step = input.grid_step;
      options.pool = &pool;
      options.min_parallel_candidates = 1;
      auto table = IntervalCostTable::Create(input.counts, options);
      ASSERT_TRUE(table.ok()) << input.label;
      const std::size_t m = table.value().num_candidates();
      ASSERT_EQ(want.size(), (m + 1) * m / 2) << input.label;
      std::size_t mismatches = 0;
      for (std::size_t b = 1; b <= m; ++b) {
        const double* column = table.value().AbsoluteColumn(b);
        for (std::size_t a = 0; a < b; ++a) {
          const double expected = want[b * (b - 1) / 2 + a];
          if (std::bit_cast<std::uint64_t>(column[a]) !=
                  std::bit_cast<std::uint64_t>(expected) &&
              mismatches++ < 5) {
            ADD_FAILURE() << input.label << " width " << width << " cell ("
                          << a << ", " << b << "): " << column[a]
                          << " != reference " << expected;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << input.label << " width " << width;
    }
  }
}

// NaN or infinite counts are refused for both cost kinds: a NaN mean once
// scored its interval's absolute cost as 0, and the rank cursor and the
// solver's finite-math kernels assume finite counts.
TEST(IntervalCostTest, RejectsNonFiniteCounts) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const CostKind kind : {CostKind::kSquared, CostKind::kAbsolute}) {
      std::vector<double> counts = RandomCounts(16, 17);
      counts[5] = bad;
      IntervalCostTable::Options options;
      options.kind = kind;
      auto table = IntervalCostTable::Create(counts, options);
      ASSERT_FALSE(table.ok()) << bad << " " << CostKindName(kind);
      EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(table.status().message().find("bin 5"), std::string::npos)
          << table.status().message();
    }
  }
}

TEST(IntervalCostTest, RejectsEmptyAndZeroGrid) {
  IntervalCostTable::Options options;
  EXPECT_FALSE(IntervalCostTable::Create({}, options).ok());
  options.grid_step = 0;
  EXPECT_FALSE(IntervalCostTable::Create({1.0}, options).ok());
}

TEST(IntervalCostTest, PositionsCoverDomain) {
  IntervalCostTable::Options options;
  options.grid_step = 3;
  auto table = IntervalCostTable::Create(RandomCounts(10, 1), options);
  ASSERT_TRUE(table.ok());
  const std::vector<std::size_t> expected = {0, 3, 6, 9, 10};
  EXPECT_EQ(table.value().positions(), expected);
  EXPECT_EQ(table.value().num_candidates(), 4u);
}

TEST(IntervalCostTest, PositionsWhenGridDividesDomain) {
  IntervalCostTable::Options options;
  options.grid_step = 5;
  auto table = IntervalCostTable::Create(RandomCounts(10, 2), options);
  ASSERT_TRUE(table.ok());
  const std::vector<std::size_t> expected = {0, 5, 10};
  EXPECT_EQ(table.value().positions(), expected);
}

TEST(IntervalCostTest, SquaredMatchesNaiveAllIntervals) {
  const std::vector<double> counts = RandomCounts(24, 3);
  IntervalCostTable::Options options;
  options.kind = CostKind::kSquared;
  auto table = IntervalCostTable::Create(counts, options);
  ASSERT_TRUE(table.ok());
  const auto& positions = table.value().positions();
  for (std::size_t a = 0; a + 1 < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      EXPECT_NEAR(table.value().CostBetween(a, b),
                  NaiveSse(counts, positions[a], positions[b]), 1e-6)
          << "interval [" << positions[a] << "," << positions[b] << ")";
    }
  }
}

TEST(IntervalCostTest, AbsoluteMatchesNaiveAllIntervals) {
  const std::vector<double> counts = RandomCounts(24, 4);
  IntervalCostTable::Options options;
  options.kind = CostKind::kAbsolute;
  auto table = IntervalCostTable::Create(counts, options);
  ASSERT_TRUE(table.ok());
  const auto& positions = table.value().positions();
  for (std::size_t a = 0; a + 1 < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      EXPECT_NEAR(table.value().CostBetween(a, b),
                  NaiveSae(counts, positions[a], positions[b]), 1e-6)
          << "interval [" << positions[a] << "," << positions[b] << ")";
    }
  }
}

TEST(IntervalCostTest, AbsoluteWithGridMatchesNaive) {
  const std::vector<double> counts = RandomCounts(30, 5);
  IntervalCostTable::Options options;
  options.kind = CostKind::kAbsolute;
  options.grid_step = 4;
  auto table = IntervalCostTable::Create(counts, options);
  ASSERT_TRUE(table.ok());
  const auto& positions = table.value().positions();
  for (std::size_t a = 0; a + 1 < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      EXPECT_NEAR(table.value().CostBetween(a, b),
                  NaiveSae(counts, positions[a], positions[b]), 1e-6);
    }
  }
}

TEST(IntervalCostTest, NegativeCountsSupported) {
  // Noisy histograms have negative counts; both cost kinds must handle
  // them (NoiseFirst runs the DP on noisy data).
  std::vector<double> counts = {-3.5, 2.0, -1.0, 4.0, 0.0, -2.25};
  for (CostKind kind : {CostKind::kSquared, CostKind::kAbsolute}) {
    IntervalCostTable::Options options;
    options.kind = kind;
    auto table = IntervalCostTable::Create(counts, options);
    ASSERT_TRUE(table.ok());
    for (std::size_t a = 0; a < counts.size(); ++a) {
      for (std::size_t b = a + 1; b <= counts.size(); ++b) {
        const double want = kind == CostKind::kSquared
                                ? NaiveSse(counts, a, b)
                                : NaiveSae(counts, a, b);
        EXPECT_NEAR(table.value().CostBetween(a, b), want, 1e-9);
      }
    }
  }
}

TEST(IntervalCostTest, ConstantIntervalHasZeroCost) {
  const std::vector<double> counts(16, 7.0);
  for (CostKind kind : {CostKind::kSquared, CostKind::kAbsolute}) {
    IntervalCostTable::Options options;
    options.kind = kind;
    auto table = IntervalCostTable::Create(counts, options);
    ASSERT_TRUE(table.ok());
    EXPECT_DOUBLE_EQ(table.value().CostBetween(0, 16), 0.0);
    EXPECT_DOUBLE_EQ(table.value().CostBetween(3, 9), 0.0);
  }
}

TEST(IntervalCostTest, MeanOfMatchesNaive) {
  const std::vector<double> counts = RandomCounts(12, 6);
  IntervalCostTable::Options options;
  auto table = IntervalCostTable::Create(counts, options);
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table.value().MeanOf(2, 9), NaiveMean(counts, 2, 9), 1e-9);
  EXPECT_NEAR(table.value().MeanOf(0, 12), NaiveMean(counts, 0, 12), 1e-9);
}

TEST(IntervalCostTest, SquaredCostOfAvailableForAbsoluteTables) {
  const std::vector<double> counts = RandomCounts(12, 7);
  IntervalCostTable::Options options;
  options.kind = CostKind::kAbsolute;
  auto table = IntervalCostTable::Create(counts, options);
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table.value().SquaredCostOf(1, 10), NaiveSse(counts, 1, 10),
              1e-6);
}

TEST(IntervalCostTest, CellCapEnforced) {
  IntervalCostTable::Options options;
  options.kind = CostKind::kAbsolute;
  options.max_table_cells = 16;  // packed triangle m(m-1)/2 must fit
  auto table = IntervalCostTable::Create(RandomCounts(64, 8), options);
  EXPECT_FALSE(table.ok());
  options.grid_step = 32;  // m+1 == 3 candidates -> fits
  auto coarse = IntervalCostTable::Create(RandomCounts(64, 8), options);
  EXPECT_TRUE(coarse.ok());
}

TEST(IntervalCostTest, CellCapExactTriangleBoundary) {
  // The absolute store is the packed a < b triangle over the m positions:
  // exactly m(m-1)/2 doubles. The cap must bite at that exact count — one
  // cell under fails, the exact size passes — so this test breaks if the
  // storage ever silently grows back to the dense m^2 matrix.
  const std::vector<double> counts = RandomCounts(16, 14);
  IntervalCostTable::Options options;
  options.kind = CostKind::kAbsolute;
  const std::size_t positions = counts.size() + 1;  // grid_step 1
  const std::size_t triangle = positions * (positions - 1) / 2;
  options.max_table_cells = triangle;
  EXPECT_TRUE(IntervalCostTable::Create(counts, options).ok());
  options.max_table_cells = triangle - 1;
  EXPECT_FALSE(IntervalCostTable::Create(counts, options).ok());
}

TEST(IntervalCostTest, PackedTriangleMatchesRecomputationEverywhere) {
  // Regression guard for the packed layout: every stored cell, read both
  // through CostBetween and through the raw column pointer the DP kernels
  // use, must equal a from-scratch SAE recomputation. An off-by-one in the
  // b(b-1)/2 column offsets would corrupt neighboring intervals rather
  // than fail loudly, so the sweep covers the full triangle including the
  // a = 0 column starts and the b = m-1 last column.
  for (const std::size_t grid_step : {std::size_t{1}, std::size_t{3}}) {
    const std::vector<double> counts = RandomCounts(41, 15);
    IntervalCostTable::Options options;
    options.kind = CostKind::kAbsolute;
    options.grid_step = grid_step;
    auto table = IntervalCostTable::Create(counts, options);
    ASSERT_TRUE(table.ok());
    const auto& positions = table.value().positions();
    for (std::size_t b = 1; b < positions.size(); ++b) {
      const double* column = table.value().AbsoluteColumn(b);
      for (std::size_t a = 0; a < b; ++a) {
        const double want = NaiveSae(counts, positions[a], positions[b]);
        EXPECT_NEAR(table.value().CostBetween(a, b), want, 1e-9)
            << "grid=" << grid_step << " a=" << a << " b=" << b;
        // The packed column and the checked accessor must read the same
        // cell (bitwise — both index the same array).
        EXPECT_EQ(column[a], table.value().CostBetween(a, b))
            << "grid=" << grid_step << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(IntervalCostTest, CostKindNames) {
  EXPECT_STREQ(CostKindName(CostKind::kSquared), "squared");
  EXPECT_STREQ(CostKindName(CostKind::kAbsolute), "absolute");
}

}  // namespace
}  // namespace dphist
