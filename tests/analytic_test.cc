#include "dphist/metrics/analytic.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/grouping_smoothing.h"
#include "dphist/algorithms/identity_laplace.h"
#include "dphist/algorithms/privelet.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

// Empirical variance of the error of `query` over many releases.
template <typename Publisher>
double EmpiricalQueryVariance(const Publisher& publisher,
                              const Histogram& truth, const RangeQuery& query,
                              double epsilon, int reps, std::uint64_t seed) {
  Rng root(seed);
  const double true_answer =
      Histogram(truth).RangeSumUnchecked(query.begin, query.end);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < reps; ++i) {
    Rng rng = root.Fork();
    auto out = publisher.Publish(truth, epsilon, rng);
    EXPECT_TRUE(out.ok());
    const double err =
        out.value().RangeSumUnchecked(query.begin, query.end) - true_answer;
    sum += err;
    sum_sq += err * err;
  }
  const double mean = sum / reps;
  return sum_sq / reps - mean * mean;
}

TEST(AnalyticTest, ValidatesArguments) {
  EXPECT_FALSE(DworkRangeVariance(5, 0.0).ok());
  EXPECT_FALSE(PriveletRangeVariance(12, {0, 4}, 1.0).ok());   // not pow2
  EXPECT_FALSE(PriveletRangeVariance(16, {4, 4}, 1.0).ok());   // empty
  EXPECT_FALSE(PriveletRangeVariance(16, {0, 17}, 1.0).ok());  // overflow
  EXPECT_FALSE(PriveletRangeVariance(16, {0, 4}, -1.0).ok());
  EXPECT_FALSE(GroupedBinVariance(0, 1.0).ok());
  EXPECT_FALSE(GroupedBinVariance(4, 0.0).ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double epsilon :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(DworkRangeVariance(5, epsilon).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
    EXPECT_EQ(PriveletRangeVariance(16, {0, 4}, epsilon).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
    EXPECT_EQ(GroupedBinVariance(4, epsilon).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
  }
}

TEST(AnalyticTest, DworkFormulaValues) {
  EXPECT_DOUBLE_EQ(DworkRangeVariance(1, 1.0).value(), 2.0);
  EXPECT_DOUBLE_EQ(DworkRangeVariance(50, 0.5).value(), 400.0);
}

TEST(AnalyticTest, GroupedFormulaValues) {
  EXPECT_DOUBLE_EQ(GroupedBinVariance(1, 1.0).value(), 2.0);
  EXPECT_DOUBLE_EQ(GroupedBinVariance(8, 0.1).value(), 200.0 / 64.0);
}

TEST(AnalyticTest, DworkEmpiricalMatches) {
  const Histogram truth(std::vector<double>(64, 100.0));
  IdentityLaplace algo;
  const double epsilon = 0.5;
  for (const RangeQuery query : {RangeQuery{0, 1}, RangeQuery{10, 40},
                                 RangeQuery{0, 64}}) {
    const double analytic =
        DworkRangeVariance(query.length(), epsilon).value();
    const double empirical =
        EmpiricalQueryVariance(algo, truth, query, epsilon, 4000, 11);
    EXPECT_NEAR(empirical, analytic, 0.12 * analytic)
        << "[" << query.begin << "," << query.end << ")";
  }
}

TEST(AnalyticTest, PriveletEmpiricalMatches) {
  const std::size_t n = 64;
  const Histogram truth(std::vector<double>(n, 100.0));
  Privelet algo;
  const double epsilon = 0.5;
  for (const RangeQuery query :
       {RangeQuery{0, 1}, RangeQuery{5, 23}, RangeQuery{0, 64},
        RangeQuery{31, 33}}) {
    const double analytic =
        PriveletRangeVariance(n, query, epsilon).value();
    const double empirical =
        EmpiricalQueryVariance(algo, truth, query, epsilon, 4000, 13);
    EXPECT_NEAR(empirical, analytic, 0.12 * analytic)
        << "[" << query.begin << "," << query.end << ")";
  }
}

TEST(AnalyticTest, GroupedEmpiricalMatches) {
  const std::size_t n = 64;
  const Histogram truth(std::vector<double>(n, 100.0));
  GroupingSmoothing::Options options;
  options.group_size = 8;
  GroupingSmoothing algo(options);
  const double epsilon = 0.5;
  // A unit query inside one group sees exactly the per-bin variance.
  const double analytic = GroupedBinVariance(8, epsilon).value();
  const double empirical = EmpiricalQueryVariance(
      algo, truth, RangeQuery{3, 4}, epsilon, 4000, 17);
  EXPECT_NEAR(empirical, analytic, 0.12 * analytic);
}

TEST(AnalyticTest, PriveletBeatsDworkOnLongRangesAnalytically) {
  // The polylog-vs-linear separation, straight from the formulas.
  const std::size_t n = 1024;
  const double epsilon = 1.0;
  const RangeQuery full{0, n};
  const double privelet = PriveletRangeVariance(n, full, epsilon).value();
  const double dwork = DworkRangeVariance(n, epsilon).value();
  EXPECT_LT(privelet, dwork / 4.0);
  // ... while unit bins pay the polylog overhead.
  const RangeQuery unit{n / 2, n / 2 + 1};
  EXPECT_GT(PriveletRangeVariance(n, unit, epsilon).value(),
            DworkRangeVariance(1, epsilon).value());
}

TEST(AnalyticTest, PriveletVarianceGrowsPolylogInLength) {
  const std::size_t n = 1024;
  const double epsilon = 1.0;
  // Doubling the range length from an aligned start must grow the
  // variance far slower than the 2x of Dwork.
  const double var_256 =
      PriveletRangeVariance(n, {0, 256}, epsilon).value();
  const double var_512 =
      PriveletRangeVariance(n, {0, 512}, epsilon).value();
  EXPECT_LT(var_512, var_256 * 1.8);
}

}  // namespace
}  // namespace dphist
