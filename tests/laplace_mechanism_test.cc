#include "dphist/privacy/laplace_mechanism.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(LaplaceMechanismTest, RejectsBadParameters) {
  EXPECT_FALSE(LaplaceMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(-1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, 0.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, -2.0).ok());
  // An infinite epsilon would release the exact value (scale 0).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double epsilon :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(LaplaceMechanism::Create(epsilon, 1.0).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
  }
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  auto mech = LaplaceMechanism::Create(0.5, 2.0);
  ASSERT_TRUE(mech.ok());
  EXPECT_DOUBLE_EQ(mech.value().scale(), 4.0);
  EXPECT_DOUBLE_EQ(mech.value().epsilon(), 0.5);
  EXPECT_DOUBLE_EQ(mech.value().sensitivity(), 2.0);
  EXPECT_DOUBLE_EQ(mech.value().noise_variance(), 32.0);
}

TEST(LaplaceMechanismTest, PerturbIsUnbiased) {
  auto mech = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(1);
  const double truth = 100.0;
  double sum = 0.0;
  const int reps = 200000;
  for (int i = 0; i < reps; ++i) {
    sum += mech.value().Perturb(truth, rng);
  }
  EXPECT_NEAR(sum / reps, truth, 0.05);
}

TEST(LaplaceMechanismTest, EmpiricalVarianceMatches) {
  const double epsilon = 0.5;
  auto mech = LaplaceMechanism::Create(epsilon, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(2);
  double sum_sq = 0.0;
  const int reps = 200000;
  for (int i = 0; i < reps; ++i) {
    const double noise = mech.value().Perturb(0.0, rng);
    sum_sq += noise * noise;
  }
  EXPECT_NEAR(sum_sq / reps, mech.value().noise_variance(),
              0.05 * mech.value().noise_variance());
}

TEST(LaplaceMechanismTest, VectorPerturbationKeepsShape) {
  auto mech = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(3);
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> noisy = mech.value().PerturbVector(values, rng);
  ASSERT_EQ(noisy.size(), values.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    any_changed |= noisy[i] != values[i];
  }
  EXPECT_TRUE(any_changed);
}

TEST(LaplaceMechanismTest, DeterministicGivenSeed) {
  auto mech = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng_a(77);
  Rng rng_b(77);
  const std::vector<double> values(16, 5.0);
  EXPECT_EQ(mech.value().PerturbVector(values, rng_a),
            mech.value().PerturbVector(values, rng_b));
}

TEST(LaplaceMechanismTest, DpLikelihoodRatioHolds) {
  // Empirically check the defining inequality on an interval event:
  // for neighboring values v and v+1 (sensitivity 1), the probability of
  // landing in [v-0.5, v+0.5] differs by at most e^eps (with slack for
  // sampling error).
  const double epsilon = 1.0;
  auto mech = LaplaceMechanism::Create(epsilon, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(4);
  const int reps = 300000;
  int hits_v = 0;
  int hits_w = 0;
  for (int i = 0; i < reps; ++i) {
    if (std::abs(mech.value().Perturb(0.0, rng)) <= 0.5) {
      ++hits_v;
    }
    if (std::abs(mech.value().Perturb(1.0, rng)) <= 0.5) {
      ++hits_w;
    }
  }
  const double ratio = static_cast<double>(hits_v) / hits_w;
  EXPECT_LT(ratio, std::exp(epsilon) * 1.05);
  EXPECT_GT(ratio, 1.0);  // shifted distribution is strictly less likely
}

}  // namespace
}  // namespace dphist
