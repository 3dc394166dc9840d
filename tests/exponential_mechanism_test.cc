#include "dphist/privacy/exponential_mechanism.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(ExponentialMechanismTest, RejectsBadParameters) {
  EXPECT_FALSE(ExponentialMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(1.0, 0.0).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(-1.0, -1.0).ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double epsilon :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(ExponentialMechanism::Create(epsilon, 1.0).status().code(),
              StatusCode::kInvalidArgument)
        << epsilon;
  }
}

TEST(ExponentialMechanismTest, EmptyCandidatesRejected) {
  auto em = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(em.ok());
  Rng rng(1);
  EXPECT_FALSE(em.value().Select({}, rng).ok());
  EXPECT_FALSE(em.value().SelectionProbabilities({}).ok());
}

TEST(ExponentialMechanismTest, SingleCandidateAlwaysSelected) {
  auto em = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(em.ok());
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    auto pick = em.value().Select({-5.0}, rng);
    ASSERT_TRUE(pick.ok());
    EXPECT_EQ(pick.value(), 0u);
  }
}

TEST(ExponentialMechanismTest, ProbabilitiesMatchDefinition) {
  auto em = ExponentialMechanism::Create(2.0, 1.0);
  ASSERT_TRUE(em.ok());
  const std::vector<double> utilities = {0.0, 1.0, 3.0};
  auto probs = em.value().SelectionProbabilities(utilities);
  ASSERT_TRUE(probs.ok());
  // p_i ∝ exp(eps * u_i / (2 * du)) = exp(u_i) here.
  const double z = std::exp(0.0) + std::exp(1.0) + std::exp(3.0);
  EXPECT_NEAR(probs.value()[0], std::exp(0.0) / z, 1e-12);
  EXPECT_NEAR(probs.value()[1], std::exp(1.0) / z, 1e-12);
  EXPECT_NEAR(probs.value()[2], std::exp(3.0) / z, 1e-12);
}

TEST(ExponentialMechanismTest, ProbabilitiesSumToOne) {
  auto em = ExponentialMechanism::Create(0.1, 2.0);
  ASSERT_TRUE(em.ok());
  auto probs =
      em.value().SelectionProbabilities({10.0, -3.0, 0.0, 8.5, 8.5});
  ASSERT_TRUE(probs.ok());
  double total = 0.0;
  for (double p : probs.value()) {
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExponentialMechanismTest, LargeUtilitiesAreStable) {
  auto em = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(em.ok());
  auto probs = em.value().SelectionProbabilities({1.0e6, 1.0e6 - 2.0});
  ASSERT_TRUE(probs.ok());
  EXPECT_TRUE(std::isfinite(probs.value()[0]));
  const double expected_second = 1.0 / (1.0 + std::exp(1.0));
  EXPECT_NEAR(probs.value()[1], expected_second, 1e-9);
}

TEST(ExponentialMechanismTest, EmpiricalFrequenciesMatchProbabilities) {
  auto em = ExponentialMechanism::Create(1.5, 1.0);
  ASSERT_TRUE(em.ok());
  const std::vector<double> utilities = {0.0, 2.0, 4.0, 4.0};
  auto probs = em.value().SelectionProbabilities(utilities);
  ASSERT_TRUE(probs.ok());
  Rng rng(3);
  std::vector<int> counts(utilities.size(), 0);
  const int reps = 200000;
  for (int i = 0; i < reps; ++i) {
    auto pick = em.value().Select(utilities, rng);
    ASSERT_TRUE(pick.ok());
    ++counts[pick.value()];
  }
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(reps), probs.value()[i],
                0.01);
  }
}

TEST(ExponentialMechanismTest, DpRatioAcrossNeighboringUtilities) {
  // The defining property: if two utility vectors differ by at most du per
  // entry (neighboring datasets), selection probabilities differ by at most
  // a factor e^eps.
  const double epsilon = 1.0;
  const double du = 1.0;
  auto em = ExponentialMechanism::Create(epsilon, du);
  ASSERT_TRUE(em.ok());
  const std::vector<double> u1 = {3.0, 0.0, 1.0, 2.0};
  std::vector<double> u2 = u1;
  for (std::size_t i = 0; i < u2.size(); ++i) {
    u2[i] += (i % 2 == 0) ? du : -du;  // worst-case +/- du wiggle
  }
  auto p1 = em.value().SelectionProbabilities(u1);
  auto p2 = em.value().SelectionProbabilities(u2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  for (std::size_t i = 0; i < u1.size(); ++i) {
    const double ratio = p1.value()[i] / p2.value()[i];
    EXPECT_LE(ratio, std::exp(epsilon) + 1e-9);
    EXPECT_GE(ratio, std::exp(-epsilon) - 1e-9);
  }
}

TEST(ExponentialMechanismTest, HigherEpsilonConcentratesOnOptimum) {
  const std::vector<double> utilities = {0.0, 1.0};
  auto weak = ExponentialMechanism::Create(0.1, 1.0);
  auto strong = ExponentialMechanism::Create(10.0, 1.0);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  auto p_weak = weak.value().SelectionProbabilities(utilities);
  auto p_strong = strong.value().SelectionProbabilities(utilities);
  ASSERT_TRUE(p_weak.ok());
  ASSERT_TRUE(p_strong.ok());
  EXPECT_GT(p_strong.value()[1], p_weak.value()[1]);
  EXPECT_GT(p_strong.value()[1], 0.99);
}

}  // namespace
}  // namespace dphist
