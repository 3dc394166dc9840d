#include "dphist/privacy/budget.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "dphist/common/math_util.h"
#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(BudgetTest, StartsEmpty) {
  BudgetAccountant budget(1.0);
  EXPECT_DOUBLE_EQ(budget.total_epsilon(), 1.0);
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.0);
  EXPECT_DOUBLE_EQ(budget.remaining_epsilon(), 1.0);
  EXPECT_TRUE(budget.charges().empty());
}

TEST(BudgetTest, SequentialChargesAccumulate) {
  BudgetAccountant budget(1.0);
  EXPECT_TRUE(budget.ChargeSequential(0.3, "structure").ok());
  EXPECT_TRUE(budget.ChargeSequential(0.5, "counts").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.8);
  EXPECT_NEAR(budget.remaining_epsilon(), 0.2, 1e-12);
}

TEST(BudgetTest, NonFiniteEpsilonIsRefusedAndTheBudgetStillBinds) {
  // A NaN passes `epsilon <= 0`; recorded, it would make the spent sum
  // NaN, after which no charge is ever refused.
  BudgetAccountant budget(1.0);
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(budget.ChargeSequential(epsilon, "seq").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(budget.ChargeParallel(epsilon, "group", "par").code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(budget.charges().empty());
  EXPECT_EQ(budget.spent_epsilon(), 0.0);
  EXPECT_TRUE(budget.ChargeSequential(0.9, "a").ok());
  EXPECT_EQ(budget.ChargeSequential(0.2, "b").code(),
            StatusCode::kResourceExhausted);
}

TEST(BudgetTest, RejectsOverspend) {
  BudgetAccountant budget(1.0);
  EXPECT_TRUE(budget.ChargeSequential(0.9, "a").ok());
  const Status s = budget.ChargeSequential(0.2, "b");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Failed charge must not be recorded.
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.9);
}

TEST(BudgetTest, RejectsNonPositiveCharge) {
  BudgetAccountant budget(1.0);
  EXPECT_FALSE(budget.ChargeSequential(0.0, "zero").ok());
  EXPECT_FALSE(budget.ChargeSequential(-0.1, "neg").ok());
}

TEST(BudgetTest, ExactSplitIntoManyPartsFits) {
  // epsilon/k charged k times must not trip the budget due to rounding.
  BudgetAccountant budget(1.0);
  const int k = 37;
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(budget.ChargeSequential(1.0 / k, "part").ok());
  }
  EXPECT_NEAR(budget.spent_epsilon(), 1.0, 1e-9);
}

TEST(BudgetTest, ParallelChargesCountOnceAtMax) {
  BudgetAccountant budget(1.0);
  EXPECT_TRUE(budget.ChargeParallel(0.4, "bins", "bin 0").ok());
  EXPECT_TRUE(budget.ChargeParallel(0.4, "bins", "bin 1").ok());
  EXPECT_TRUE(budget.ChargeParallel(0.6, "bins", "bin 2").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.6);
}

TEST(BudgetTest, DistinctParallelGroupsAdd) {
  BudgetAccountant budget(1.0);
  EXPECT_TRUE(budget.ChargeParallel(0.4, "bins", "b").ok());
  EXPECT_TRUE(budget.ChargeParallel(0.5, "tree", "t").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.9);
}

TEST(BudgetTest, ParallelOverspendRollsBack) {
  BudgetAccountant budget(1.0);
  EXPECT_TRUE(budget.ChargeSequential(0.7, "counts").ok());
  EXPECT_FALSE(budget.ChargeParallel(0.5, "bins", "bin").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.7);
  EXPECT_EQ(budget.charges().size(), 1u);
}

TEST(BudgetTest, MixedCompositionMatchesTheory) {
  // StructureFirst-style ledger: k-1 EM draws (sequential) + one parallel
  // group of bucket counts.
  BudgetAccountant budget(1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        budget.ChargeSequential(0.5 / 4, "em boundary " + std::to_string(i))
            .ok());
  }
  for (int b = 0; b < 5; ++b) {
    EXPECT_TRUE(
        budget.ChargeParallel(0.5, "buckets", "bucket " + std::to_string(b))
            .ok());
  }
  EXPECT_NEAR(budget.spent_epsilon(), 1.0, 1e-9);
  EXPECT_NEAR(budget.remaining_epsilon(), 0.0, 1e-9);
}

TEST(BudgetTest, NonPositiveTotalMeansNothingFits) {
  BudgetAccountant budget(-1.0);
  EXPECT_DOUBLE_EQ(budget.total_epsilon(), 0.0);
  EXPECT_FALSE(budget.ChargeSequential(0.1, "x").ok());
}

// From-scratch recomputation of the spend over the recorded charges,
// kept here as the reference the incremental running totals must match
// bit-for-bit: compensated sum of sequential charges in charge order,
// then per-group maxima folded in group-key order.
double RecomputeSpent(const BudgetAccountant& budget) {
  KahanSum sequential;
  std::map<std::string, double> group_max;
  for (const BudgetCharge& charge : budget.charges()) {
    if (charge.parallel) {
      double& current = group_max[charge.parallel_group];
      current = std::max(current, charge.epsilon);
    } else {
      sequential.Add(charge.epsilon);
    }
  }
  for (const auto& [group, eps] : group_max) {
    sequential.Add(eps);
  }
  return sequential.Total();
}

TEST(BudgetTest, IncrementalSpendMatchesRecomputationExactly) {
  // Random mixed charge traces, including refusals near exhaustion: the
  // incrementally maintained spend must equal the from-scratch
  // recomputation bit-for-bit after every charge, and the accept/reject
  // decision must match what the recomputed value implies. This is the
  // regression test for the O(n^2) accounting fix: identical semantics,
  // linear cost.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    BudgetAccountant budget(1.0);
    for (int op = 0; op < 200; ++op) {
      const double epsilon =
          static_cast<double>(SampleUniformInt(rng, 1, 40)) / 1000.0;
      const double before = budget.spent_epsilon();
      ASSERT_EQ(before, RecomputeSpent(budget));
      Status status;
      double prospective = 0.0;
      if (SampleUniformDouble(rng) < 0.5) {
        prospective = before + epsilon;
        status = budget.ChargeSequential(epsilon, "seq");
      } else {
        std::string group = "g";
        group += std::to_string(SampleUniformInt(rng, 0, 5));
        // A parallel charge only raises the spend by the increase of its
        // group's max.
        double old_max = 0.0;
        for (const BudgetCharge& charge : budget.charges()) {
          if (charge.parallel && charge.parallel_group == group) {
            old_max = std::max(old_max, charge.epsilon);
          }
        }
        prospective = before - old_max + std::max(old_max, epsilon);
        status = budget.ChargeParallel(epsilon, group, "par");
      }
      const bool should_accept =
          prospective <= budget.total_epsilon() * (1.0 + 1e-9) + 1e-9;
      EXPECT_EQ(status.ok(), should_accept)
          << "trial " << trial << " op " << op << " prospective "
          << prospective;
      EXPECT_EQ(budget.spent_epsilon(), RecomputeSpent(budget));
      if (!status.ok()) {
        // A refused charge must leave the ledger untouched.
        EXPECT_EQ(budget.spent_epsilon(), before);
      }
    }
  }
}

TEST(BudgetTest, ExactFractionalChargesConsumeExactly) {
  // Regression: with naive `+=` accumulation, ten charges of 0.1 against a
  // total of 1.0 sum to 0.9999999999999999, leaving phantom remaining
  // budget after the grant was exactly consumed (and, with the inequality
  // flipped the other way, a drift upward could refuse the final
  // legitimate charge). Compensated summation makes the running spend the
  // correctly-rounded sum, so "exactly spent" is exact.
  BudgetAccountant budget(1.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(budget.ChargeSequential(0.1, "slice " + std::to_string(i)).ok())
        << "charge " << i;
  }
  EXPECT_EQ(budget.spent_epsilon(), 1.0);
  EXPECT_EQ(budget.remaining_epsilon(), 0.0);
  // An 11th charge beyond the slack must be refused.
  const Status s = budget.ChargeSequential(0.1, "over");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.spent_epsilon(), 1.0);
}

TEST(BudgetTest, ToStringListsCharges) {
  BudgetAccountant budget(2.0);
  ASSERT_TRUE(budget.ChargeSequential(1.0, "laplace:counts").ok());
  ASSERT_TRUE(budget.ChargeParallel(0.5, "bins", "bin 0").ok());
  const std::string ledger = budget.ToString();
  EXPECT_NE(ledger.find("laplace:counts"), std::string::npos);
  EXPECT_NE(ledger.find("parallel:bins"), std::string::npos);
}

}  // namespace
}  // namespace dphist
