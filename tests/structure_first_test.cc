#include "dphist/algorithms/structure_first.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/obs/obs.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

Histogram Plateaus(std::size_t n) {
  std::vector<double> counts(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = (i < n / 3) ? 10.0 : (i < 2 * n / 3 ? 100.0 : 30.0);
  }
  return Histogram(std::move(counts));
}

TEST(StructureFirstTest, Name) {
  EXPECT_EQ(StructureFirst().name(), "structure_first");
}

TEST(StructureFirstTest, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_FALSE(StructureFirst().Publish(Histogram(), 1.0, rng).ok());
  EXPECT_FALSE(StructureFirst().Publish(Histogram({1.0}), -1.0, rng).ok());

  StructureFirst::Options bad_ratio;
  bad_ratio.structure_budget_ratio = 0.0;
  EXPECT_FALSE(
      StructureFirst(bad_ratio).Publish(Histogram({1.0, 2.0}), 1.0, rng).ok());
  bad_ratio.structure_budget_ratio = 1.0;
  EXPECT_FALSE(
      StructureFirst(bad_ratio).Publish(Histogram({1.0, 2.0}), 1.0, rng).ok());

  StructureFirst::Options bad_cap;
  bad_cap.cost_kind = CostKind::kSquared;
  bad_cap.count_cap = 0.0;
  EXPECT_FALSE(
      StructureFirst(bad_cap).Publish(Histogram({1.0, 2.0}), 1.0, rng).ok());
}

TEST(StructureFirstTest, PreservesSizeAndDeterminism) {
  StructureFirst algo;
  const Histogram truth = Plateaus(48);
  Rng a(2);
  Rng b(2);
  auto out_a = algo.Publish(truth, 1.0, a);
  auto out_b = algo.Publish(truth, 1.0, b);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ(out_a.value().size(), truth.size());
  EXPECT_EQ(out_a.value().counts(), out_b.value().counts());
}

TEST(StructureFirstTest, BudgetSplitsSumToEpsilon) {
  StructureFirst::Options options;
  options.num_buckets = 6;
  options.structure_budget_ratio = 0.3;
  StructureFirst algo(options);
  const Histogram truth = Plateaus(60);
  Rng rng(3);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 2.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(details.structure_epsilon, 0.6, 1e-12);
  EXPECT_NEAR(details.count_epsilon, 1.4, 1e-12);
  EXPECT_NEAR(details.structure_epsilon + details.count_epsilon, 2.0, 1e-12);
  EXPECT_EQ(details.num_buckets, 6u);
  EXPECT_EQ(details.cuts.size(), 5u);
}

TEST(StructureFirstTest, SingleBucketUsesAllBudgetForCounts) {
  StructureFirst::Options options;
  options.num_buckets = 1;
  StructureFirst algo(options);
  const Histogram truth = Plateaus(30);
  Rng rng(4);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(details.structure_epsilon, 0.0);
  EXPECT_DOUBLE_EQ(details.count_epsilon, 1.0);
  EXPECT_EQ(details.num_buckets, 1u);
  // Single bucket: every published count equals the common mean.
  for (double v : out.value().counts()) {
    EXPECT_DOUBLE_EQ(v, out.value().count(0));
  }
}

TEST(StructureFirstTest, IdentityStructureUsesAllBudgetForCounts) {
  StructureFirst::Options options;
  options.num_buckets = 1000;  // clamped to the candidate count (= n here)
  StructureFirst algo(options);
  const Histogram truth = Plateaus(16);
  Rng rng(5);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(details.num_buckets, 16u);
  EXPECT_DOUBLE_EQ(details.structure_epsilon, 0.0);
}

TEST(StructureFirstTest, UtilitySensitivityPerCostKind) {
  const Histogram truth = Plateaus(30);
  Rng rng(6);

  StructureFirst::Options abs_options;
  abs_options.num_buckets = 4;
  StructureFirst::Details details;
  auto out =
      StructureFirst(abs_options).PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(details.utility_sensitivity, 2.0);

  StructureFirst::Options sq_options;
  sq_options.num_buckets = 4;
  sq_options.cost_kind = CostKind::kSquared;
  sq_options.count_cap = 500.0;
  auto out_sq =
      StructureFirst(sq_options).PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out_sq.ok());
  EXPECT_DOUBLE_EQ(details.utility_sensitivity, 1001.0);
}

TEST(StructureFirstTest, HighBudgetRecoversTruePlateaus) {
  // With a huge structure budget the exponential mechanism concentrates on
  // the v-opt optimum, which for clean plateaus is the true change points.
  StructureFirst::Options options;
  options.num_buckets = 3;
  options.structure_budget_ratio = 0.5;
  StructureFirst algo(options);
  const std::size_t n = 30;
  const Histogram truth = Plateaus(n);
  Rng rng(7);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 10000.0, rng, &details);
  ASSERT_TRUE(out.ok());
  const std::vector<std::size_t> expected = {n / 3, 2 * n / 3};
  EXPECT_EQ(details.cuts, expected);
}

TEST(StructureFirstTest, PublishedValuesConstantWithinBuckets) {
  StructureFirst::Options options;
  options.num_buckets = 5;
  StructureFirst algo(options);
  const Histogram truth = Plateaus(40);
  Rng rng(8);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out.ok());
  auto structure = Bucketization::FromCuts(truth.size(), details.cuts);
  ASSERT_TRUE(structure.ok());
  for (std::size_t b = 0; b < structure.value().num_buckets(); ++b) {
    const Bucket bucket = structure.value().bucket(b);
    for (std::size_t i = bucket.begin + 1; i < bucket.end; ++i) {
      EXPECT_DOUBLE_EQ(out.value().count(i),
                       out.value().count(bucket.begin));
    }
  }
}

TEST(StructureFirstTest, LongRangeQueriesBeatDworkOnPlateauData) {
  // SF's motivating property: big buckets average the count noise away, so
  // the total-sum query error is far below Dwork's sqrt(n)-scaled error.
  StructureFirst::Options options;
  options.num_buckets = 3;
  StructureFirst algo(options);
  const std::size_t n = 120;
  const Histogram truth = Plateaus(n);
  const double epsilon = 0.1;
  Rng rng(9);
  double sf_total_err = 0.0;
  const int reps = 60;
  for (int rep = 0; rep < reps; ++rep) {
    auto out = algo.Publish(truth, epsilon, rng);
    ASSERT_TRUE(out.ok());
    sf_total_err += std::abs(out.value().Total() - truth.Total());
  }
  sf_total_err /= reps;
  // Dwork's expected |total error| is ~ sqrt(2 n / eps^2 * ...) — compute
  // the exact expected absolute error of a sum of n Laplace(1/eps):
  // approx sqrt(2 * n) / eps * sqrt(2/pi).
  const double dwork_expected =
      std::sqrt(2.0 * static_cast<double>(n) / (epsilon * epsilon)) *
      std::sqrt(2.0 / 3.141592653589793);
  EXPECT_LT(sf_total_err, dwork_expected * 0.6);
}

TEST(StructureFirstTest, ClampNonNegative) {
  StructureFirst::Options options;
  options.num_buckets = 4;
  options.clamp_nonnegative = true;
  StructureFirst algo(options);
  const Histogram truth(std::vector<double>(64, 0.0));
  Rng rng(10);
  auto out = algo.Publish(truth, 0.05, rng);
  ASSERT_TRUE(out.ok());
  for (double v : out.value().counts()) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(StructureFirstTest, AdaptiveKRejectsBadRatio) {
  Rng rng(20);
  StructureFirst::Options options;
  options.k_selection_ratio = 0.0;
  EXPECT_FALSE(
      StructureFirst(options).Publish(Plateaus(16), 1.0, rng).ok());
  options.k_selection_ratio = 1.0;
  EXPECT_FALSE(
      StructureFirst(options).Publish(Plateaus(16), 1.0, rng).ok());
  // A fixed k ignores the ratio entirely.
  options.num_buckets = 3;
  EXPECT_TRUE(StructureFirst(options).Publish(Plateaus(16), 1.0, rng).ok());
}

TEST(StructureFirstTest, AdaptiveKBudgetAccounting) {
  StructureFirst algo;  // defaults: adaptive k
  const Histogram truth = Plateaus(60);
  Rng rng(21);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(truth, 1.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(details.adaptive_k);
  EXPECT_GT(details.structure_epsilon, 0.0);  // at least the k draw
  EXPECT_NEAR(details.structure_epsilon + details.count_epsilon, 1.0, 1e-12);
  // The k draw costs k_selection_ratio * eps_s = 0.2 * 0.5 = 0.1; if the
  // chosen structure was data-dependent the boundary draws consumed the
  // remaining 0.4 of structure budget.
  if (details.num_buckets > 1 && details.num_buckets < truth.size()) {
    EXPECT_NEAR(details.structure_epsilon, 0.5, 1e-12);
  } else {
    EXPECT_NEAR(details.structure_epsilon, 0.1, 1e-12);
  }
}

TEST(StructureFirstTest, AdaptiveKTracksDataStructure) {
  // Flat data: every merge is free, so the k/eps_c noise term pulls the
  // selection toward few buckets. A steep ramp: merging is expensive, so
  // large k wins. The draw is exponential-mechanism-noisy, so compare the
  // averages over repetitions rather than single draws.
  StructureFirst algo;
  const Histogram flat(std::vector<double>(64, 50.0));
  std::vector<double> ramp_counts(64, 0.0);
  for (std::size_t i = 0; i < ramp_counts.size(); ++i) {
    ramp_counts[i] = 1000.0 * static_cast<double>(i);
  }
  const Histogram ramp(ramp_counts);
  Rng rng(22);
  double flat_k = 0.0;
  double ramp_k = 0.0;
  const int reps = 20;
  for (int rep = 0; rep < reps; ++rep) {
    StructureFirst::Details details;
    Rng flat_rng = rng.Fork();
    Rng ramp_rng = rng.Fork();
    ASSERT_TRUE(algo.PublishWithDetails(flat, 1.0, flat_rng, &details).ok());
    flat_k += static_cast<double>(details.num_buckets);
    ASSERT_TRUE(algo.PublishWithDetails(ramp, 1.0, ramp_rng, &details).ok());
    ramp_k += static_cast<double>(details.num_buckets);
  }
  EXPECT_LT(flat_k / reps, 0.5 * ramp_k / reps);
}

TEST(StructureFirstTest, AdaptiveKPicksManyBucketsOnSteepData) {
  // A steep ramp cannot be merged without large cost: adaptive selection
  // should keep many buckets (degrading gracefully toward Dwork) rather
  // than flattening the data.
  std::vector<double> ramp(64, 0.0);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = 1000.0 * static_cast<double>(i);
  }
  StructureFirst algo;
  Rng rng(23);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(Histogram(ramp), 100.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(details.num_buckets, 32u);
}

TEST(StructureFirstTest, MaxBucketsConsideredCapsAdaptiveK) {
  // The cap limits the *structured* candidates; the identity structure
  // (k = n, merge cost 0) always remains available so StructureFirst can
  // degrade to the Dwork baseline. On a steep ramp with a huge budget,
  // identity wins; nothing between 4 and n may be chosen.
  std::vector<double> ramp(64, 0.0);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = 1000.0 * static_cast<double>(i);
  }
  StructureFirst::Options options;
  options.max_buckets_considered = 4;
  StructureFirst algo(options);
  Rng rng(24);
  StructureFirst::Details details;
  auto out = algo.PublishWithDetails(Histogram(ramp), 100.0, rng, &details);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(details.num_buckets <= 4u || details.num_buckets == 64u)
      << details.num_buckets;
}

// Every count's bits, so a -0.0 for a 0.0 counts as a change.
std::vector<std::uint64_t> Bits(const Result<Histogram>& released) {
  EXPECT_TRUE(released.ok()) << released.status().ToString();
  if (!released.ok()) {
    return {};
  }
  const std::vector<double>& counts = released.value().counts();
  std::vector<std::uint64_t> bits(counts.size());
  std::memcpy(bits.data(), counts.data(), counts.size() * sizeof(double));
  return bits;
}

// Runs `body` on a worker of the global pool and returns its result. Every
// parallel loop nested in it runs inline there, so the cost-table build and
// the v-opt solve run at width 1 (a one-thread global pool runs `body` on
// the caller, at width 1 as well).
template <typename Body>
auto OnGlobalWorker(Body body) -> decltype(body()) {
  std::promise<decltype(body())> result;
  ThreadPool::Global().Submit([&] { result.set_value(body()); });
  return result.get_future().get();
}

// The bitwise battery of the prepared stage: one Prepare per truth, built
// at width 1, serves every (epsilon, seed) release at width 1 and at the
// global pool's width (DPHIST_THREADS, else the hardware's; the vopt label
// runs at 1 and 4 in CI's sanitizer job), and each release equals the
// from-scratch Publish bit for bit. Parameters: dataset, cost kind, and
// domain size. n = 512 keeps grid step 1; n = 2100 takes the automatic
// grid step 3.
class StructureFirstPreparedBattery
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::size_t>> {};

TEST_P(StructureFirstPreparedBattery, PreparedEqualsUnpreparedBitForBit) {
  const auto& [dataset, cost, n] = GetParam();
  const CostKind cost_kind =
      cost == "squared" ? CostKind::kSquared : CostKind::kAbsolute;
  const Histogram truth = dataset == "nettrace" ? MakeNetTrace(n, 5).histogram
                          : dataset == "searchlogs"
                              ? MakeSearchLogs(n, 5).histogram
                              : MakeSocialNetwork(n, 5).histogram;
  for (const std::size_t num_buckets : {std::size_t{0}, std::size_t{16}}) {
    StructureFirst::Options options;
    options.cost_kind = cost_kind;
    options.num_buckets = num_buckets;
    const StructureFirst algo(options);
    auto prepared = OnGlobalWorker([&] { return algo.Prepare(truth); });
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const PreparedTruth* stage = prepared.value().get();
    const auto* costs = dynamic_cast<const StructureFirst::Prepared*>(stage);
    ASSERT_NE(costs, nullptr);
    EXPECT_EQ(costs->costs().grid_step(), n > 2048 ? 3u : 1u);
    for (const double epsilon : {0.01, 0.1, 1.0}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("k=" + std::to_string(num_buckets) +
                     " eps=" + std::to_string(epsilon) +
                     " seed=" + std::to_string(seed));
        Rng scratch_rng(seed);
        const std::vector<std::uint64_t> scratch =
            Bits(algo.Publish(truth, epsilon, scratch_rng));
        Rng wide_rng(seed);
        EXPECT_EQ(Bits(algo.PublishPrepared(truth, stage, epsilon, wide_rng)),
                  scratch);
        EXPECT_EQ(Bits(OnGlobalWorker([&] {
                    Rng narrow_rng(seed);
                    return algo.PublishPrepared(truth, stage, epsilon,
                                                narrow_rng);
                  })),
                  scratch);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsCostsGrids, StructureFirstPreparedBattery,
    ::testing::Combine(::testing::Values("nettrace", "searchlogs", "social"),
                       ::testing::Values("absolute", "squared"),
                       ::testing::Values(std::size_t{512}, std::size_t{2100})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(StructureFirstPrepareTest, RefusesAStageBuiltForOtherInputs) {
  const Histogram truth = Plateaus(96);
  const StructureFirst::Options absolute;
  StructureFirst::Options squared;
  squared.cost_kind = CostKind::kSquared;
  auto prepared = StructureFirst(absolute).Prepare(truth);
  auto squared_prepared = StructureFirst(squared).Prepare(truth);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(squared_prepared.ok());
  auto code = [](const StructureFirst& publisher, const Histogram& histogram,
                 const PreparedTruth* stage) {
    Rng rng(1);
    return publisher.PublishPrepared(histogram, stage, 1.0, rng)
        .status()
        .code();
  };
  // Another domain size, cost kind, grid step or (squared) count cap.
  EXPECT_EQ(code(StructureFirst(absolute), Plateaus(97),
                 prepared.value().get()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(StructureFirst(squared), truth, prepared.value().get()),
            StatusCode::kInvalidArgument);
  StructureFirst::Options coarse;
  coarse.grid_step = 2;
  EXPECT_EQ(code(StructureFirst(coarse), truth, prepared.value().get()),
            StatusCode::kInvalidArgument);
  StructureFirst::Options capped = squared;
  capped.count_cap = 50.0;
  EXPECT_EQ(code(StructureFirst(capped), truth, squared_prepared.value().get()),
            StatusCode::kInvalidArgument);
  // Other counts of the same size: the structure would be scored on data
  // no ledger charged.
  Histogram other = truth;
  other.Add(truth.size() / 2, 1.0);
  EXPECT_EQ(code(StructureFirst(absolute), other, prepared.value().get()),
            StatusCode::kInvalidArgument);
  Histogram negative_zero = Histogram::Zeros(8);
  negative_zero.set_count(3, -0.0);
  auto zeros_prepared = StructureFirst(absolute).Prepare(Histogram::Zeros(8));
  ASSERT_TRUE(zeros_prepared.ok());
  EXPECT_EQ(code(StructureFirst(absolute), negative_zero,
                 zeros_prepared.value().get()),
            StatusCode::kInvalidArgument);
  // No stage at all, or another publisher's.
  EXPECT_EQ(code(StructureFirst(absolute), truth, nullptr),
            StatusCode::kInvalidArgument);
  struct Foreign final : PreparedTruth {};
  const Foreign foreign;
  EXPECT_EQ(code(StructureFirst(absolute), truth, &foreign),
            StatusCode::kInvalidArgument);

  // What the table was not built from may differ: the count cap under the
  // absolute cost, an explicit grid step equal to the automatic one, and
  // every option of the randomized stage.
  StructureFirst::Options other_stage;
  other_stage.count_cap = 50.0;
  other_stage.grid_step = 1;
  other_stage.num_buckets = 4;
  other_stage.structure_budget_ratio = 0.3;
  const StructureFirst publisher(other_stage);
  Rng prepared_rng(3);
  Rng scratch_rng(3);
  EXPECT_EQ(Bits(publisher.PublishPrepared(truth, prepared.value().get(), 1.0,
                                           prepared_rng)),
            Bits(publisher.Publish(truth, 1.0, scratch_rng)));
}

TEST(StructureFirstPrepareTest, PrepareRejectsWhatPublishRejects) {
  EXPECT_EQ(StructureFirst().Prepare(Histogram()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StructureFirst()
                .Prepare(Histogram(
                    {1.0, std::numeric_limits<double>::quiet_NaN()}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  StructureFirst::Options bad_ratio;
  bad_ratio.structure_budget_ratio = 1.0;
  EXPECT_EQ(
      StructureFirst(bad_ratio).Prepare(Histogram({1.0, 2.0})).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(StructureFirstPrepareTest, BadEpsilonFailsBeforeTheTableBuild) {
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  const obs::Counter& builds =
      obs::Registry::Global().GetCounter("interval_cost/builds");
  const Histogram truth = Plateaus(60);
  const StructureFirst algo;
  Rng rng(1);
  EXPECT_EQ(algo.Publish(truth, 0.0, rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(algo.PublishWithDetails(truth, -1.0, rng, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(builds.value(), 0u);
  EXPECT_TRUE(algo.Publish(truth, 1.0, rng).ok());
  EXPECT_EQ(builds.value(), 1u);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

TEST(StructureFirstPrepareTest, DetailsMatchAcrossStages) {
  const Histogram truth = Plateaus(60);
  const StructureFirst algo;
  auto prepared = algo.Prepare(truth);
  ASSERT_TRUE(prepared.ok());
  StructureFirst::Details scratch;
  StructureFirst::Details reused;
  Rng scratch_rng(8);
  Rng reused_rng(8);
  ASSERT_TRUE(algo.PublishWithDetails(truth, 1.0, scratch_rng, &scratch).ok());
  ASSERT_TRUE(algo.PublishWithDetails(truth, prepared.value().get(), 1.0,
                                      reused_rng, &reused)
                  .ok());
  EXPECT_EQ(reused.cuts, scratch.cuts);
  EXPECT_EQ(reused.num_buckets, scratch.num_buckets);
  EXPECT_EQ(reused.structure_epsilon, scratch.structure_epsilon);
  EXPECT_EQ(reused.count_epsilon, scratch.count_epsilon);
}

}  // namespace
}  // namespace dphist
