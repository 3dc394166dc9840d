// Publisher contract sweep: every built-in algorithm must satisfy the
// HistogramPublisher contract on every dataset shape — size preservation,
// determinism under a fixed seed, finite outputs, argument validation —
// regardless of its internal machinery. Parameterized over (publisher,
// dataset) so a new algorithm or generator is automatically covered.

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/data/generators.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

Dataset DatasetByName(const std::string& name) {
  if (name == "age") {
    return MakeAge(1);
  }
  if (name == "nettrace") {
    return MakeNetTrace(128, 2);
  }
  if (name == "searchlogs") {
    return MakeSearchLogs(128, 3);
  }
  if (name == "social") {
    return MakeSocialNetwork(128, 4);
  }
  if (name == "uniform") {
    return MakeUniform(64, 25.0, 5);
  }
  if (name == "piecewise") {
    return MakePiecewiseConstant(96, 4, 500.0, 6);
  }
  // Edge shapes.
  Dataset d;
  d.name = name;
  if (name == "single_bin") {
    d.histogram = Histogram({42.0});
  } else if (name == "all_zero") {
    d.histogram = Histogram(std::vector<double>(32, 0.0));
  } else if (name == "one_spike") {
    std::vector<double> counts(33, 0.0);  // non-power-of-two on purpose
    counts[17] = 100000.0;
    d.histogram = Histogram(std::move(counts));
  }
  return d;
}

class PublisherContract
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  std::unique_ptr<HistogramPublisher> MakePublisher() {
    auto made = PublisherRegistry::Make(std::get<0>(GetParam()));
    EXPECT_TRUE(made.ok());
    return std::move(made).value();
  }

  Histogram Truth() {
    return DatasetByName(std::get<1>(GetParam())).histogram;
  }
};

TEST_P(PublisherContract, PreservesDomainSize) {
  auto publisher = MakePublisher();
  const Histogram truth = Truth();
  Rng rng(100);
  auto out = publisher->Publish(truth, 0.5, rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), truth.size());
}

TEST_P(PublisherContract, DeterministicUnderFixedSeed) {
  auto publisher = MakePublisher();
  const Histogram truth = Truth();
  Rng a(200);
  Rng b(200);
  auto out_a = publisher->Publish(truth, 0.3, a);
  auto out_b = publisher->Publish(truth, 0.3, b);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ(out_a.value().counts(), out_b.value().counts());
}

TEST_P(PublisherContract, OutputsAreFinite) {
  auto publisher = MakePublisher();
  const Histogram truth = Truth();
  for (double epsilon : {0.01, 1.0, 100.0}) {
    Rng rng(300 + static_cast<std::uint64_t>(epsilon * 10));
    auto out = publisher->Publish(truth, epsilon, rng);
    ASSERT_TRUE(out.ok());
    for (double v : out.value().counts()) {
      EXPECT_TRUE(std::isfinite(v)) << "epsilon=" << epsilon;
    }
  }
}

TEST_P(PublisherContract, RejectsInvalidArguments) {
  auto publisher = MakePublisher();
  Rng rng(400);
  EXPECT_FALSE(publisher->Publish(Histogram(), 1.0, rng).ok());
  EXPECT_FALSE(publisher->Publish(Truth(), 0.0, rng).ok());
  EXPECT_FALSE(publisher->Publish(Truth(), -1.0, rng).ok());
  // An infinite epsilon scales the noise to zero and would release the
  // exact counts; a NaN one is no budget at all.
  for (const double bad : {HUGE_VAL, -HUGE_VAL, std::nan("")}) {
    auto out = publisher->Publish(Truth(), bad, rng);
    ASSERT_FALSE(out.ok()) << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// A NaN or infinite count used to publish an all-NaN release with OK;
// the shared argument check now refuses it for every publisher.
TEST_P(PublisherContract, RejectsNonFiniteCounts) {
  auto publisher = MakePublisher();
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> counts = Truth().counts();
    counts[counts.size() / 2] = bad;
    Rng rng(450);
    auto out = publisher->Publish(Histogram(std::move(counts)), 1.0, rng);
    ASSERT_FALSE(out.ok()) << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_P(PublisherContract, ActuallyPerturbs) {
  // A DP release that returns the exact input at small epsilon is a red
  // flag; check the output differs from the truth in at least one of a
  // few runs. (A single run can legitimately coincide: e.g. AHP on the
  // all-zero histogram thresholds everything and clamps the one cluster
  // mean at zero about half the time.)
  auto publisher = MakePublisher();
  const Histogram truth = Truth();
  bool perturbed = false;
  for (std::uint64_t seed = 500; seed < 510 && !perturbed; ++seed) {
    Rng rng(seed);
    auto out = publisher->Publish(truth, 0.1, rng);
    ASSERT_TRUE(out.ok());
    perturbed = out.value().counts() != truth.counts();
  }
  EXPECT_TRUE(perturbed);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PublisherContract,
    ::testing::Combine(
        ::testing::Values("dwork", "boost", "privelet", "noise_first",
                          "structure_first", "geometric", "efpa", "mwem",
                          "p_hp", "ahp", "gs"),
        ::testing::Values("age", "nettrace", "searchlogs", "social",
                          "uniform", "piecewise", "single_bin", "all_zero",
                          "one_spike")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_on_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace dphist
