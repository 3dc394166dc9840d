// Empirical differential-privacy audit.
//
// Differential privacy cannot be proven by testing, but gross violations
// can be caught: run a publisher many times on two neighboring datasets
// (one record added), estimate the probability of a set of output events,
// and check the ratio against e^epsilon with sampling slack. A correct
// epsilon-DP mechanism passes comfortably; an implementation that forgot a
// budget split, mis-scaled noise by 2x, or leaked the structure for free
// fails these checks with high probability.
//
// Events are chosen where the two output distributions differ most — the
// bin whose count changed — which is where a broken mechanism gives itself
// away. Sample counts and slack are sized so the tests are deterministic
// in practice for correct mechanisms (pinned seeds).

#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/ahp.h"
#include "dphist/algorithms/efpa.h"
#include "dphist/algorithms/grouping_smoothing.h"
#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/p_hp.h"
#include "dphist/algorithms/registry.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

constexpr double kEpsilon = 1.0;
constexpr int kSamples = 30000;
// A second, stricter budget for the baseline mechanisms whose events keep
// enough mass to audit there (merging algorithms smear bin 0 too much at
// small epsilon for a meaningful point estimate).
constexpr double kStrictEpsilon = 0.4;
// Multiplicative slack over e^eps: covers sampling error at kSamples for
// event probabilities >= ~0.05 (binomial stderr ~ 0.3%).
constexpr double kSlack = 1.25;

// Estimates P[released bin0 count <= threshold] under the given dataset.
double EstimateEventProbability(const HistogramPublisher& publisher,
                                const Histogram& data, double threshold,
                                std::uint64_t seed,
                                double epsilon = kEpsilon) {
  Rng root(seed);
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    Rng rng = root.Fork();
    auto out = publisher.Publish(data, epsilon, rng);
    EXPECT_TRUE(out.ok());
    if (out.ok() && out.value().count(0) <= threshold) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / kSamples;
}

// Audits the publisher on neighboring histograms d1 = (5,8,3) and
// d2 = (6,8,3), over several event thresholds on bin 0.
void AuditPublisher(const HistogramPublisher& publisher,
                    std::uint64_t seed) {
  const Histogram d1({5.0, 8.0, 3.0});
  const Histogram d2({6.0, 8.0, 3.0});
  const double bound = std::exp(kEpsilon) * kSlack;
  for (double threshold : {4.0, 5.5, 7.0}) {
    const double p1 =
        EstimateEventProbability(publisher, d1, threshold, seed);
    const double p2 =
        EstimateEventProbability(publisher, d2, threshold, seed + 1);
    // Only test events with enough mass for a meaningful ratio estimate.
    if (p1 < 0.05 || p2 < 0.05) {
      continue;
    }
    EXPECT_LE(p1 / p2, bound)
        << publisher.name() << " threshold=" << threshold << " p1=" << p1
        << " p2=" << p2;
    EXPECT_LE(p2 / p1, bound)
        << publisher.name() << " threshold=" << threshold << " p1=" << p1
        << " p2=" << p2;
  }
}

TEST(PrivacyAuditTest, Dwork) {
  auto algo = PublisherRegistry::Make("dwork");
  ASSERT_TRUE(algo.ok());
  AuditPublisher(*algo.value(), 1);
}

TEST(PrivacyAuditTest, Geometric) {
  auto algo = PublisherRegistry::Make("geometric");
  ASSERT_TRUE(algo.ok());
  AuditPublisher(*algo.value(), 2);
}

TEST(PrivacyAuditTest, Boost) {
  auto algo = PublisherRegistry::Make("boost");
  ASSERT_TRUE(algo.ok());
  AuditPublisher(*algo.value(), 3);
}

TEST(PrivacyAuditTest, Privelet) {
  auto algo = PublisherRegistry::Make("privelet");
  ASSERT_TRUE(algo.ok());
  AuditPublisher(*algo.value(), 4);
}

TEST(PrivacyAuditTest, NoiseFirst) {
  NoiseFirst algo;  // defaults: full k* search on the noisy counts
  AuditPublisher(algo, 5);
}

TEST(PrivacyAuditTest, StructureFirstFixedK) {
  StructureFirst::Options options;
  options.num_buckets = 2;
  AuditPublisher(StructureFirst(options), 6);
}

TEST(PrivacyAuditTest, StructureFirstAdaptiveK) {
  AuditPublisher(StructureFirst(), 7);
}

TEST(PrivacyAuditTest, PHPartition) {
  PHPartition::Options options;
  options.num_buckets = 2;
  AuditPublisher(PHPartition(options), 8);
}

TEST(PrivacyAuditTest, Efpa) {
  AuditPublisher(Efpa(), 9);
}

TEST(PrivacyAuditTest, Ahp) {
  Ahp::Options options;
  options.threshold_small_counts = false;  // keep bin-0 events informative
  options.clamp_nonnegative = false;
  AuditPublisher(Ahp(options), 10);
}

TEST(PrivacyAuditTest, GroupingSmoothing) {
  GroupingSmoothing::Options options;
  options.group_size = 2;
  AuditPublisher(GroupingSmoothing(options), 11);
}

// Negative control: a deliberately broken mechanism (noise scaled for
// eps' = 4*eps) must FAIL the audit — proving the audit has teeth.
class OverconfidentLaplace final : public HistogramPublisher {
 public:
  std::string name() const override { return "broken"; }
  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* /*prepared*/,
                                    double epsilon, Rng& rng) const override {
    auto inner = PublisherRegistry::Make("dwork");
    // Spends 4x the granted budget: 4*eps-DP, not eps-DP.
    return inner.value()->Publish(histogram, 4.0 * epsilon, rng);
  }
};

TEST(PrivacyAuditTest, BaselinesAtStrictEpsilon) {
  // The Laplace and geometric baselines keep auditable event mass at a
  // strict budget too; their ratio bound must scale down with epsilon.
  const Histogram d1({5.0, 8.0, 3.0});
  const Histogram d2({6.0, 8.0, 3.0});
  const double bound = std::exp(kStrictEpsilon) * kSlack;
  for (const char* name : {"dwork", "geometric"}) {
    auto algo = PublisherRegistry::Make(name);
    ASSERT_TRUE(algo.ok());
    for (double threshold : {4.0, 5.5, 7.0}) {
      const double p1 = EstimateEventProbability(*algo.value(), d1,
                                                 threshold, 50,
                                                 kStrictEpsilon);
      const double p2 = EstimateEventProbability(*algo.value(), d2,
                                                 threshold, 51,
                                                 kStrictEpsilon);
      if (p1 < 0.05 || p2 < 0.05) {
        continue;
      }
      EXPECT_LE(p1 / p2, bound) << name << " threshold=" << threshold;
      EXPECT_LE(p2 / p1, bound) << name << " threshold=" << threshold;
    }
  }
}

TEST(PrivacyAuditTest, NegativeControlCatchesBrokenMechanism) {
  OverconfidentLaplace broken;
  const Histogram d1({5.0, 8.0, 3.0});
  const Histogram d2({6.0, 8.0, 3.0});
  const double p1 = EstimateEventProbability(broken, d1, 5.5, 99);
  const double p2 = EstimateEventProbability(broken, d2, 5.5, 100);
  ASSERT_GE(p1, 0.05);
  ASSERT_GE(p2, 0.05);
  const double worst = std::max(p1 / p2, p2 / p1);
  EXPECT_GT(worst, std::exp(kEpsilon) * kSlack);
}

}  // namespace
}  // namespace dphist
