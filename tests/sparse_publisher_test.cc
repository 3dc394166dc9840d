// Statistical verification battery for the sparse publishers.
//
// The load-bearing checks: per-key noise is Laplace at exactly scale
// 1/epsilon (KS against direct draws); SparsePure's sampled release agrees
// in distribution with the brute-force dense construction it claims to
// equal (exact cross-check on a materializable domain); the spurious
// release count matches the tail-bound calibration; the unknown-domain
// mechanism leaks a single-record key with probability exactly delta; and
// the release is bitwise identical regardless of thread count.
//
// Every test is deterministic (fixed seeds) with tolerances wide enough —
// 5 sigma on counts, alpha = 1e-3 on KS — that a correct implementation
// passes with overwhelming margin while the injected-bug failure modes
// (wrong noise scale, wrong threshold, mis-calibrated q) are far outside.

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/privacy/budget.h"
#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"
#include "dphist/sparse/sparse_histogram.h"
#include "dphist/sparse/sparse_pure.h"
#include "dphist/sparse/unknown_domain.h"
#include "testing/statistical.h"

namespace dphist {
namespace sparse {
namespace {

SparseHistogram MustCreate(std::uint64_t domain,
                           std::vector<SparseEntry> entries) {
  auto histogram = SparseHistogram::Create(domain, std::move(entries));
  EXPECT_TRUE(histogram.ok()) << histogram.status().ToString();
  return std::move(histogram).value();
}

TEST(SparsePureTest, ThresholdMatchesClosedForm) {
  SparsePurePublisher publisher;
  // tau = ln((d - k) / (2 s)) / eps with s = 1.
  EXPECT_NEAR(publisher.Threshold(46, 2, 1.0), std::log(22.0), 1e-12);
  EXPECT_NEAR(publisher.Threshold(1ULL << 40, 0, 2.0),
              std::log(static_cast<double>(1ULL << 40) / 2.0) / 2.0, 1e-9);
  // d - k < 2 s clamps at zero.
  EXPECT_DOUBLE_EQ(publisher.Threshold(3, 2, 1.0), 0.0);
}

TEST(SparsePureTest, PerKeyNoiseIsLaplaceAtScaleOneOverEpsilon) {
  // A key whose count towers over tau is released every time, so its
  // released values across repetitions are count + Lap(1/eps) draws with
  // no visible truncation; KS against direct Laplace draws pins the scale.
  const double kCount = 1000.0;
  const double kEpsilon = 0.5;
  const SparseHistogram truth =
      MustCreate(1000000, {{17, kCount}, {400000, 900.0}});
  SparsePurePublisher publisher;
  Rng publish_rng(314159);
  std::vector<double> released_values;
  // 1000 repetitions: the KS critical distance at alpha = 1e-3 is ~0.087,
  // safely below the 0.125 true distance to the scale-2x wrong noise and
  // far above the ~0 distance to the correct one.
  for (int rep = 0; rep < 1000; ++rep) {
    Rng run = publish_rng.Fork();
    auto released = publisher.Publish(truth, kEpsilon, run);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    const double value = released.value().CountFor(17);
    ASSERT_NE(value, 0.0) << "heavy key suppressed at rep " << rep;
    released_values.push_back(value);
  }
  Rng reference_rng(271828);
  std::vector<double> reference(released_values.size());
  for (double& x : reference) {
    x = kCount + SampleLaplace(reference_rng, 1.0 / kEpsilon);
  }
  EXPECT_TRUE(testing::KsSameDistribution(released_values, reference));
  // And the battery's teeth: noise at twice the scale (an epsilon halved
  // by mis-plumbing) is detected.
  Rng wrong_rng(161803);
  std::vector<double> wrong(released_values.size());
  for (double& x : wrong) {
    x = kCount + SampleLaplace(wrong_rng, 2.0 / kEpsilon);
  }
  EXPECT_FALSE(testing::KsSameDistribution(released_values, wrong));
}

// Brute-force cross-check on a materializable domain: the sampled release
// must agree IN DISTRIBUTION with adding Lap(1/eps) to every one of the d
// keys and thresholding at the same tau (the construction the paper
// derandomizes). Compared over 3000 repetitions on three statistics:
// released value at a heavy key (KS), mean released-set size, and mean
// spurious-zero-key count.
TEST(SparsePureTest, AgreesWithBruteForceDenseConstruction) {
  const std::uint64_t kDomain = 48;
  const double kEpsilon = 1.0;
  const int kReps = 3000;
  const SparseHistogram truth =
      MustCreate(kDomain, {{3, 30.0}, {11, 25.0}, {20, 40.0}, {47, 28.0}});
  SparsePurePublisher publisher;
  const double tau =
      publisher.Threshold(kDomain, truth.stored_keys(), kEpsilon);

  std::vector<double> sampled_heavy;
  double sampled_size = 0.0;
  double sampled_spurious = 0.0;
  Rng sampled_rng(90210);
  for (int rep = 0; rep < kReps; ++rep) {
    Rng run = sampled_rng.Fork();
    SparsePublishStats stats;
    auto released = publisher.Publish(truth, kEpsilon, run, &stats);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    EXPECT_NEAR(stats.threshold, tau, 1e-12);
    const double value = released.value().CountFor(20);
    if (value != 0.0) {
      sampled_heavy.push_back(value);
    }
    sampled_size += static_cast<double>(stats.released_keys);
    sampled_spurious += static_cast<double>(stats.spurious_keys);
    // Internal consistency: observed keys split into released and
    // suppressed; everything else released is spurious.
    EXPECT_EQ(stats.released_keys - stats.spurious_keys +
                  stats.suppressed_keys,
              truth.stored_keys());
  }

  std::vector<double> brute_heavy;
  double brute_size = 0.0;
  double brute_spurious = 0.0;
  Rng brute_rng(48151);
  for (int rep = 0; rep < kReps; ++rep) {
    Rng run = brute_rng.Fork();
    for (std::uint64_t key = 0; key < kDomain; ++key) {
      const double noisy =
          truth.CountFor(key) + SampleLaplace(run, 1.0 / kEpsilon);
      if (noisy > tau) {
        brute_size += 1.0;
        if (truth.CountFor(key) == 0.0) {
          brute_spurious += 1.0;
        }
        if (key == 20) {
          brute_heavy.push_back(noisy);
        }
      }
    }
  }

  // The heavy key (count 40, tau ~3.1) is essentially always released on
  // both sides; its value distributions must match.
  ASSERT_EQ(sampled_heavy.size(), static_cast<std::size_t>(kReps));
  ASSERT_EQ(brute_heavy.size(), static_cast<std::size_t>(kReps));
  EXPECT_TRUE(testing::KsSameDistribution(sampled_heavy, brute_heavy));

  // Released-set size: per-rep variance is dominated by the ~Binomial(44,
  // 1/44) spurious term, sigma ~1 per rep, so the difference of two
  // kReps-rep means has sigma ~ sqrt(2)/sqrt(kReps) ~ 0.026. 5 sigma.
  EXPECT_NEAR(sampled_size / kReps, brute_size / kReps, 0.13);
  EXPECT_NEAR(sampled_spurious / kReps, brute_spurious / kReps, 0.13);
}

TEST(SparsePureTest, SpuriousReleasesMatchTailBoundCalibration) {
  // d = 4096, k = 4, s = 1: each of the 4092 zero keys independently
  // clears tau with probability q = s / (d - k), so each publish releases
  // Binomial(4092, 1/4092) spurious keys — mean 1, variance ~1. Over
  // R = 2000 publishes the total is 2000 +- 5 * sqrt(2000) ~ 2000 +- 224.
  const std::uint64_t kDomain = 4096;
  const int kReps = 2000;
  const SparseHistogram truth =
      MustCreate(kDomain, {{1, 50.0}, {100, 60.0}, {2000, 55.0}, {4000, 70.0}});
  SparsePurePublisher publisher;
  Rng rng(55501);
  double total_spurious = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng run = rng.Fork();
    SparsePublishStats stats;
    auto released = publisher.Publish(truth, 1.0, run, &stats);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    total_spurious += static_cast<double>(stats.spurious_keys);
    // Every spuriously released value sits strictly above tau (it is
    // tau + Exp(eps)), and every released key is in-domain.
    for (const SparseEntry& entry : released.value().entries()) {
      ASSERT_LT(entry.key, kDomain);
      if (truth.CountFor(entry.key) == 0.0) {
        ASSERT_GT(entry.count, stats.threshold);
      }
    }
  }
  EXPECT_NEAR(total_spurious, static_cast<double>(kReps),
              5.0 * std::sqrt(static_cast<double>(kReps)));
}

TEST(SparsePureTest, ExpectedSpuriousOptionScalesTheThreshold) {
  SparsePurePublisher::Options options;
  options.expected_spurious = 8.0;
  SparsePurePublisher publisher(options);
  EXPECT_NEAR(publisher.Threshold(1016, 0, 1.0), std::log(1016.0 / 16.0),
              1e-12);
}

TEST(UnknownDomainTest, ThresholdMatchesClosedForm) {
  UnknownDomainPublisher publisher;  // delta = 1e-9
  EXPECT_NEAR(publisher.Threshold(1.0), 1.0 + std::log(5e8), 1e-9);
  UnknownDomainPublisher::Options options;
  options.delta = 0.05;
  EXPECT_NEAR(UnknownDomainPublisher(options).Threshold(2.0),
              1.0 + std::log(10.0) / 2.0, 1e-12);
}

TEST(UnknownDomainTest, NeverReleasesUnobservedKeys) {
  const SparseHistogram truth =
      MustCreate(1ULL << 40, {{5, 100.0}, {1ULL << 39, 200.0}});
  UnknownDomainPublisher::Options options;
  options.delta = 0.4;  // aggressive delta -> tiny tau, maximal releases
  UnknownDomainPublisher publisher(options);
  Rng rng(777);
  for (int rep = 0; rep < 200; ++rep) {
    Rng run = rng.Fork();
    SparsePublishStats stats;
    auto released = publisher.Publish(truth, 1.0, run, &stats);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    EXPECT_EQ(stats.spurious_keys, 0u);
    for (const SparseEntry& entry : released.value().entries()) {
      EXPECT_NE(truth.CountFor(entry.key), 0.0)
          << "unobserved key " << entry.key << " released";
    }
  }
}

TEST(UnknownDomainTest, SingleRecordKeyLeaksWithProbabilityDelta) {
  // The (eps, delta) guarantee made empirical: a key with true count 1
  // survives iff 1 + Lap(1/eps) > tau, which the threshold calibrates to
  // exactly delta. 20 single-record keys x 3000 reps = 60000 Bernoulli
  // trials at delta = 0.05: expect 3000 +- 5 * sqrt(60000 * .05 * .95)
  // ~ 3000 +- 267 releases.
  const int kKeys = 20;
  const int kReps = 3000;
  const double kDelta = 0.05;
  std::vector<SparseEntry> entries;
  for (int i = 0; i < kKeys; ++i) {
    entries.push_back({static_cast<std::uint64_t>(i * 1000), 1.0});
  }
  const SparseHistogram truth = MustCreate(1ULL << 30, std::move(entries));
  UnknownDomainPublisher::Options options;
  options.delta = kDelta;
  UnknownDomainPublisher publisher(options);
  Rng rng(424243);
  double leaked = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng run = rng.Fork();
    SparsePublishStats stats;
    auto released = publisher.Publish(truth, 1.0, run, &stats);
    ASSERT_TRUE(released.ok()) << released.status().ToString();
    leaked += static_cast<double>(stats.released_keys);
  }
  const double trials = static_cast<double>(kKeys) * kReps;
  const double expected = trials * kDelta;
  const double sigma = std::sqrt(trials * kDelta * (1.0 - kDelta));
  EXPECT_NEAR(leaked, expected, 5.0 * sigma);
}

TEST(UnknownDomainTest, HeavyKeysAreAlwaysReleased) {
  const SparseHistogram truth = MustCreate(1000, {{7, 500.0}});
  UnknownDomainPublisher publisher;  // tau ~ 21 at eps = 1, count 500
  Rng rng(31337);
  for (int rep = 0; rep < 500; ++rep) {
    Rng run = rng.Fork();
    auto released = publisher.Publish(truth, 1.0, run);
    ASSERT_TRUE(released.ok());
    EXPECT_NE(released.value().CountFor(7), 0.0) << "rep " << rep;
  }
}

TEST(UnknownDomainTest, AccountChargeTracksDelta) {
  UnknownDomainPublisher::Options options;
  options.delta = 1e-6;
  UnknownDomainPublisher publisher(options);
  BudgetAccountant accountant(1.0, 1e-5);
  ASSERT_TRUE(publisher.AccountCharge(accountant, 0.25, "release-1").ok());
  EXPECT_DOUBLE_EQ(accountant.spent_epsilon(), 0.25);
  EXPECT_DOUBLE_EQ(accountant.spent_delta(), 1e-6);
}

TEST(UnknownDomainTest, AccountChargeRefusedWithoutDeltaGrant) {
  UnknownDomainPublisher publisher;  // delta = 1e-9 > 0
  BudgetAccountant pure_only(1.0);   // no delta budget
  const Status status = publisher.AccountCharge(pure_only, 0.25, "release");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(SparsePublisherValidationTest, RejectsInvalidArguments) {
  SparsePurePublisher pure;
  UnknownDomainPublisher unknown;
  const SparseHistogram empty_domain;  // default: domain 0
  const SparseHistogram valid = MustCreate(100, {{1, 2.0}});
  Rng rng(1);
  for (const SparseHistogramPublisher* publisher :
       {static_cast<const SparseHistogramPublisher*>(&pure),
        static_cast<const SparseHistogramPublisher*>(&unknown)}) {
    auto no_domain = publisher->Publish(empty_domain, 1.0, rng);
    ASSERT_FALSE(no_domain.ok()) << publisher->name();
    EXPECT_EQ(no_domain.status().code(), StatusCode::kInvalidArgument);
    auto zero_eps = publisher->Publish(valid, 0.0, rng);
    ASSERT_FALSE(zero_eps.ok()) << publisher->name();
    EXPECT_EQ(zero_eps.status().code(), StatusCode::kInvalidArgument);
    auto negative_eps = publisher->Publish(valid, -1.0, rng);
    ASSERT_FALSE(negative_eps.ok()) << publisher->name();
    EXPECT_EQ(negative_eps.status().code(), StatusCode::kInvalidArgument);
    // An infinite epsilon would release every key's exact count.
    for (const double bad : {HUGE_VAL, -HUGE_VAL, std::nan("")}) {
      auto out = publisher->Publish(valid, bad, rng);
      ASSERT_FALSE(out.ok()) << publisher->name() << " " << bad;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << publisher->name() << " " << bad;
    }
  }
}

TEST(SparsePublisherValidationTest, RejectsNonFiniteCounts) {
  // The dense publishers' rule: a NaN or infinite count would release an
  // infinite count and a NaN total, so both sparse publishers refuse it
  // typed, naming the key.
  SparsePurePublisher pure;
  UnknownDomainPublisher unknown;
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    const SparseHistogram truth = MustCreate(100, {{1, 2.0}, {7, bad}});
    for (const SparseHistogramPublisher* publisher :
         {static_cast<const SparseHistogramPublisher*>(&pure),
          static_cast<const SparseHistogramPublisher*>(&unknown)}) {
      Rng rng(1);
      auto released = publisher->Publish(truth, 1.0, rng);
      ASSERT_FALSE(released.ok()) << publisher->name() << " " << bad;
      EXPECT_EQ(released.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(released.status().message().find("count of key 7 is"),
                std::string::npos)
          << released.status().ToString();
    }
  }
}

TEST(UnknownDomainTest, RejectsOutOfRangeDelta) {
  for (const double delta : {0.0, -0.1, 0.6, 1.0}) {
    UnknownDomainPublisher::Options options;
    options.delta = delta;
    UnknownDomainPublisher publisher(options);
    const SparseHistogram truth = MustCreate(100, {{1, 2.0}});
    Rng rng(2);
    auto released = publisher.Publish(truth, 1.0, rng);
    ASSERT_FALSE(released.ok()) << "delta " << delta;
    EXPECT_EQ(released.status().code(), StatusCode::kInvalidArgument);
  }
}

// The determinism contract: a publish with a given seed produces the exact
// same bytes whether it runs on the main thread or inside a worker of a
// wide pool, and whether DPHIST_THREADS is 1 or 4 — the sparse publishers
// draw from the caller's Rng alone, so thread count cannot perturb them.
TEST(SparseDeterminismTest, PublishIsBitwiseIdenticalAcrossThreadCounts) {
  const SparseHistogram truth = MustCreate(
      1ULL << 40, {{9, 35.0}, {1000, 40.0}, {1ULL << 35, 28.0}});
  SparsePurePublisher pure;
  UnknownDomainPublisher unknown;
  for (const SparseHistogramPublisher* publisher :
       {static_cast<const SparseHistogramPublisher*>(&pure),
        static_cast<const SparseHistogramPublisher*>(&unknown)}) {
    Rng reference_rng(6061);
    auto reference = publisher->Publish(truth, 1.0, reference_rng);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::uint64_t reference_fp =
        FingerprintSparseHistogram(reference.value());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(threads);
      std::vector<std::uint64_t> fingerprints(8, 0);
      pool.ParallelFor(0, fingerprints.size(), [&](std::size_t i) {
        Rng run(6061);
        auto released = publisher->Publish(truth, 1.0, run);
        fingerprints[i] =
            released.ok() ? FingerprintSparseHistogram(released.value()) : 0;
      });
      for (const std::uint64_t fp : fingerprints) {
        EXPECT_EQ(fp, reference_fp)
            << publisher->name() << " with " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace sparse
}  // namespace dphist
