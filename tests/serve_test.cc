// The release-serving subsystem: cache identity and O(1) answering,
// exactly-once publication, typed budget refusal, and the degradation
// contract (budget exhausted -> newest cached release, flagged stale).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/data/generators.h"
#include "dphist/obs/obs.h"
#include "dphist/query/range_query.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/budget_ledger.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_cache.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace serve {
namespace {

Histogram TestTruth(std::size_t n = 64, std::uint64_t seed = 5) {
  return MakeSearchLogs(n, seed).histogram;
}

// Default-namespace key (the shape most cache tests exercise; tenant
// isolation has its own suite in tenant_test.cc).
ReleaseKey Key(std::uint64_t fingerprint, std::string publisher,
               double epsilon, std::uint64_t seed) {
  return {"default", "default", fingerprint, std::move(publisher), epsilon,
          seed};
}

TEST(FingerprintTest, DistinguishesHistograms) {
  const Histogram a({1, 2, 3});
  const Histogram b({1, 2, 4});
  const Histogram c({1, 2, 3, 0});
  EXPECT_EQ(FingerprintHistogram(a),
            FingerprintHistogram(Histogram({1, 2, 3})));
  EXPECT_NE(FingerprintHistogram(a), FingerprintHistogram(b));
  EXPECT_NE(FingerprintHistogram(a), FingerprintHistogram(c));
}

// A cached release is a SealedRelease keyed by its request.
TEST(CachedReleaseTest, RangeSumMatchesHistogram) {
  const Histogram truth = TestTruth(32);
  SealedRelease release(Key(1, "direct", 0.5, 7), truth);
  EXPECT_EQ(release.size(), truth.size());
  for (std::size_t begin = 0; begin < truth.size(); begin += 5) {
    for (std::size_t end = begin + 1; end <= truth.size(); end += 7) {
      EXPECT_NEAR(release.RangeSum(begin, end),
                  truth.RangeSumUnchecked(begin, end), 1e-9)
          << begin << ".." << end;
    }
  }
}

TEST(ReleaseCacheTest, GetOrPublishPublishesOncePerKey) {
  ReleaseCache cache;
  const ReleaseKey key = Key(42, "noise_first", 0.1, 1);
  int publishes = 0;
  auto publish = [&](const ReleaseKey& k) {
    return [&, k]() -> Result<std::shared_ptr<SealedRelease>> {
      ++publishes;
      return std::make_shared<SealedRelease>(k, Histogram({1, 2, 3}));
    };
  };
  auto first = cache.GetOrPublish(key, publish(key));
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPublish(key, publish(key));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(publishes, 1);
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.size(), 1u);

  // A different key publishes separately.
  const ReleaseKey other_key = Key(42, "noise_first", 0.1, 2);
  auto other = cache.GetOrPublish(other_key, publish(other_key));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(publishes, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReleaseCacheTest, FailedPublishCachesNothingAndAllowsRetry) {
  ReleaseCache cache;
  const ReleaseKey key = Key(7, "p", 0.1, 1);
  auto failing = [&]() -> Result<std::shared_ptr<SealedRelease>> {
    return Status::ResourceExhausted("no budget");
  };
  auto refused = cache.GetOrPublish(key, failing);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.size(), 0u);

  auto retried =
      cache.GetOrPublish(key, [&]() -> Result<std::shared_ptr<SealedRelease>> {
        return std::make_shared<SealedRelease>(key, Histogram({9}));
      });
  ASSERT_TRUE(retried.ok());
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(ReleaseCacheTest, NewestForOrdersBySequenceAndFiltersPublisher) {
  ReleaseCache cache;
  const TenantKey ns{"default", "d1"};
  const TenantKey other_ns{"default", "d2"};
  // Publishes a one-bin release holding `v` under (namespace, publisher,
  // epsilon).
  auto publish = [&cache](const TenantKey& k, std::string publisher,
                          double epsilon, double v) {
    const ReleaseKey key{k.tenant, k.dataset, 1, std::move(publisher),
                         epsilon, 1};
    return cache.GetOrPublish(
        key, [&key, v]() -> Result<std::shared_ptr<SealedRelease>> {
          return std::make_shared<SealedRelease>(key, Histogram({v}));
        });
  };
  ASSERT_TRUE(publish(ns, "nf", 0.1, 1).ok());
  ASSERT_TRUE(publish(ns, "dwork", 0.1, 2).ok());
  ASSERT_TRUE(publish(ns, "nf", 0.2, 3).ok());
  ASSERT_TRUE(publish(other_ns, "nf", 0.1, 4).ok());

  auto newest_nf = cache.NewestFor(ns, "nf");
  ASSERT_NE(newest_nf, nullptr);
  EXPECT_DOUBLE_EQ(newest_nf->histogram().count(0), 3.0);

  auto newest_any = cache.NewestFor(ns, "");
  ASSERT_NE(newest_any, nullptr);
  EXPECT_DOUBLE_EQ(newest_any->histogram().count(0), 3.0);

  EXPECT_EQ(cache.NewestFor(ns, "privelet"), nullptr);
  EXPECT_EQ(cache.NewestFor({"default", "absent"}, ""), nullptr);
}

TEST(BudgetLedgerTest, ChargesAndTypedRefusal) {
  BudgetLedger ledger(1.0);
  EXPECT_TRUE(ledger.Charge(0.6, "a").ok());
  EXPECT_DOUBLE_EQ(ledger.spent_epsilon(), 0.6);
  const Status refused = ledger.Charge(0.6, "b");
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(ledger.spent_epsilon(), 0.6);
  EXPECT_TRUE(ledger.ChargeParallel(0.4, "bins", "bin 0").ok());
  EXPECT_NEAR(ledger.remaining_epsilon(), 0.0, 1e-12);
  EXPECT_EQ(ledger.charge_count(), 2u);
  EXPECT_NE(ledger.ToString().find("bins"), std::string::npos);
}

TEST(ReleaseServerTest, ReleaseMatchesDirectPublish) {
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, /*total_epsilon=*/10.0);
  const ServeRequest request{"noise_first", 0.5, 123};
  auto release = server.GetRelease(request);
  ASSERT_TRUE(release.ok());

  auto publisher = PublisherRegistry::Make("noise_first");
  ASSERT_TRUE(publisher.ok());
  Rng rng(123);
  auto direct = publisher.value()->Publish(truth, 0.5, rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(release.value()->histogram().counts(), direct.value().counts());
}

TEST(ReleaseServerTest, BatchAnswersMatchAnswerQueries) {
  const Histogram truth = TestTruth(128);
  ReleaseServer server(truth, 10.0);
  const ServeRequest request{"dwork", 0.5, 9};
  Rng workload_rng(17);
  auto queries = RandomRangeWorkload(truth.size(), 200, workload_rng);
  ASSERT_TRUE(queries.ok());

  auto batch = server.AnswerBatch(queries.value(), request);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch.value().stale);

  auto release = server.GetRelease(request);
  ASSERT_TRUE(release.ok());
  auto expected = AnswerQueries(release.value()->histogram(),
                                queries.value());
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(batch.value().answers.size(), expected.value().size());
  for (std::size_t i = 0; i < expected.value().size(); ++i) {
    EXPECT_NEAR(batch.value().answers[i], expected.value()[i], 1e-9) << i;
  }
}

TEST(ReleaseServerTest, LargeBatchParallelMatchesInline) {
  const Histogram truth = TestTruth(256);
  // One server fans large batches across the global pool; the other is
  // forced inline by an unreachable threshold. Answers must be identical.
  ReleaseServer parallel_server(truth, 10.0);
  ReleaseServerOptions inline_options;
  inline_options.min_parallel_batch = static_cast<std::size_t>(-1);
  ReleaseServer inline_server(truth, 10.0, inline_options);
  const ServeRequest request{"dwork", 0.5, 3};
  Rng workload_rng(23);
  auto queries = RandomRangeWorkload(truth.size(), 2048, workload_rng);
  ASSERT_TRUE(queries.ok());

  auto a = parallel_server.AnswerBatch(queries.value(), request);
  auto b = inline_server.AnswerBatch(queries.value(), request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().answers, b.value().answers);
}

TEST(ReleaseServerTest, CacheHitAnswersWithZeroPublisherInvocations) {
  // The acceptance check: a second batch for the same (publisher, epsilon,
  // seed) must be answered entirely from cache — the instrumented
  // publisher run counter and the ledger must not move, and the serve
  // counters must record a hit.
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, 10.0);
  const ServeRequest request{"noise_first", 0.5, 77};
  Rng workload_rng(31);
  auto queries = RandomRangeWorkload(truth.size(), 50, workload_rng);
  ASSERT_TRUE(queries.ok());

  auto first = server.AnswerBatch(queries.value(), request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  obs::Counter& runs =
      obs::Registry::Global().GetCounter("publisher/noise_first/runs");
  obs::Counter& hits = obs::Registry::Global().GetCounter("serve/cache/hits");
  obs::Counter& misses =
      obs::Registry::Global().GetCounter("serve/cache/misses");
  const std::uint64_t runs_after_first = runs.value();
  const std::uint64_t misses_after_first = misses.value();
  EXPECT_EQ(runs_after_first, 1u);
  EXPECT_EQ(misses_after_first, 1u);
  const double spent_after_first = server.ledger().spent_epsilon();
  const std::uint64_t hits_before = hits.value();

  auto second = server.AnswerBatch(queries.value(), request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().answers, first.value().answers);
  EXPECT_EQ(runs.value(), runs_after_first);       // zero new publisher runs
  EXPECT_EQ(misses.value(), misses_after_first);   // zero new misses
  EXPECT_GT(hits.value(), hits_before);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), spent_after_first);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

TEST(ReleaseServerTest, BudgetRefusalDegradesToNewestSealedRelease) {
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, /*total_epsilon=*/0.25);
  Rng workload_rng(41);
  auto queries = RandomRangeWorkload(truth.size(), 30, workload_rng);
  ASSERT_TRUE(queries.ok());

  const ServeRequest affordable{"noise_first", 0.2, 1};
  auto fresh = server.AnswerBatch(queries.value(), affordable);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().stale);

  // A second distinct release does not fit in the remaining 0.05: the
  // batch must still succeed, served from the seed-1 release, flagged
  // stale, with no budget spent.
  const double spent_before = server.ledger().spent_epsilon();
  const ServeRequest unaffordable{"noise_first", 0.2, 2};
  auto degraded = server.AnswerBatch(queries.value(), unaffordable);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().stale);
  EXPECT_EQ(degraded.value().served.seed, 1u);
  EXPECT_EQ(degraded.value().answers, fresh.value().answers);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), spent_before);

  // Direct GetRelease keeps the typed refusal (no degradation policy).
  auto refused = server.GetRelease(unaffordable);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(ReleaseServerTest, RefusalWithEmptyCacheFailsBatchTyped) {
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, /*total_epsilon=*/0.05);
  Rng workload_rng(43);
  auto queries = RandomRangeWorkload(truth.size(), 10, workload_rng);
  ASSERT_TRUE(queries.ok());
  auto batch = server.AnswerBatch(queries.value(), {"dwork", 0.2, 1});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
}

TEST(ReleaseServerTest, NeverPublishedDatasetFailsTypedAndNeverCountsStale) {
  // The degradation gap: with *nothing* ever published there is no stale
  // release to fall back to, so the batch must fail with the ledger's
  // typed refusal — and the stale counter must not move, because nothing
  // stale was served. (A counter bump here would make dashboards report a
  // degradation that never happened.)
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, /*total_epsilon=*/0.05);
  Rng workload_rng(53);
  auto queries = RandomRangeWorkload(truth.size(), 10, workload_rng);
  ASSERT_TRUE(queries.ok());
  obs::Counter& stale =
      obs::Registry::Global().GetCounter("serve/batches_stale");
  obs::Counter& batches = obs::Registry::Global().GetCounter("serve/batches");
  const std::uint64_t stale_before = stale.value();
  const std::uint64_t batches_before = batches.value();

  auto refused = server.AnswerBatch(queries.value(), {"dwork", 0.2, 1});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stale.value(), stale_before);        // no phantom degradation
  EXPECT_EQ(batches.value(), batches_before + 1);  // the attempt counted
  EXPECT_EQ(server.cache().size(), 0u);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.0);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

TEST(ReleaseServerTest, RetryPolicyDefaultsAreSingleShotAndDeadlineFree) {
  // Defaults must preserve the historical single-attempt behavior: a
  // non-transient failure surfaces immediately, and a deadline configured
  // alongside a successful first attempt never fires.
  const Histogram truth = TestTruth();
  FakeClock clock;
  ReleaseServerOptions options;
  options.clock = &clock;
  options.retry.deadline = std::chrono::milliseconds(1);
  ReleaseServer server(truth, 10.0, options);
  Rng workload_rng(59);
  auto queries = RandomRangeWorkload(truth.size(), 10, workload_rng);
  ASSERT_TRUE(queries.ok());

  auto ok = server.AnswerBatch(queries.value(), {"dwork", 0.2, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(clock.total_slept(), std::chrono::nanoseconds(0));

  auto missing = server.AnswerBatch(queries.value(),
                                    {"no_such_algorithm", 0.2, 1});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(clock.total_slept(), std::chrono::nanoseconds(0));
}

TEST(ReleaseServerTest, StaleServePrefersSamePublisher) {
  const Histogram truth = TestTruth();
  ReleaseServer server(truth, /*total_epsilon=*/0.4);
  Rng workload_rng(47);
  auto queries = RandomRangeWorkload(truth.size(), 10, workload_rng);
  ASSERT_TRUE(queries.ok());

  ASSERT_TRUE(
      server.AnswerBatch(queries.value(), {"noise_first", 0.2, 1}).ok());
  ASSERT_TRUE(server.AnswerBatch(queries.value(), {"dwork", 0.2, 2}).ok());

  // noise_first is older than dwork, but a degraded noise_first request
  // must still prefer the noise_first release.
  auto same = server.AnswerBatch(queries.value(), {"noise_first", 0.2, 3});
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same.value().stale);
  EXPECT_EQ(same.value().served.publisher, "noise_first");

  // A publisher with no cached release falls back to the newest of any.
  auto any = server.AnswerBatch(queries.value(), {"privelet", 0.2, 4});
  ASSERT_TRUE(any.ok());
  EXPECT_TRUE(any.value().stale);
  EXPECT_EQ(any.value().served.publisher, "dwork");
}

TEST(ReleaseServerTest, UnknownPublisherIsNotFound) {
  ReleaseServer server(TestTruth(), 1.0);
  auto release = server.GetRelease({"no_such_algorithm", 0.1, 1});
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kNotFound);
  // An unknown publisher must not consume budget.
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.0);
}

TEST(ReleaseServerTest, OutOfDomainQueryRejected) {
  ReleaseServer server(TestTruth(16), 1.0);
  const std::vector<RangeQuery> bad = {{0, 17}};
  auto batch = server.AnswerBatch(bad, {"dwork", 0.1, 1});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReleaseServerTest, ChargesOncePerReleaseKey) {
  ReleaseServer server(TestTruth(), 10.0);
  const ServeRequest request{"dwork", 0.3, 5};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.GetRelease(request).ok());
  }
  EXPECT_EQ(server.ledger().charge_count(), 1u);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.3);
  // A different seed is a different release and a second charge.
  ASSERT_TRUE(server.GetRelease({"dwork", 0.3, 6}).ok());
  EXPECT_EQ(server.ledger().charge_count(), 2u);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.6);
}

// Every count's bits, so a -0.0 for a 0.0 counts as a change.
std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// StructureFirst's release of `truth` published from scratch, through the
// unprepared Publish.
std::vector<std::uint64_t> DirectStructureFirst(const Histogram& truth,
                                                double epsilon,
                                                std::uint64_t seed) {
  auto publisher = PublisherRegistry::Make("structure_first");
  Rng rng(seed);
  auto released = publisher.value()->Publish(truth, epsilon, rng);
  EXPECT_TRUE(released.ok()) << released.status().ToString();
  return released.ok() ? Bits(released.value().counts())
                       : std::vector<std::uint64_t>();
}

TEST(ReleaseServerPrepareTest, RacingFirstPublishesBuildTheTableOnce) {
  // Four threads publish four fresh StructureFirst keys of one dataset at
  // once. The first to reach the prepared slot builds the cost table; the
  // other three wait for it and reuse it.
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  const Histogram truth = MakeNetTrace(512, 3).histogram;
  ReleaseServer server(truth, 10.0);
  obs::Counter& builds =
      obs::Registry::Global().GetCounter("serve/prepare/builds");
  obs::Counter& reuses =
      obs::Registry::Global().GetCounter("serve/prepare/reuses");
  obs::Counter& tables =
      obs::Registry::Global().GetCounter("interval_cost/builds");
  constexpr std::size_t kThreads = 4;
  std::latch start(kThreads);
  std::vector<Result<std::shared_ptr<const SealedRelease>>> released(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      released[t] = server.GetRelease({"structure_first", 0.5, 100 + t});
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(builds.value(), 1u);
  EXPECT_EQ(reuses.value(), kThreads - 1);
  EXPECT_EQ(tables.value(), 1u);
  EXPECT_EQ(server.ledger().charge_count(), kThreads);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 2.0);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(released[t].ok()) << released[t].status().ToString();
    EXPECT_EQ(Bits(released[t].value()->histogram().counts()),
              DirectStructureFirst(truth, 0.5, 100 + t))
        << "seed " << 100 + t;
  }
}

TEST(ReleaseServerPrepareTest, OneStagePerDatasetAndPublisher) {
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  ReleaseServer server;
  const TenantKey a{"acme", "trace"};
  const TenantKey b{"acme", "logs"};
  ASSERT_TRUE(server.AddDataset(a, MakeNetTrace(128, 1).histogram, 10.0).ok());
  ASSERT_TRUE(
      server.AddDataset(b, MakeSearchLogs(128, 1).histogram, 10.0).ok());
  for (std::uint64_t seed : {1, 2}) {
    for (const TenantKey& key : {a, b}) {
      for (const char* publisher : {"structure_first", "noise_first"}) {
        ASSERT_TRUE(server.GetRelease(key, {publisher, 0.1, seed}).ok());
      }
    }
  }
  // The first seed builds one stage per (dataset, publisher); the second
  // reuses each. A publisher with nothing to prepare still gets its slot.
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("serve/prepare/builds").value(),
      4u);
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("serve/prepare/reuses").value(),
      4u);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

TEST(ReleaseServerPrepareTest, LedgerAndJournalRecordsAreUnchanged) {
  // A prepared stage is never charged and never journaled: the journal
  // holds exactly the records of a server that publishes every release
  // from scratch, a charge then its publication per fresh key, and each
  // publication carries the bits of the unprepared Publish.
  const std::string path = ::testing::TempDir() + "/serve_prepare_test.jnl";
  std::remove(path.c_str());
  const Histogram truth = MakeSearchLogs(256, 8).histogram;
  const std::vector<std::uint64_t> requested = {7, 8, 7, 9, 8};
  const std::vector<std::uint64_t> fresh = {7, 8, 9};
  {
    auto journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ReleaseServerOptions options;
    options.journal = journal.value().get();
    ReleaseServer server(truth, 10.0, options);
    for (std::uint64_t seed : requested) {
      ASSERT_TRUE(server.GetRelease({"structure_first", 0.25, seed}).ok());
    }
    EXPECT_EQ(server.ledger().charge_count(), fresh.size());
    EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.75);
  }
  auto replayed = ReplayJournalFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const std::vector<JournalRecord>& records = replayed.value().records;
  ASSERT_EQ(records.size(), 2 * fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const JournalRecord& charge = records[2 * i];
    const JournalRecord& publish = records[2 * i + 1];
    EXPECT_EQ(charge.type, JournalRecord::Type::kCharge);
    EXPECT_EQ(charge.key, DefaultTenantKey());
    EXPECT_EQ(charge.epsilon, 0.25);
    EXPECT_EQ(charge.label,
              "structure_first:seed=" + std::to_string(fresh[i]));
    EXPECT_EQ(publish.type, JournalRecord::Type::kPublish);
    EXPECT_EQ(publish.fingerprint, FingerprintHistogram(truth));
    EXPECT_EQ(publish.publisher, "structure_first");
    EXPECT_EQ(publish.epsilon, 0.25);
    EXPECT_EQ(publish.seed, fresh[i]);
    EXPECT_EQ(Bits(publish.counts),
              DirectStructureFirst(truth, 0.25, fresh[i]));
  }
}

TEST(ReleaseServerTest, NonFiniteEpsilonIsRefusedBeforeAnyLookupOrCharge) {
  // A NaN epsilon passes `epsilon <= 0`, and in the cache's order it once
  // matched any key differing from it only in epsilon or seed. Every
  // entry point refuses it (and +-inf) first: no charge, no journal
  // record, no cache entry, and no release of another key.
  const std::string path = ::testing::TempDir() + "/serve_nan_epsilon.jnl";
  std::remove(path.c_str());
  auto journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ReleaseServerOptions options;
  options.journal = journal.value().get();
  ReleaseServer server(TestTruth(), 1.0, options);
  ASSERT_TRUE(server.GetRelease({"noise_first", 0.5, 3}).ok());
  const std::size_t charges = server.ledger().charge_count();
  const double spent = server.ledger().spent_epsilon();
  const std::size_t cached = server.cache().size();
  const auto journal_bytes = [&path] {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    return size;
  };
  const long journaled = journal_bytes();
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    const ServeRequest request{"noise_first", epsilon, 3};
    EXPECT_EQ(server.GetRelease(request).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(server.AnswerBatch({{0, 4}}, request).status().code(),
              StatusCode::kInvalidArgument);
    BatchAnswer answer;
    EXPECT_EQ(server.TryAnswerCached(DefaultTenantKey(), {{0, 4}}, request,
                                     &answer)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(server.TryGetCached(DefaultTenantKey(), request), nullptr);
  }
  EXPECT_EQ(server.ledger().charge_count(), charges);
  EXPECT_EQ(server.ledger().spent_epsilon(), spent);
  EXPECT_EQ(server.cache().size(), cached);
  EXPECT_EQ(journal_bytes(), journaled);
  // The next valid request is charged once, and the budget still binds.
  ASSERT_TRUE(server.GetRelease({"noise_first", 0.4, 4}).ok());
  EXPECT_EQ(server.ledger().charge_count(), charges + 1);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), spent + 0.4);
  EXPECT_EQ(server.GetRelease({"noise_first", 0.2, 5}).status().code(),
            StatusCode::kResourceExhausted);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace dphist
