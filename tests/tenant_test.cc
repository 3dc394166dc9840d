// Multi-tenant isolation: TenantKey/ShardMap basics, per-namespace ledgers,
// the typed kPermissionDenied contract for cross-tenant probes, and the
// regression for the pre-tenancy cache keying bug — two tenants serving
// identical data used to collide on the fingerprint-only ReleaseKey, which
// let one tenant's degraded request be answered from a release the other
// tenant paid for.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/data/generators.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/release_server.h"
#include "dphist/serve/shard.h"
#include "dphist/serve/tenant.h"

namespace dphist {
namespace serve {
namespace {

Histogram TestTruth(std::size_t n = 64, std::uint64_t seed = 5) {
  return MakeSearchLogs(n, seed).histogram;
}

TEST(TenantKeyTest, EqualityOrderingAndFormat) {
  const TenantKey a{"acme", "clicks"};
  const TenantKey b{"acme", "clicks"};
  const TenantKey c{"acme", "views"};
  const TenantKey d{"zeta", "clicks"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  TenantKeyLess less;
  EXPECT_TRUE(less(a, c));
  EXPECT_TRUE(less(a, d));
  EXPECT_FALSE(less(a, b));
  EXPECT_EQ(FormatTenantKey(a), "acme/clicks");
  EXPECT_EQ(DefaultTenantKey(), (TenantKey{"default", "default"}));
}

TEST(TenantKeyTest, HashSeparatesBoundaryAmbiguousNames) {
  // ("ab", "c") and ("a", "bc") must hash differently: the separator is
  // part of the stream, so moving a byte across the tenant/dataset
  // boundary changes the hash input.
  EXPECT_NE(HashTenantKey("ab", "c"), HashTenantKey("a", "bc"));
  EXPECT_EQ(HashTenantKey("ab", "c"), HashTenantKey(TenantKey{"ab", "c"}));
}

TEST(ShardMapTest, ResolvesCountAndRoutesStably) {
  const ShardMap map(4);
  EXPECT_EQ(map.count(), 4u);
  const TenantKey key{"acme", "clicks"};
  const std::size_t index = map.IndexFor(key);
  EXPECT_LT(index, 4u);
  // Routing is a pure function of the key.
  EXPECT_EQ(map.IndexFor(key), index);
  EXPECT_EQ(map.IndexFor("acme", "clicks"), index);
}

TEST(ShardMapTest, EnvKnobAndFloorOfOne) {
  ::setenv("DPHIST_SERVE_SHARDS", "3", 1);
  EXPECT_EQ(ShardMap(0).count(), 3u);
  // An explicit request wins over the environment.
  EXPECT_EQ(ShardMap(16).count(), 16u);
  ::unsetenv("DPHIST_SERVE_SHARDS");
  EXPECT_EQ(ShardMap(0).count(), kDefaultServeShards);
  EXPECT_GE(ResolveShardCount(0), 1u);
}

TEST(TenantServerTest, PerNamespaceLedgersAreIndependent) {
  ReleaseServer server;
  const TenantKey acme{"acme", "clicks"};
  const TenantKey zeta{"zeta", "logs"};
  ASSERT_TRUE(server.AddDataset(acme, TestTruth(64, 1), 1.0).ok());
  ASSERT_TRUE(server.AddDataset(zeta, TestTruth(64, 2), 0.5).ok());
  EXPECT_EQ(server.dataset_count(), 2u);

  ASSERT_TRUE(server.GetRelease(acme, {"noise_first", 0.8, 1}).ok());
  auto acme_ledger = server.LedgerFor(acme);
  auto zeta_ledger = server.LedgerFor(zeta);
  ASSERT_TRUE(acme_ledger.ok());
  ASSERT_TRUE(zeta_ledger.ok());
  // Spending acme's budget leaves zeta's untouched.
  EXPECT_DOUBLE_EQ(acme_ledger.value()->spent_epsilon(), 0.8);
  EXPECT_DOUBLE_EQ(zeta_ledger.value()->spent_epsilon(), 0.0);

  // zeta still has its full (smaller) grant.
  ASSERT_TRUE(server.GetRelease(zeta, {"noise_first", 0.5, 1}).ok());
  EXPECT_DOUBLE_EQ(zeta_ledger.value()->spent_epsilon(), 0.5);
}

// A dataset with a NaN or infinite count can never publish, so it is
// refused at registration: no namespace and no ledger exist, and a request
// for it is an ordinary NotFound that charges nothing.
TEST(TenantServerTest, NonFiniteCountsRefusedAtRegistration) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    ReleaseServer server;
    const TenantKey key{"acme", "clicks"};
    std::vector<double> counts = TestTruth().counts();
    counts[3] = bad;
    const Status added =
        server.AddDataset(key, Histogram(std::move(counts)), 1.0);
    EXPECT_EQ(added.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(server.dataset_count(), 0u);
    EXPECT_EQ(server.LedgerFor(key).status().code(), StatusCode::kNotFound);
    auto release = server.GetRelease(key, {"structure_first", 0.5, 1});
    ASSERT_FALSE(release.ok());
    EXPECT_EQ(release.status().code(), StatusCode::kNotFound);

    // The single-tenant constructor registers nothing either.
    std::vector<double> single = TestTruth().counts();
    single[0] = bad;
    ReleaseServer legacy(Histogram(std::move(single)), 1.0);
    EXPECT_EQ(legacy.dataset_count(), 0u);
    EXPECT_EQ(legacy.GetRelease(DefaultTenantKey(), {"dwork", 0.5, 1})
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
}

TEST(TenantServerTest, CrossTenantProbeIsPermissionDeniedNotNotFound) {
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddDataset({"acme", "clicks"}, TestTruth(), 1.0).ok());

  // Same dataset name, wrong tenant: typed isolation error.
  auto probe = server.GetRelease({"zeta", "clicks"}, {"noise_first", 0.1, 1});
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kPermissionDenied);

  // A name nobody registered is an ordinary NotFound.
  auto missing =
      server.GetRelease({"zeta", "nonexistent"}, {"noise_first", 0.1, 1});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Same typing through the batch path and the ledger accessor.
  Rng workload_rng(3);
  auto queries = RandomRangeWorkload(64, 5, workload_rng);
  ASSERT_TRUE(queries.ok());
  auto batch = server.AnswerBatch({"zeta", "clicks"}, queries.value(),
                                  {"noise_first", 0.1, 1});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server.LedgerFor({"zeta", "clicks"}).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(TenantServerTest, DuplicateRegistrationRejected) {
  ReleaseServer server;
  ASSERT_TRUE(server.AddDataset({"acme", "clicks"}, TestTruth(), 1.0).ok());
  auto again = server.AddDataset({"acme", "clicks"}, TestTruth(), 2.0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.dataset_count(), 1u);
}

TEST(TenantServerTest, IdenticalDataAcrossTenantsNoLongerCollides) {
  // THE regression test for the pre-tenancy keying bug. Both tenants serve
  // the byte-identical histogram, so their fingerprints are equal — the
  // old fingerprint-keyed cache would have coalesced them into one entry,
  // charging one tenant and serving the other for free (and leaking the
  // release across the boundary).
  const Histogram shared_truth = TestTruth(64, 9);
  ReleaseServer server;
  const TenantKey acme{"acme", "common"};
  const TenantKey zeta{"zeta", "common_mirror"};
  ASSERT_TRUE(server.AddDataset(acme, shared_truth, 1.0).ok());
  ASSERT_TRUE(server.AddDataset(zeta, shared_truth, 1.0).ok());

  const ServeRequest request{"noise_first", 0.3, 42};
  auto acme_release = server.GetRelease(acme, request);
  auto zeta_release = server.GetRelease(zeta, request);
  ASSERT_TRUE(acme_release.ok());
  ASSERT_TRUE(zeta_release.ok());

  // Identical inputs produce identical *counts* (deterministic publisher)
  // but the releases are distinct cache entries under distinct keys...
  EXPECT_NE(acme_release.value().get(), zeta_release.value().get());
  EXPECT_EQ(acme_release.value()->key().tenant, "acme");
  EXPECT_EQ(zeta_release.value()->key().tenant, "zeta");
  EXPECT_EQ(server.cache().size(), 2u);
  // ...and each tenant paid for its own: both ledgers moved.
  EXPECT_DOUBLE_EQ(server.LedgerFor(acme).value()->spent_epsilon(), 0.3);
  EXPECT_DOUBLE_EQ(server.LedgerFor(zeta).value()->spent_epsilon(), 0.3);
}

TEST(TenantServerTest, DegradedServingNeverCrossesTheBoundary) {
  // acme has a cached release; zeta exhausts its own budget with an empty
  // namespace cache. Degradation must FAIL for zeta rather than serve it
  // acme's release — even though the truths are identical.
  const Histogram shared_truth = TestTruth(64, 11);
  ReleaseServer server;
  const TenantKey acme{"acme", "common"};
  const TenantKey zeta{"zeta", "mirror"};
  ASSERT_TRUE(server.AddDataset(acme, shared_truth, 1.0).ok());
  ASSERT_TRUE(server.AddDataset(zeta, shared_truth, 0.05).ok());
  Rng workload_rng(13);
  auto queries = RandomRangeWorkload(64, 10, workload_rng);
  ASSERT_TRUE(queries.ok());

  ASSERT_TRUE(
      server.AnswerBatch(acme, queries.value(), {"noise_first", 0.3, 1})
          .ok());
  auto starved = server.AnswerBatch(zeta, queries.value(),
                                    {"noise_first", 0.3, 1});
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  // Within its own namespace, degradation still works.
  ASSERT_TRUE(
      server.AnswerBatch(zeta, queries.value(), {"noise_first", 0.04, 1})
          .ok());
  auto degraded = server.AnswerBatch(zeta, queries.value(),
                                     {"noise_first", 0.3, 2});
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().stale);
  EXPECT_EQ(degraded.value().served.tenant, "zeta");
}

TEST(TenantServerTest, LegacySingleTenantConstructorStillServes) {
  // The pre-tenancy constructor registers the default namespace; the
  // tenant-less overloads keep working unchanged.
  ReleaseServer server(TestTruth(), 1.0);
  EXPECT_EQ(server.dataset_count(), 1u);
  auto release = server.GetRelease({"noise_first", 0.2, 1});
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release.value()->key().tenant, "default");
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.2);
  EXPECT_EQ(server.fingerprint(), FingerprintHistogram(TestTruth()));
  EXPECT_EQ(server.domain_size(), 64u);
}

}  // namespace
}  // namespace serve
}  // namespace dphist
