// Sparse datasets through the serving stack: registration, deterministic
// releases matching a direct publish, cache-hit coalescing with a single
// budget charge, batch answers equal to the sparse query path, budget
// refusal degrading to the newest cached release, journaled publications
// replaying exactly-once through Recover, and the sparse release frame
// served over a real loopback socket.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/net/client.h"
#include "dphist/net/server.h"
#include "dphist/net/wire_codec.h"
#include "dphist/query/sparse_query.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace serve {
namespace {

sparse::SparseHistogram TestTruth(std::uint64_t domain = 1ULL << 40) {
  std::vector<sparse::SparseEntry> entries;
  for (std::uint64_t i = 0; i < 24; ++i) {
    entries.push_back(
        {i * (domain / 32) + 7, 30.0 + static_cast<double>(i % 5) * 4.0});
  }
  auto truth = sparse::SparseHistogram::Create(domain, std::move(entries));
  EXPECT_TRUE(truth.ok()) << truth.status().ToString();
  return std::move(truth).value();
}

ServeRequest SparseRequest(std::uint64_t seed = 42) {
  ServeRequest request;
  request.publisher = "sparse_pure";
  request.epsilon = 1.0;
  request.seed = seed;
  return request;
}

TEST(SparseServeTest, ReleaseMatchesDirectPublish) {
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, TestTruth(), 10.0).ok());
  auto release = server.GetRelease(SparseRequest());
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  ASSERT_TRUE(release.value()->is_sparse());

  auto publisher = PublisherRegistry::MakeSparse("sparse_pure");
  ASSERT_TRUE(publisher.ok());
  Rng rng(42);
  auto direct = publisher.value()->Publish(TestTruth(), 1.0, rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(release.value()->sparse_histogram() == direct.value());
}

TEST(SparseServeTest, CacheHitChargesOnce) {
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, TestTruth(), 10.0).ok());
  auto first = server.GetRelease(SparseRequest());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const double spent = server.ledger().spent_epsilon();
  EXPECT_DOUBLE_EQ(spent, 1.0);
  auto second = server.GetRelease(SparseRequest());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), spent);
}

TEST(SparseServeTest, BatchAnswersMatchSparseQueryPath) {
  const sparse::SparseHistogram truth = TestTruth();
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, truth, 10.0).ok());
  const std::vector<RangeQuery> queries = {
      {0, static_cast<std::size_t>(truth.domain_size())},
      {0, 1000},
      {static_cast<std::size_t>(truth.domain_size() / 2),
       static_cast<std::size_t>(truth.domain_size())}};
  auto batch = server.AnswerBatch(queries, SparseRequest());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch.value().stale);

  auto release = server.GetRelease(SparseRequest());
  ASSERT_TRUE(release.ok());
  auto expected =
      AnswerQueriesSparse(release.value()->sparse_histogram(), queries);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(batch.value().answers, expected.value());
}

TEST(SparseServeTest, OutOfDomainQueryRejected) {
  const sparse::SparseHistogram truth = TestTruth();
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, truth, 10.0).ok());
  const std::vector<RangeQuery> queries = {
      {0, static_cast<std::size_t>(truth.domain_size()) + 1}};
  auto batch = server.AnswerBatch(queries, SparseRequest());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseServeTest, DensePublisherOnSparseDatasetIsNotFound) {
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, TestTruth(), 10.0).ok());
  ServeRequest request = SparseRequest();
  request.publisher = "noise_first";
  auto release = server.GetRelease(request);
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kNotFound);
}

TEST(SparseServeTest, NonFiniteCountsAreRefusedBeforeAnyCharge) {
  // The one registration path refuses NaN and infinite counts for sparse
  // datasets as it does for dense ones, before any ledger exists: the
  // namespace stays unknown and no request can charge it.
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    ReleaseServer server;
    auto truth = sparse::SparseHistogram::Create(
        1ULL << 40, {{5, 30.0}, {1ULL << 39, bad}});
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    const Status added = server.AddSparseDataset(
        {"default", "default"}, std::move(truth).value(), 10.0);
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(added.message().find("count of key " +
                                   std::to_string(1ULL << 39) + " is"),
              std::string::npos)
        << added.ToString();
    EXPECT_EQ(server.dataset_count(), 0u);
    auto release = server.GetRelease(SparseRequest());
    ASSERT_FALSE(release.ok());
    EXPECT_EQ(release.status().code(), StatusCode::kNotFound);
    EXPECT_FALSE(server.LedgerFor({"default", "default"}).ok());
  }
}

TEST(SparseServeTest, BudgetRefusalDegradesToNewestSealedRelease) {
  ReleaseServer server;
  ASSERT_TRUE(
      server.AddSparseDataset({"default", "default"}, TestTruth(), 1.5).ok());
  const std::vector<RangeQuery> queries = {{0, 1000000}};
  auto first = server.AnswerBatch(queries, SparseRequest(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().stale);
  // Second distinct release (seed 2) would cost another 1.0 > remaining
  // 0.5: the batch degrades to the cached seed-1 release.
  auto degraded = server.AnswerBatch(queries, SparseRequest(2));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().stale);
  EXPECT_EQ(degraded.value().served.seed, 1u);
  EXPECT_EQ(degraded.value().answers, first.value().answers);
}

class SparseJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs each case as its own process, so
    // cases of this fixture can run at the same time under `ctest -j`.
    path_ = ::testing::TempDir() + "/sparse_serve_journal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jnl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(SparseJournalTest, PublicationsReplayExactlyOnceThroughRecover) {
  const sparse::SparseHistogram truth = TestTruth();
  sparse::SparseHistogram published;
  double spent_before_crash = 0.0;
  {
    auto journal = Journal::Open(path_);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ReleaseServerOptions options;
    options.journal = journal.value().get();
    ReleaseServer server(options);
    ASSERT_TRUE(
        server.AddSparseDataset({"default", "default"}, truth, 10.0).ok());
    auto release = server.GetRelease(SparseRequest());
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    published = release.value()->sparse_histogram();
    spent_before_crash = server.ledger().spent_epsilon();
  }  // "crash": server and journal handle dropped

  auto replay = ReplayJournalFile(path_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ReleaseServer recovered;
  ASSERT_TRUE(
      recovered.AddSparseDataset({"default", "default"}, truth, 10.0).ok());
  auto stats = recovered.Recover(replay.value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().releases_replayed, 1u);
  EXPECT_EQ(stats.value().charges_replayed, 1u);
  EXPECT_EQ(stats.value().skipped, 0u);
  EXPECT_DOUBLE_EQ(recovered.ledger().spent_epsilon(),
                   spent_before_crash);

  // The recovered release serves as a cache hit: identical bytes, no new
  // charge.
  auto release = recovered.GetRelease(SparseRequest());
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_TRUE(release.value()->sparse_histogram() == published);
  EXPECT_DOUBLE_EQ(recovered.ledger().spent_epsilon(),
                   spent_before_crash);

  // Replaying the same journal again is idempotent: the insert is a no-op
  // and no spend is double-counted... except charges, which Recover
  // re-applies into the ledger by design — so recover into a fresh server
  // instead and observe identical results.
  ReleaseServer again;
  ASSERT_TRUE(
      again.AddSparseDataset({"default", "default"}, truth, 10.0).ok());
  auto stats_again = again.Recover(replay.value());
  ASSERT_TRUE(stats_again.ok());
  EXPECT_EQ(stats_again.value().releases_replayed, 1u);
  auto release_again = again.GetRelease(SparseRequest());
  ASSERT_TRUE(release_again.ok());
  EXPECT_TRUE(release_again.value()->sparse_histogram() == published);
}

TEST_F(SparseJournalTest, FingerprintMismatchSkipsReplay) {
  {
    auto journal = Journal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ReleaseServerOptions options;
    options.journal = journal.value().get();
    ReleaseServer server(options);
    ASSERT_TRUE(
        server.AddSparseDataset({"default", "default"}, TestTruth(), 10.0)
            .ok());
    ASSERT_TRUE(server.GetRelease(SparseRequest()).ok());
  }
  auto replay = ReplayJournalFile(path_);
  ASSERT_TRUE(replay.ok());
  // Re-register with a DIFFERENT truth: the journaled release talks about
  // data this server does not hold, so it must be skipped, not served.
  ReleaseServer recovered;
  ASSERT_TRUE(recovered
                  .AddSparseDataset({"default", "default"},
                                    TestTruth(1ULL << 30), 10.0)
                  .ok());
  auto stats = recovered.Recover(replay.value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().releases_replayed, 0u);
  EXPECT_GE(stats.value().skipped, 1u);
}

TEST(SparseNetTest, SparseReleaseShipsOverLoopbackInBothCodecs) {
  ThreadPool pool(2);
  ReleaseServer release_server;
  ASSERT_TRUE(
      release_server.AddSparseDataset({"default", "default"}, TestTruth(), 10.0)
          .ok());
  net::NetServerOptions options;
  options.pool = &pool;
  net::NetServer server(&release_server, options);
  ASSERT_TRUE(server.Start().ok());

  auto expected = release_server.GetRelease(SparseRequest());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const bool binary : {true, false}) {
    net::NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    net::WireQueryRequest query;
    query.request = SparseRequest();
    auto wire = client.SparseRelease(query, binary);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire.value().domain_size,
              expected.value()->sparse_histogram().domain_size());
    const auto& entries = expected.value()->sparse_histogram().entries();
    ASSERT_EQ(wire.value().keys.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(wire.value().keys[i], entries[i].key);
      EXPECT_EQ(wire.value().counts[i], entries[i].count);
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace dphist
