// Crash-recovery battery for the durable release store. The invariants:
//
//   * NO OVERSPEND: after any crash + replay, a namespace's replayed spend
//     never exceeds what the pre-crash ledger had committed, and never
//     exceeds the grant.
//   * EXACTLY-ONCE PUBLISH: every release that was acknowledged to a
//     caller before the crash is present after replay (acked => durable),
//     and replaying a journal reconstructs each release at most once.
//   * DETERMINISM: the same schedule seed produces a bit-identical journal
//     and bit-identical recovered state at pool widths 1 and 4.
//
// The crash-point sweeps (replay every byte prefix / every ack boundary)
// run in every build; the fault-injection sweeps and the real
// kill-and-replay death test additionally need -DDPHIST_FAILPOINTS=ON.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/clock.h"
#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"
#include "dphist/sparse/sparse_histogram.h"
#include "dphist/testing/failpoint.h"

namespace dphist {
namespace serve {
namespace {

constexpr std::uint64_t kChaosSeed = 20120412;  // the paper's ICDE date

Histogram ChaosTruth(std::size_t n = 32, std::uint64_t seed = 5) {
  return MakeSearchLogs(n, seed).histogram;
}

// In-memory sink capturing exactly the bytes a real file would hold — a
// byte prefix of `bytes` is a crash at that point.
class CaptureSink final : public JournalSink {
 public:
  Status Append(const void* data, std::size_t size) override {
    bytes.append(static_cast<const char*>(data), size);
    return Status::Ok();
  }
  Status Sync() override { return Status::Ok(); }

  std::string bytes;
};

struct JournaledServer {
  std::unique_ptr<Journal> journal;
  std::unique_ptr<ReleaseServer> server;
  CaptureSink* sink = nullptr;  // owned by journal
};

JournaledServer MakeJournaledServer(double total_epsilon,
                                    ThreadPool* pool = nullptr) {
  JournaledServer js;
  auto sink = std::make_unique<CaptureSink>();
  js.sink = sink.get();
  auto journal = Journal::WithSink(std::move(sink));
  EXPECT_TRUE(journal.ok());
  js.journal = std::move(journal).value();
  ReleaseServerOptions options;
  options.journal = js.journal.get();
  options.pool = pool;
  js.server = std::make_unique<ReleaseServer>(options);
  EXPECT_TRUE(js.server
                  ->AddDataset({"acme", "clicks"}, ChaosTruth(32, 1),
                               total_epsilon)
                  .ok());
  EXPECT_TRUE(js.server
                  ->AddDataset({"zeta", "logs"}, ChaosTruth(32, 2),
                               total_epsilon)
                  .ok());
  return js;
}

// A fresh server with the same datasets, recovered from `bytes`.
struct RecoveredServer {
  std::unique_ptr<ReleaseServer> server;
  RecoveryStats stats;
};

RecoveredServer RecoverFromBytes(const std::string& bytes,
                                 double total_epsilon) {
  RecoveredServer rs;
  ReleaseServerOptions options;
  rs.server = std::make_unique<ReleaseServer>(options);
  EXPECT_TRUE(rs.server
                  ->AddDataset({"acme", "clicks"}, ChaosTruth(32, 1),
                               total_epsilon)
                  .ok());
  EXPECT_TRUE(rs.server
                  ->AddDataset({"zeta", "logs"}, ChaosTruth(32, 2),
                               total_epsilon)
                  .ok());
  auto replay = ReplayJournalBytes(bytes);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  auto stats = rs.server->Recover(replay.value());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  rs.stats = stats.value();
  return rs;
}

TEST(RecoveryTest, RecoverRebuildsLedgerSpendAndCacheContents) {
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "clicks"};
  const TenantKey zeta{"zeta", "logs"};
  std::vector<std::vector<double>> acked_counts;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto release = live.server->GetRelease(acme, {"noise_first", 0.3, seed});
    ASSERT_TRUE(release.ok());
    acked_counts.push_back(release.value()->histogram().counts());
  }
  ASSERT_TRUE(live.server->GetRelease(zeta, {"noise_first", 0.5, 9}).ok());
  const double acme_spent =
      live.server->LedgerFor(acme).value()->spent_epsilon();
  const double zeta_spent =
      live.server->LedgerFor(zeta).value()->spent_epsilon();

  auto recovered = RecoverFromBytes(live.sink->bytes, 2.0);
  EXPECT_EQ(recovered.stats.charges_replayed, 4u);
  EXPECT_EQ(recovered.stats.releases_replayed, 4u);
  EXPECT_EQ(recovered.stats.refusals, 0u);
  EXPECT_EQ(recovered.stats.skipped, 0u);

  // Ledger spend survives to the double's last bit.
  EXPECT_DOUBLE_EQ(
      recovered.server->LedgerFor(acme).value()->spent_epsilon(),
      acme_spent);
  EXPECT_DOUBLE_EQ(
      recovered.server->LedgerFor(zeta).value()->spent_epsilon(),
      zeta_spent);

  // Every acked release is present, bit-identical, and a cache hit — the
  // recovered server must not re-charge for it.
  EXPECT_EQ(recovered.server->cache().size(), 4u);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto release =
        recovered.server->GetRelease(acme, {"noise_first", 0.3, seed});
    ASSERT_TRUE(release.ok());
    EXPECT_EQ(release.value()->histogram().counts(),
              acked_counts[seed - 1]);
  }
  EXPECT_DOUBLE_EQ(
      recovered.server->LedgerFor(acme).value()->spent_epsilon(),
      acme_spent);
}

TEST(RecoveryTest, EveryBytePrefixRecoversWithoutOverspend) {
  // Crash ANYWHERE: for every byte prefix of the journal, recovery must
  // succeed and the replayed spend must never exceed what the live server
  // committed (and never the grant).
  constexpr double kGrant = 2.0;
  auto live = MakeJournaledServer(kGrant);
  const TenantKey acme{"acme", "clicks"};
  const TenantKey zeta{"zeta", "logs"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(
        live.server->GetRelease(acme, {"noise_first", 0.4, seed}).ok());
    ASSERT_TRUE(live.server->GetRelease(zeta, {"dwork", 0.3, seed}).ok());
  }
  const std::string& bytes = live.sink->bytes;
  const double acme_committed =
      live.server->LedgerFor(acme).value()->spent_epsilon();
  const double zeta_committed =
      live.server->LedgerFor(zeta).value()->spent_epsilon();

  double prev_acme = 0.0;
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    auto recovered = RecoverFromBytes(bytes.substr(0, len), kGrant);
    const double acme_spent =
        recovered.server->LedgerFor(acme).value()->spent_epsilon();
    const double zeta_spent =
        recovered.server->LedgerFor(zeta).value()->spent_epsilon();
    EXPECT_LE(acme_spent, acme_committed) << "prefix " << len;
    EXPECT_LE(zeta_spent, zeta_committed) << "prefix " << len;
    EXPECT_LE(acme_spent, kGrant) << "prefix " << len;
    EXPECT_LE(zeta_spent, kGrant) << "prefix " << len;
    // Longer prefix, monotonically non-decreasing knowledge.
    EXPECT_GE(acme_spent, prev_acme) << "prefix " << len;
    prev_acme = acme_spent;
    // Exactly-once on replay: never more cached releases than charges
    // journaled (a publish record always follows its charge).
    EXPECT_LE(recovered.stats.releases_replayed,
              recovered.stats.charges_replayed)
        << "prefix " << len;
  }
}

TEST(RecoveryTest, EveryAckBoundaryKeepsAllAcknowledgedReleases) {
  // Crash immediately after the Nth acknowledgement: every release acked
  // by then must survive replay of the journal as it stood at that ack.
  auto live = MakeJournaledServer(/*total_epsilon=*/4.0);
  const TenantKey acme{"acme", "clicks"};
  struct Ack {
    std::uint64_t journal_bytes;  // sink size when the ack returned
    std::uint64_t seed;
    std::vector<double> counts;
  };
  std::vector<Ack> acks;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto release = live.server->GetRelease(acme, {"noise_first", 0.5, seed});
    ASSERT_TRUE(release.ok());
    acks.push_back({live.journal->bytes_written(), seed,
                    release.value()->histogram().counts()});
  }
  const std::uint64_t fp = FingerprintHistogram(ChaosTruth(32, 1));
  for (std::size_t n = 0; n < acks.size(); ++n) {
    auto recovered = RecoverFromBytes(
        live.sink->bytes.substr(0, acks[n].journal_bytes), 4.0);
    for (std::size_t i = 0; i <= n; ++i) {
      auto release = recovered.server->cache().Lookup(
          {"acme", "clicks", fp, "noise_first", 0.5, acks[i].seed});
      ASSERT_NE(release, nullptr)
          << "release acked at #" << i << " lost after crash at ack #" << n;
      EXPECT_EQ(release->histogram().counts(), acks[i].counts);
    }
  }
}

TEST(RecoveryTest, FingerprintMismatchSkipsStaleReleaseButKeepsSpend) {
  // The truth data changed across the restart: publish records no longer
  // match and must be skipped (serving them would answer for data the
  // server no longer holds) — but the charges still count; the epsilon
  // was genuinely spent against the old data.
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "clicks"};
  ASSERT_TRUE(live.server->GetRelease(acme, {"noise_first", 0.4, 1}).ok());
  ASSERT_TRUE(live.server->GetRelease(acme, {"noise_first", 0.4, 2}).ok());

  RecoveredServer rs;
  ReleaseServerOptions options;
  rs.server = std::make_unique<ReleaseServer>(options);
  // Different truth for acme; zeta's namespace is gone entirely.
  ASSERT_TRUE(rs.server
                  ->AddDataset({"acme", "clicks"}, ChaosTruth(32, 777), 2.0)
                  .ok());
  auto replay = ReplayJournalBytes(live.sink->bytes);
  ASSERT_TRUE(replay.ok());
  auto stats = rs.server->Recover(replay.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().charges_replayed, 2u);
  EXPECT_EQ(stats.value().releases_replayed, 0u);
  EXPECT_EQ(stats.value().skipped, 2u);  // two stale publish records
  EXPECT_EQ(rs.server->cache().size(), 0u);
  EXPECT_DOUBLE_EQ(
      rs.server->LedgerFor(acme).value()->spent_epsilon(), 0.8);
}

TEST(RecoveryTest, ShrunkGrantRefusesExcessWithoutOverspend) {
  // The journal holds 1.5 epsilon of charges but the restarted config only
  // grants 1.0: replay refuses the excess and the recovered ledger never
  // reports spend above its (new) total.
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "clicks"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(
        live.server->GetRelease(acme, {"noise_first", 0.5, seed}).ok());
  }
  auto recovered = RecoverFromBytes(live.sink->bytes, /*total_epsilon=*/1.0);
  EXPECT_GT(recovered.stats.refusals, 0u);
  const auto* ledger = recovered.server->LedgerFor(acme).value();
  EXPECT_LE(ledger->spent_epsilon(), ledger->total_epsilon());
}

// --- sparse datasets through the same crash machinery ---

sparse::SparseHistogram SparseChaosTruth(std::uint64_t salt = 0) {
  std::vector<sparse::SparseEntry> entries;
  for (std::uint64_t i = 0; i < 16; ++i) {
    entries.push_back({i * (1ULL << 35) + salt,
                       40.0 + static_cast<double>((i * 7 + salt) % 11)});
  }
  auto truth =
      sparse::SparseHistogram::Create(1ULL << 40, std::move(entries));
  EXPECT_TRUE(truth.ok()) << truth.status().ToString();
  return std::move(truth).value();
}

JournaledServer MakeSparseJournaledServer(double total_epsilon,
                                          ThreadPool* pool = nullptr) {
  JournaledServer js;
  auto sink = std::make_unique<CaptureSink>();
  js.sink = sink.get();
  auto journal = Journal::WithSink(std::move(sink));
  EXPECT_TRUE(journal.ok());
  js.journal = std::move(journal).value();
  ReleaseServerOptions options;
  options.journal = js.journal.get();
  options.pool = pool;
  js.server = std::make_unique<ReleaseServer>(options);
  EXPECT_TRUE(js.server
                  ->AddSparseDataset({"acme", "urls"}, SparseChaosTruth(),
                                     total_epsilon)
                  .ok());
  return js;
}

RecoveredServer RecoverSparseFromBytes(const std::string& bytes,
                                       double total_epsilon) {
  RecoveredServer rs;
  rs.server = std::make_unique<ReleaseServer>(ReleaseServerOptions{});
  EXPECT_TRUE(rs.server
                  ->AddSparseDataset({"acme", "urls"}, SparseChaosTruth(),
                                     total_epsilon)
                  .ok());
  auto replay = ReplayJournalBytes(bytes);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  auto stats = rs.server->Recover(replay.value());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  rs.stats = stats.value();
  return rs;
}

TEST(SparseRecoveryTest, RecoverRebuildsSparseReleasesExactlyOnce) {
  auto live = MakeSparseJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "urls"};
  std::vector<sparse::SparseHistogram> acked;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto release = live.server->GetRelease(acme, {"sparse_pure", 0.5, seed});
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    ASSERT_TRUE(release.value()->is_sparse());
    acked.push_back(release.value()->sparse_histogram());
  }
  const double committed =
      live.server->LedgerFor(acme).value()->spent_epsilon();

  auto recovered = RecoverSparseFromBytes(live.sink->bytes, 2.0);
  EXPECT_EQ(recovered.stats.charges_replayed, 3u);
  EXPECT_EQ(recovered.stats.releases_replayed, 3u);
  EXPECT_EQ(recovered.stats.skipped, 0u);
  EXPECT_EQ(recovered.server->cache().size(), 3u);
  EXPECT_DOUBLE_EQ(
      recovered.server->LedgerFor(acme).value()->spent_epsilon(), committed);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto release =
        recovered.server->GetRelease(acme, {"sparse_pure", 0.5, seed});
    ASSERT_TRUE(release.ok());
    EXPECT_TRUE(release.value()->sparse_histogram() == acked[seed - 1])
        << "seed " << seed;
  }
  // The re-serves above were cache hits: spend did not move.
  EXPECT_DOUBLE_EQ(
      recovered.server->LedgerFor(acme).value()->spent_epsilon(), committed);
}

TEST(SparseRecoveryTest, EveryBytePrefixRecoversSparseWithoutOverspend) {
  constexpr double kGrant = 2.0;
  auto live = MakeSparseJournaledServer(kGrant);
  const TenantKey acme{"acme", "urls"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(
        live.server->GetRelease(acme, {"sparse_pure", 0.4, seed}).ok());
    ASSERT_TRUE(
        live.server->GetRelease(acme, {"unknown_domain", 0.2, seed}).ok());
  }
  const std::string& bytes = live.sink->bytes;
  const double committed =
      live.server->LedgerFor(acme).value()->spent_epsilon();

  double prev_spent = 0.0;
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    auto recovered = RecoverSparseFromBytes(bytes.substr(0, len), kGrant);
    const double spent =
        recovered.server->LedgerFor(acme).value()->spent_epsilon();
    EXPECT_LE(spent, committed) << "prefix " << len;
    EXPECT_LE(spent, kGrant) << "prefix " << len;
    EXPECT_GE(spent, prev_spent) << "prefix " << len;
    prev_spent = spent;
    EXPECT_LE(recovered.stats.releases_replayed,
              recovered.stats.charges_replayed)
        << "prefix " << len;
  }
}

TEST(SparseRecoveryTest, SparseFingerprintMismatchSkipsStaleRelease) {
  auto live = MakeSparseJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "urls"};
  ASSERT_TRUE(live.server->GetRelease(acme, {"sparse_pure", 0.5, 1}).ok());

  RecoveredServer rs;
  rs.server = std::make_unique<ReleaseServer>(ReleaseServerOptions{});
  // Same namespace, different sparse truth: the journaled release is about
  // data this server no longer holds.
  ASSERT_TRUE(rs.server
                  ->AddSparseDataset({"acme", "urls"}, SparseChaosTruth(3),
                                     2.0)
                  .ok());
  auto replay = ReplayJournalBytes(live.sink->bytes);
  ASSERT_TRUE(replay.ok());
  auto stats = rs.server->Recover(replay.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().charges_replayed, 1u);
  EXPECT_EQ(stats.value().releases_replayed, 0u);
  EXPECT_EQ(stats.value().skipped, 1u);
  EXPECT_EQ(rs.server->cache().size(), 0u);
}

// --- publish records that do not fit their dataset ---
//
// Queries are validated against the registered dataset and then read the
// release unchecked, so a release that is shorter than its dataset, or of
// the other representation, must never be installed — each record below
// carries the dataset's own fingerprint and a valid CRC.

// A fresh server holding a 1024-bin dense dataset and a 2^40-key sparse
// one, recovered from a journal holding just `record`.
RecoveredServer RecoverOneRecord(const JournalRecord& record) {
  RecoveredServer rs;
  rs.server = std::make_unique<ReleaseServer>(ReleaseServerOptions{});
  EXPECT_TRUE(rs.server
                  ->AddDataset({"acme", "clicks"}, ChaosTruth(1024, 1), 2.0)
                  .ok());
  EXPECT_TRUE(rs.server
                  ->AddSparseDataset({"acme", "urls"}, SparseChaosTruth(),
                                     2.0)
                  .ok());
  std::string bytes(JournalMagic());
  bytes += EncodeJournalRecord(record);
  auto replay = ReplayJournalBytes(bytes);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().records.size(), 1u);
  auto stats = rs.server->Recover(replay.value());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  rs.stats = stats.value();
  return rs;
}

JournalRecord PublishRecordFor(const TenantKey& key,
                               std::uint64_t fingerprint,
                               JournalRecord::Type type) {
  JournalRecord record;
  record.type = type;
  record.key = key;
  record.fingerprint = fingerprint;
  record.publisher = type == JournalRecord::Type::kPublish ? "noise_first"
                                                           : "sparse_pure";
  record.epsilon = 0.5;
  record.seed = 1;
  return record;
}

TEST(RecoveryTest, ShortDenseRecordIsSkippedNotInstalled) {
  const TenantKey acme{"acme", "clicks"};
  JournalRecord record =
      PublishRecordFor(acme, FingerprintHistogram(ChaosTruth(1024, 1)),
                       JournalRecord::Type::kPublish);
  record.counts = {1.0, 2.0, 3.0, 4.0};
  auto recovered = RecoverOneRecord(record);
  EXPECT_EQ(recovered.stats.releases_replayed, 0u);
  EXPECT_EQ(recovered.stats.skipped, 1u);
  EXPECT_EQ(recovered.server->cache().size(), 0u);
  EXPECT_EQ(recovered.server->cache().NewestFor(acme, ""), nullptr);
  BatchAnswer answer;
  auto hit = recovered.server->TryAnswerCached(
      acme, {{0, 1000}}, {"noise_first", 0.5, 1}, &answer);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(hit.value());
}

TEST(RecoveryTest, NonFiniteEpsilonPublishRecordsAreSkipped) {
  // No request may name a release under a NaN or infinite epsilon, and a
  // NaN key once matched every key differing from it only in epsilon or
  // seed: Recover skips such a record in either representation.
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    JournalRecord dense = PublishRecordFor(
        {"acme", "clicks"}, FingerprintHistogram(ChaosTruth(1024, 1)),
        JournalRecord::Type::kPublish);
    dense.counts.assign(1024, 1.0);
    JournalRecord sparse = PublishRecordFor(
        {"acme", "urls"},
        sparse::FingerprintSparseHistogram(SparseChaosTruth()),
        JournalRecord::Type::kPublishSparse);
    sparse.domain = 1ULL << 40;
    sparse.keys = {1, 5};
    sparse.counts = {2.0, 3.0};
    for (JournalRecord* record : {&dense, &sparse}) {
      record->epsilon = epsilon;
      auto recovered = RecoverOneRecord(*record);
      EXPECT_EQ(recovered.stats.releases_replayed, 0u) << epsilon;
      EXPECT_EQ(recovered.stats.skipped, 1u) << epsilon;
      EXPECT_EQ(recovered.server->cache().size(), 0u) << epsilon;
    }
  }
}

TEST(RecoveryTest, NanEpsilonChargeRecordIsRefusedOnReplay) {
  // Replay charges through the ledger's own checks: a journaled NaN charge
  // (which an older server could record) fails the recovery, typed, and
  // leaves the budget whole.
  JournalRecord charge;
  charge.type = JournalRecord::Type::kCharge;
  charge.key = {"acme", "clicks"};
  charge.epsilon = std::numeric_limits<double>::quiet_NaN();
  charge.label = "noise_first:seed=1";
  ReleaseServer server{ReleaseServerOptions{}};
  ASSERT_TRUE(server.AddDataset(charge.key, ChaosTruth(1024, 1), 2.0).ok());
  auto replay =
      ReplayJournalBytes(std::string(JournalMagic()) +
                         EncodeJournalRecord(charge));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  auto stats = server.Recover(replay.value());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  const BudgetLedger& ledger = *server.LedgerFor(charge.key).value();
  EXPECT_EQ(ledger.charge_count(), 0u);
  EXPECT_EQ(ledger.spent_epsilon(), 0.0);
  EXPECT_TRUE(server.GetRelease(charge.key, {"noise_first", 0.5, 1}).ok());
  EXPECT_EQ(ledger.charge_count(), 1u);
}

TEST(SparseRecoveryTest, SmallDomainSparseRecordIsSkippedNotInstalled) {
  const TenantKey urls{"acme", "urls"};
  JournalRecord record = PublishRecordFor(
      urls, sparse::FingerprintSparseHistogram(SparseChaosTruth()),
      JournalRecord::Type::kPublishSparse);
  record.domain = 16;
  record.keys = {1, 5};
  record.counts = {2.0, 3.0};
  auto recovered = RecoverOneRecord(record);
  EXPECT_EQ(recovered.stats.releases_replayed, 0u);
  EXPECT_EQ(recovered.stats.skipped, 1u);
  EXPECT_EQ(recovered.server->cache().size(), 0u);
  BatchAnswer answer;
  auto hit = recovered.server->TryAnswerCached(
      urls, {{0, static_cast<std::size_t>(1ULL << 40)}},
      {"sparse_pure", 0.5, 1}, &answer);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(hit.value());
}

TEST(SparseRecoveryTest, DenseRecordForSparseNamespaceIsSkipped) {
  const TenantKey urls{"acme", "urls"};
  JournalRecord record = PublishRecordFor(
      urls, sparse::FingerprintSparseHistogram(SparseChaosTruth()),
      JournalRecord::Type::kPublish);
  record.counts.assign(16, 1.0);
  auto recovered = RecoverOneRecord(record);
  EXPECT_EQ(recovered.stats.releases_replayed, 0u);
  EXPECT_EQ(recovered.stats.skipped, 1u);
  EXPECT_EQ(recovered.server->cache().size(), 0u);
  EXPECT_EQ(recovered.server->cache().NewestFor(urls, ""), nullptr);
}

#if defined(DPHIST_FAILPOINTS)

using ::dphist::testing::FailpointConfig;
using ::dphist::testing::FailpointRegistry;
using ::dphist::testing::FailpointTrigger;
using ::dphist::testing::ScopedFailpoint;

class RecoveryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    FailpointRegistry::Global().set_clock(nullptr);
  }
  void TearDown() override {
    FailpointRegistry::Global().DisarmAll();
    FailpointRegistry::Global().set_clock(nullptr);
  }
};

TEST_F(RecoveryChaosTest, JournalAppendFailureSpendsConservativelyAndAcksNothing) {
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "clicks"};

  FailpointConfig fail_once;
  fail_once.status = Status::Internal("injected journal append failure");
  fail_once.trigger = FailpointTrigger::kOnce;
  FailpointRegistry::Global().Arm("serve/journal/append", fail_once);

  // The charge commits in memory, the journal append fails: the caller
  // gets the error, nothing is cached, nothing is acked — but the epsilon
  // stays spent (the conservative direction).
  auto failed = live.server->GetRelease(acme, {"noise_first", 0.4, 1});
  ASSERT_FALSE(failed.ok());
  EXPECT_DOUBLE_EQ(
      live.server->LedgerFor(acme).value()->spent_epsilon(), 0.4);
  EXPECT_EQ(live.server->cache().size(), 0u);

  // A retry after the fault clears succeeds with a fresh charge.
  FailpointRegistry::Global().DisarmAll();
  auto retried = live.server->GetRelease(acme, {"noise_first", 0.4, 1});
  ASSERT_TRUE(retried.ok());
  EXPECT_DOUBLE_EQ(
      live.server->LedgerFor(acme).value()->spent_epsilon(), 0.8);

  // Replay sees only journaled state: at most the committed spend, and the
  // acked release is present.
  auto recovered = RecoverFromBytes(live.sink->bytes, 2.0);
  const double replayed =
      recovered.server->LedgerFor(acme).value()->spent_epsilon();
  EXPECT_LE(replayed, 0.8);
  EXPECT_EQ(recovered.server->cache().size(), 1u);
}

TEST_F(RecoveryChaosTest, SyncFailureAtPublishBoundaryNeverAcksALostRelease) {
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "clicks"};

  // Fail the first sync: with the default kEveryRecord policy that is the
  // charge record's own durability barrier.
  FailpointConfig fail_once;
  fail_once.status = Status::Internal("injected fsync failure");
  fail_once.trigger = FailpointTrigger::kOnce;
  FailpointRegistry::Global().Arm("serve/journal/sync", fail_once);

  auto failed = live.server->GetRelease(acme, {"noise_first", 0.4, 1});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(live.server->cache().size(), 0u);  // never acked

  FailpointRegistry::Global().DisarmAll();
  auto retried = live.server->GetRelease(acme, {"noise_first", 0.4, 2});
  ASSERT_TRUE(retried.ok());

  // Whatever the journal holds, recovery must not exceed committed spend
  // and must contain the one acked release.
  auto recovered = RecoverFromBytes(live.sink->bytes, 2.0);
  EXPECT_LE(recovered.server->LedgerFor(acme).value()->spent_epsilon(),
            live.server->LedgerFor(acme).value()->spent_epsilon());
  auto release = recovered.server->GetRelease(acme, {"noise_first", 0.4, 2});
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release.value()->histogram().counts(),
            retried.value()->histogram().counts());
}

TEST_F(RecoveryChaosTest, SparseAppendFailureAcksNothingAndReplaysClean) {
  auto live = MakeSparseJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "urls"};

  FailpointConfig fail_once;
  fail_once.status = Status::Internal("injected journal append failure");
  fail_once.trigger = FailpointTrigger::kOnce;
  FailpointRegistry::Global().Arm("serve/journal/append", fail_once);

  // The charge commits, the sparse publish record fails to journal: the
  // caller must NOT be acked, nothing cached, epsilon conservatively spent.
  auto failed = live.server->GetRelease(acme, {"sparse_pure", 0.4, 1});
  ASSERT_FALSE(failed.ok());
  EXPECT_DOUBLE_EQ(
      live.server->LedgerFor(acme).value()->spent_epsilon(), 0.4);
  EXPECT_EQ(live.server->cache().size(), 0u);

  FailpointRegistry::Global().DisarmAll();
  auto retried = live.server->GetRelease(acme, {"sparse_pure", 0.4, 1});
  ASSERT_TRUE(retried.ok());

  // Replay: at most the committed spend, and exactly the acked release.
  auto recovered = RecoverSparseFromBytes(live.sink->bytes, 2.0);
  EXPECT_LE(recovered.server->LedgerFor(acme).value()->spent_epsilon(),
            live.server->LedgerFor(acme).value()->spent_epsilon());
  EXPECT_EQ(recovered.server->cache().size(), 1u);
  auto release = recovered.server->GetRelease(acme, {"sparse_pure", 0.4, 1});
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(release.value()->sparse_histogram() ==
              retried.value()->sparse_histogram());
}

TEST_F(RecoveryChaosTest, SparseSyncFailureNeverAcksALostRelease) {
  auto live = MakeSparseJournaledServer(/*total_epsilon=*/2.0);
  const TenantKey acme{"acme", "urls"};

  FailpointConfig fail_once;
  fail_once.status = Status::Internal("injected fsync failure");
  fail_once.trigger = FailpointTrigger::kOnce;
  FailpointRegistry::Global().Arm("serve/journal/sync", fail_once);

  auto failed = live.server->GetRelease(acme, {"sparse_pure", 0.4, 1});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(live.server->cache().size(), 0u);  // never acked

  FailpointRegistry::Global().DisarmAll();
  auto retried = live.server->GetRelease(acme, {"sparse_pure", 0.4, 2});
  ASSERT_TRUE(retried.ok());

  auto recovered = RecoverSparseFromBytes(live.sink->bytes, 2.0);
  EXPECT_LE(recovered.server->LedgerFor(acme).value()->spent_epsilon(),
            live.server->LedgerFor(acme).value()->spent_epsilon());
  auto release = recovered.server->GetRelease(acme, {"sparse_pure", 0.4, 2});
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(release.value()->sparse_histogram() ==
              retried.value()->sparse_histogram());
}

TEST_F(RecoveryChaosTest, SparseSeededScheduleJournalIsBitIdenticalAtPoolWidths1And4) {
  // Sparse publications journal through the same append path; the journal
  // bytes (64-bit keys, f64 counts and all) must be a pure function of the
  // schedule seed at any pool width.
  auto run = [&](std::size_t pool_width) -> std::string {
    ThreadPool pool(pool_width);
    FailpointRegistry::Global().DisarmAll();
    FailpointRegistry::Global().SeedSchedule(kChaosSeed);
    FailpointConfig flaky;
    flaky.status = Status::Internal("induced transient failure");
    flaky.trigger = FailpointTrigger::kProbability;
    flaky.probability = 0.3;
    FailpointRegistry::Global().Arm("serve/cache/publish", flaky);

    auto live = MakeSparseJournaledServer(/*total_epsilon=*/4.0, &pool);
    const TenantKey acme{"acme", "urls"};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (live.server
                ->GetRelease(acme, {seed % 2 == 0 ? "sparse_pure"
                                                  : "unknown_domain",
                                    0.25, seed})
                .ok()) {
          break;
        }
      }
    }
    FailpointRegistry::Global().DisarmAll();
    return live.sink->bytes;
  };

  const std::string journal_1 = run(1);
  const std::string journal_4 = run(4);
  ASSERT_EQ(journal_1, journal_4);

  auto a = RecoverSparseFromBytes(journal_1, 4.0);
  auto b = RecoverSparseFromBytes(journal_4, 4.0);
  EXPECT_EQ(a.stats.charges_replayed, b.stats.charges_replayed);
  EXPECT_EQ(a.stats.releases_replayed, b.stats.releases_replayed);
  EXPECT_EQ(a.server->cache().size(), b.server->cache().size());
}

TEST_F(RecoveryChaosTest, InducedReplayFaultSurfacesTyped) {
  auto live = MakeJournaledServer(/*total_epsilon=*/2.0);
  ASSERT_TRUE(live.server
                  ->GetRelease({"acme", "clicks"}, {"noise_first", 0.4, 1})
                  .ok());
  FailpointConfig fail_once;
  fail_once.status = Status::Internal("injected replay fault");
  fail_once.trigger = FailpointTrigger::kOnce;
  FailpointRegistry::Global().Arm("serve/journal/replay_record", fail_once);
  auto replay = ReplayJournalBytes(live.sink->bytes);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
}

TEST_F(RecoveryChaosTest, SeededScheduleRecoversIdenticallyAtPoolWidths1And4) {
  // The determinism contract: one schedule seed, two pool widths, the same
  // sequential request stream with induced faults — the journal must be
  // bit-identical and the recovered state equal.
  auto run = [&](std::size_t pool_width) -> std::string {
    ThreadPool pool(pool_width);
    FailpointRegistry::Global().DisarmAll();
    FailpointRegistry::Global().SeedSchedule(kChaosSeed);
    FailpointConfig flaky;
    flaky.status = Status::Internal("induced transient failure");
    flaky.trigger = FailpointTrigger::kProbability;
    flaky.probability = 0.3;
    FailpointRegistry::Global().Arm("serve/cache/publish", flaky);

    auto live = MakeJournaledServer(/*total_epsilon=*/4.0, &pool);
    const TenantKey acme{"acme", "clicks"};
    const TenantKey zeta{"zeta", "logs"};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      // Some publishes fail (induced); callers retry once. Either way the
      // outcome sequence is a pure function of the schedule seed.
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (live.server
                ->GetRelease(seed % 2 == 0 ? acme : zeta,
                             {"noise_first", 0.25, seed})
                .ok()) {
          break;
        }
      }
    }
    FailpointRegistry::Global().DisarmAll();
    return live.sink->bytes;
  };

  const std::string journal_1 = run(1);
  const std::string journal_4 = run(4);
  ASSERT_EQ(journal_1, journal_4);  // bit-identical journals

  auto a = RecoverFromBytes(journal_1, 4.0);
  auto b = RecoverFromBytes(journal_4, 4.0);
  EXPECT_EQ(a.stats.charges_replayed, b.stats.charges_replayed);
  EXPECT_EQ(a.stats.releases_replayed, b.stats.releases_replayed);
  EXPECT_EQ(a.server->cache().size(), b.server->cache().size());
  EXPECT_DOUBLE_EQ(
      a.server->LedgerFor({"acme", "clicks"}).value()->spent_epsilon(),
      b.server->LedgerFor({"acme", "clicks"}).value()->spent_epsilon());
  EXPECT_DOUBLE_EQ(
      a.server->LedgerFor({"zeta", "logs"}).value()->spent_epsilon(),
      b.server->LedgerFor({"zeta", "logs"}).value()->spent_epsilon());
}

// --- the real thing: kill the process, replay the file ---

// Child workload for the death test: serve against a file journal,
// fsyncing an "ack log" sidecar after every acknowledged release, with an
// abort failpoint armed inside the journal append path. The parent then
// replays the journal the dead process left behind and checks every acked
// seed survived.
void RunWorkloadUntilAbort(const std::string& dir) {
  const std::string journal_path = dir + "/events.jnl";
  const std::string ack_path = dir + "/acks.log";
  auto journal = Journal::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ReleaseServerOptions options;
  options.journal = journal.value().get();
  ReleaseServer server(options);
  ASSERT_TRUE(
      server.AddDataset({"acme", "clicks"}, ChaosTruth(32, 1), 16.0).ok());

  FailpointConfig abort_later;
  abort_later.action = FailpointConfig::Action::kAbort;
  abort_later.trigger = FailpointTrigger::kEveryNth;
  abort_later.every_nth = 9;  // dies mid-5th publish (2 appends each)
  FailpointRegistry::Global().Arm("serve/journal/append", abort_later);

  std::ofstream acks(ack_path, std::ios::trunc);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    auto release = server.GetRelease({"acme", "clicks"},
                                     {"noise_first", 0.1, seed});
    if (release.ok()) {
      acks << seed << "\n";
      acks.flush();
    }
  }
  // Unreachable: the failpoint aborts first. Exit cleanly if not, so the
  // death test fails loudly instead of hanging.
  std::exit(0);
}

TEST_F(RecoveryChaosTest, KillAndReplayLosesNoAcknowledgedRelease) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The threadsafe death-test child re-executes this whole test body, so
  // the directory must be agreed on through the environment: only the
  // first process (the parent) creates it; the child inherits the value
  // and skips the mkdtemp.
  if (::getenv("DPHIST_KILL_DIR") == nullptr) {
    char tmpl[] = "/tmp/dphist_kill_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    ASSERT_EQ(::setenv("DPHIST_KILL_DIR", tmpl, 1), 0);
  }
  const std::string dir = ::getenv("DPHIST_KILL_DIR");

  EXPECT_DEATH(RunWorkloadUntilAbort(dir), "injected abort");

  // Parent: read the dead process's ack log and journal.
  std::vector<std::uint64_t> acked_seeds;
  {
    std::ifstream acks(dir + "/acks.log");
    std::uint64_t seed = 0;
    while (acks >> seed) {
      acked_seeds.push_back(seed);
    }
  }
  ASSERT_FALSE(acked_seeds.empty()) << "child acked nothing before dying";

  auto replay = ReplayJournalFile(dir + "/events.jnl");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  ReleaseServerOptions options;
  ReleaseServer server(options);
  ASSERT_TRUE(
      server.AddDataset({"acme", "clicks"}, ChaosTruth(32, 1), 16.0).ok());
  auto stats = server.Recover(replay.value());
  ASSERT_TRUE(stats.ok());

  // Zero lost acknowledged releases.
  const std::uint64_t fp = FingerprintHistogram(ChaosTruth(32, 1));
  for (const std::uint64_t seed : acked_seeds) {
    EXPECT_NE(server.cache().Lookup(
                  {"acme", "clicks", fp, "noise_first", 0.1, seed}),
              nullptr)
        << "acked seed " << seed << " lost";
  }
  // Zero overspend: replayed spend covers at least the acked releases and
  // never exceeds the grant.
  const auto* ledger = server.LedgerFor({"acme", "clicks"}).value();
  EXPECT_GE(ledger->spent_epsilon(), 0.1 * acked_seeds.size() - 1e-9);
  EXPECT_LE(ledger->spent_epsilon(), ledger->total_epsilon());

  std::remove((dir + "/events.jnl").c_str());
  std::remove((dir + "/acks.log").c_str());
  ::rmdir(dir.c_str());
  ::unsetenv("DPHIST_KILL_DIR");
}

#else  // !DPHIST_FAILPOINTS

TEST(RecoveryChaosTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "failpoint sites are compiled out; configure with "
                  "-DDPHIST_FAILPOINTS=ON to run the fault-injection half "
                  "of the recovery suite";
}

#endif  // DPHIST_FAILPOINTS

}  // namespace
}  // namespace serve
}  // namespace dphist
