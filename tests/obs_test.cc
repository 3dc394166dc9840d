// The observability subsystem's contracts: counters are exact under
// concurrent writers, recording is a no-op when disabled, P-square
// quantiles track known distributions, timer spans nest into slash paths,
// snapshots are stable and name-sorted, and the JSON-lines export round-
// trips through its own parser. This binary also runs under TSan in CI —
// the concurrency tests below are the racy surface.

#include "dphist/obs/obs.h"

#include <clocale>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/obs/export.h"
#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace obs {
namespace {

// Every test runs with recording enabled and restores the prior flag so
// the rest of the suite (which expects the DPHIST_OBS_OUT-derived default)
// is unaffected. Metric names are unique per test: the registry never
// erases, so reuse across tests would alias state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    Registry::Global().set_enabled(true);
  }

  void TearDown() override {
    Registry::Global().set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, CounterExactUnderConcurrentWriters) {
  Counter& counter = Registry::Global().GetCounter("test/concurrent_adds");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsTest, DistributionCountExactUnderConcurrentWriters) {
  Distribution& dist =
      Registry::Global().GetDistribution("test/concurrent_records");
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dist, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        dist.Record(static_cast<double>(t * kRecordsPerThread + i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const DistributionSnapshot snapshot = dist.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
  EXPECT_EQ(snapshot.min, 0.0);
  EXPECT_EQ(snapshot.max, kThreads * kRecordsPerThread - 1.0);
}

TEST_F(ObsTest, RegistryLookupRaceReturnsOneInstance) {
  // Concurrent first-touch of the same name must converge on a single
  // counter (and never invalidate previously returned references).
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      Counter& counter =
          Registry::Global().GetCounter("test/lookup_race");
      counter.Increment();
      seen[t] = &counter;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  EXPECT_EQ(seen[0]->value(), static_cast<std::uint64_t>(kThreads));
}

TEST_F(ObsTest, DisabledRecordingIsNoOp) {
  Counter& counter = Registry::Global().GetCounter("test/disabled_counter");
  Distribution& dist =
      Registry::Global().GetDistribution("test/disabled_dist");
  Registry::Global().set_enabled(false);
  counter.Add(41);
  dist.Record(1.5);
  {
    ScopedTimer timer("test/disabled_span");
    EXPECT_EQ(timer.path(), "");
    EXPECT_EQ(timer.elapsed_ms(), 0.0);
  }
  Registry::Global().set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(dist.Snapshot().count, 0u);
}

TEST_F(ObsTest, DistributionExactStatsForSmallSamples) {
  Distribution& dist = Registry::Global().GetDistribution("test/small_dist");
  for (double v : {4.0, 1.0, 3.0}) {
    dist.Record(v);
  }
  const DistributionSnapshot s = dist.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 8.0 / 3.0);
  // Below five samples the quantiles are exact (interpolated) order
  // statistics of the buffer.
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.p95, 3.9, 1e-12);
}

TEST_F(ObsTest, P2QuantileTracksUniformStream) {
  P2Quantile p50(0.5);
  P2Quantile p95(0.95);
  Rng rng(123);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = SampleUniformDouble(rng);
    p50.Add(x);
    p95.Add(x);
  }
  // Streaming estimates, so a few percent of slack — the contract is
  // "dashboard-accurate", not exact order statistics.
  EXPECT_NEAR(p50.Estimate(), 0.5, 0.03);
  EXPECT_NEAR(p95.Estimate(), 0.95, 0.03);
}

TEST_F(ObsTest, P2QuantileEstimateBeforeAnySample) {
  EXPECT_EQ(P2Quantile(0.5).Estimate(), 0.0);
}

TEST_F(ObsTest, ScopedTimerNestsIntoSlashPaths) {
  {
    ScopedTimer outer("test_span/publish");
    EXPECT_EQ(outer.path(), "test_span/publish");
    {
      ScopedTimer inner("solve");
      EXPECT_EQ(inner.path(), "test_span/publish/solve");
    }
    // Sibling after the first child: the parent must be restored.
    ScopedTimer sibling("export");
    EXPECT_EQ(sibling.path(), "test_span/publish/export");
  }
  // A fresh root after everything unwound.
  ScopedTimer root("test_span/root");
  EXPECT_EQ(root.path(), "test_span/root");

  const RegistrySnapshot snapshot = Registry::Global().Snapshot();
  bool found_child = false;
  for (const DistributionSnapshot& dist : snapshot.distributions) {
    if (dist.name == "test_span/publish/solve") {
      found_child = true;
      EXPECT_EQ(dist.count, 1u);
      EXPECT_GE(dist.min, 0.0);
    }
  }
  EXPECT_TRUE(found_child);
}

TEST_F(ObsTest, DistributionTimerRecordsIntoItsDistributionOnly) {
  Distribution& dist =
      Registry::Global().GetDistribution("test/distribution_timer");
  {
    // Inside a ScopedTimer it still records under its own name: it takes
    // no part in span nesting.
    ScopedTimer outer("test/distribution_timer_outer");
    DistributionTimer timer(dist);
    ScopedTimer inner("child");
    EXPECT_EQ(inner.path(), "test/distribution_timer_outer/child");
  }
  DistributionSnapshot s = dist.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.min, 0.0);

  Registry::Global().set_enabled(false);
  {
    DistributionTimer timer(dist);
  }
  Registry::Global().set_enabled(true);
  EXPECT_EQ(dist.Snapshot().count, 1u);
}

TEST_F(ObsTest, SnapshotIsStableAndNameSorted) {
  Registry::Global().GetCounter("test/stable_b").Add(2);
  Registry::Global().GetCounter("test/stable_a").Add(1);
  Registry::Global().GetDistribution("test/stable_d").Record(1.0);

  const RegistrySnapshot first = Registry::Global().Snapshot();
  const RegistrySnapshot second = Registry::Global().Snapshot();

  ASSERT_FALSE(first.counters.empty());
  EXPECT_EQ(first.counters, second.counters);
  ASSERT_EQ(first.distributions.size(), second.distributions.size());
  for (std::size_t i = 0; i < first.distributions.size(); ++i) {
    EXPECT_EQ(first.distributions[i].name, second.distributions[i].name);
    EXPECT_EQ(first.distributions[i].count, second.distributions[i].count);
  }
  for (std::size_t i = 1; i < first.counters.size(); ++i) {
    EXPECT_LT(first.counters[i - 1].first, first.counters[i].first);
  }
  for (std::size_t i = 1; i < first.distributions.size(); ++i) {
    EXPECT_LT(first.distributions[i - 1].name, first.distributions[i].name);
  }
}

TEST_F(ObsTest, DrawCountsRouteThroughAttributionScope) {
  Counter& global = Registry::Global().GetCounter("rng/laplace_draws");
  Counter& mine = Registry::Global().GetCounter("test/attr_laplace");
  Counter& geo = Registry::Global().GetCounter("test/attr_geometric");
  const std::uint64_t global_before = global.value();
  {
    DrawAttributionScope scope(&mine, &geo);
    CountLaplaceDraws(3);
    {
      // Nested scope temporarily re-routes, then restores.
      Counter& other = Registry::Global().GetCounter("test/attr_other");
      DrawAttributionScope nested(&other, nullptr);
      CountLaplaceDraws(5);
      EXPECT_EQ(other.value(), 5u);
    }
    CountLaplaceDraws(4);
    CountGeometricDraws(2);
  }
  CountLaplaceDraws(1);  // outside any scope: global only
  EXPECT_EQ(mine.value(), 7u);
  EXPECT_EQ(geo.value(), 2u);
  EXPECT_EQ(global.value(), global_before + 13);
}

TEST_F(ObsTest, SamplersCountTheirDraws) {
  Counter& laplace = Registry::Global().GetCounter("rng/laplace_draws");
  Counter& geometric = Registry::Global().GetCounter("rng/geometric_draws");
  const std::uint64_t laplace_before = laplace.value();
  const std::uint64_t geometric_before = geometric.value();
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    SampleLaplace(rng, 1.0);
  }
  SampleTwoSidedGeometric(rng, 0.5);
  EXPECT_EQ(laplace.value(), laplace_before + 10);
  EXPECT_EQ(geometric.value(), geometric_before + 1);
}

TEST_F(ObsTest, JsonLinesRoundTripThroughParser) {
  Registry::Global().GetCounter("test/json_counter").Add(42);
  Distribution& dist = Registry::Global().GetDistribution("test/json_dist");
  for (double v : {0.5, 1.25, 2.0, 4.75, 8.5, 16.0}) {
    dist.Record(v);
  }
  const RegistrySnapshot snapshot = Registry::Global().Snapshot();
  std::ostringstream out;
  WriteSnapshotLines(out, snapshot, "obs_test");

  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  bool saw_counter = false;
  bool saw_dist = false;
  while (std::getline(in, line)) {
    ++lines;
    auto parsed = ParseFlatJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonObject& object = parsed.value();
    ASSERT_TRUE(object.count("type")) << line;
    EXPECT_EQ(object.at("bench").string_value, "obs_test");
    if (object.at("name").string_value == "test/json_counter") {
      saw_counter = true;
      EXPECT_EQ(object.at("type").string_value, "counter");
      EXPECT_EQ(object.at("value").number_value, 42.0);
    }
    if (object.at("name").string_value == "test/json_dist") {
      saw_dist = true;
      EXPECT_EQ(object.at("type").string_value, "distribution");
      EXPECT_EQ(object.at("count").number_value, 6.0);
      EXPECT_EQ(object.at("min").number_value, 0.5);
      EXPECT_EQ(object.at("max").number_value, 16.0);
      // %.17g output round-trips doubles exactly.
      EXPECT_EQ(object.at("mean").number_value,
                (0.5 + 1.25 + 2.0 + 4.75 + 8.5 + 16.0) / 6.0);
    }
  }
  EXPECT_EQ(lines,
            snapshot.counters.size() + snapshot.distributions.size());
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_dist);
}

TEST_F(ObsTest, JsonWriterEscapesAndFormats) {
  JsonObjectWriter writer;
  writer.Str("quote", "a\"b\\c\nd")
      .Num("pi", 3.5)
      .Num("nan", std::nan(""))
      .Int("big", 1234567890123ull)
      .Bool("flag", true);
  const std::string line = writer.Finish();
  auto parsed = ParseFlatJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const JsonObject& object = parsed.value();
  EXPECT_EQ(object.at("quote").string_value, "a\"b\\c\nd");
  EXPECT_EQ(object.at("pi").number_value, 3.5);
  EXPECT_EQ(object.at("nan").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(object.at("big").number_value, 1234567890123.0);
  EXPECT_TRUE(object.at("flag").bool_value);
}

TEST_F(ObsTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseFlatJson("").ok());
  EXPECT_FALSE(ParseFlatJson("not json").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\":1").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\":{\"nested\":1}}").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\":[1,2]}").ok());
  EXPECT_TRUE(ParseFlatJson("{}").ok());
  EXPECT_TRUE(ParseFlatJson("  {\"a\": -1.5e3, \"b\": null}  ").ok());
}

// Pins a comma-decimal C locale (if the host ships one) for the lifetime
// of a test, restoring the prior locale on destruction.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "es_ES.UTF-8", "it_IT.UTF-8", "nl_NL.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        // Confirm the locale really uses ',' as the decimal point —
        // some hosts alias unknown names to "C".
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "%.1f", 0.5);
        if (buffer[1] == ',') {
          active_ = true;
          return;
        }
      }
    }
    std::setlocale(LC_ALL, saved_.c_str());
  }
  ~ScopedCommaLocale() { std::setlocale(LC_ALL, saved_.c_str()); }

  bool active() const { return active_; }

 private:
  std::string saved_;
  bool active_ = false;
};

TEST_F(ObsTest, JsonRoundTripIsLocaleIndependent) {
  // Regression for the strtod/snprintf locale bug: under a comma-decimal
  // locale the old writer emitted "0,5" (not JSON) and the old parser
  // stopped at the '.' in "0.5", so bench-JSON round-trips — and the
  // regression gate comparing them — silently processed garbage. The
  // from_chars/to_chars paths must be byte-identical in any locale.
  const std::string expected_line =
      JsonObjectWriter().Num("v", 0.5).Num("w", -1.25e-3).Finish();
  ScopedCommaLocale comma;
  if (!comma.active()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  const std::string line =
      JsonObjectWriter().Num("v", 0.5).Num("w", -1.25e-3).Finish();
  EXPECT_EQ(line, expected_line);
  EXPECT_NE(line.find("0.5"), std::string::npos) << line;
  auto parsed = ParseFlatJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed.value().at("v").number_value, 0.5);
  EXPECT_EQ(parsed.value().at("w").number_value, -1.25e-3);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  Counter& counter = Registry::Global().GetCounter("test/reset_counter");
  Distribution& dist = Registry::Global().GetDistribution("test/reset_dist");
  counter.Add(5);
  dist.Record(2.5);
  Registry::Global().Reset();
  EXPECT_EQ(counter.value(), 0u);
  const DistributionSnapshot snapshot = dist.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.mean, 0.0);
  EXPECT_EQ(snapshot.p95, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace dphist
