// Concurrency contract: publishers are immutable after construction
// (Publish is const and all randomness flows through the caller's Rng), so
// one instance may be shared across threads, each with its own generator.
// These tests run the same publisher concurrently and check the results
// are exactly the ones sequential execution produces.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/registry.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/hist/histogram.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/budget_ledger.h"
#include "dphist/serve/release_cache.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace {

TEST(ThreadSafetyTest, SharedPublisherConcurrentPublishes) {
  const Dataset dataset = MakeSearchLogs(128, 1);
  const auto publishers = PublisherRegistry::MakeAll();
  constexpr int kThreads = 8;

  for (const auto& publisher : publishers) {
    // Sequential reference: one release per seed.
    std::vector<std::vector<double>> expected(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      auto out = publisher->Publish(dataset.histogram, 0.5, rng);
      ASSERT_TRUE(out.ok()) << publisher->name();
      expected[t] = out.value().counts();
    }
    // Concurrent: same seeds, shared publisher instance.
    std::vector<std::vector<double>> actual(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Rng rng(1000 + static_cast<std::uint64_t>(t));
        auto out = publisher->Publish(dataset.histogram, 0.5, rng);
        if (out.ok()) {
          actual[t] = out.value().counts();
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(actual[t], expected[t])
          << publisher->name() << " thread " << t;
    }
  }
}

TEST(ThreadSafetyTest, SharedPublisherConcurrentWithInternalPool) {
  // The concurrency contract must survive publishers that themselves use
  // the global ThreadPool: at n=512 with grid_step 1 the v-opt rows
  // exceed the parallel threshold, so every Publish below fans row work
  // into the shared pool while eight external threads submit concurrently
  // (and, when the global pool has workers, nested ParallelFor calls run
  // inline on them). Results must still be exactly the sequential ones.
  const Dataset dataset = MakeSearchLogs(512, 3);
  NoiseFirst::Options nf_options;
  nf_options.grid_step = 1;
  const NoiseFirst noise_first(nf_options);
  StructureFirst::Options sf_options;
  sf_options.grid_step = 1;
  const StructureFirst structure_first(sf_options);
  const std::vector<const HistogramPublisher*> publishers = {
      &noise_first, &structure_first};
  constexpr int kThreads = 8;

  for (const HistogramPublisher* publisher : publishers) {
    std::vector<std::vector<double>> expected(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(4000 + static_cast<std::uint64_t>(t));
      auto out = publisher->Publish(dataset.histogram, 0.5, rng);
      ASSERT_TRUE(out.ok()) << publisher->name();
      expected[t] = out.value().counts();
    }
    std::vector<std::vector<double>> actual(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Rng rng(4000 + static_cast<std::uint64_t>(t));
        auto out = publisher->Publish(dataset.histogram, 0.5, rng);
        if (out.ok()) {
          actual[t] = out.value().counts();
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(actual[t], expected[t])
          << publisher->name() << " thread " << t;
    }
  }
}

TEST(ThreadSafetyTest, GlobalPoolServesConcurrentSubmitters) {
  // Many threads driving ThreadPool::Global() at once models the parallel
  // RunCell + parallel publisher composition; each submitter's loop must
  // see exactly its own work completed.
  constexpr int kSubmitters = 8;
  std::vector<double> totals(kSubmitters, 0.0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&totals, s]() {
      std::vector<double> slots(500, 0.0);
      ThreadPool::Global().ParallelFor(0, slots.size(),
                                       [&slots](std::size_t i) {
                                         slots[i] = static_cast<double>(i);
                                       });
      double total = 0.0;
      for (double v : slots) {
        total += v;
      }
      totals[s] = total;
    });
  }
  for (std::thread& thread : submitters) {
    thread.join();
  }
  for (double total : totals) {
    EXPECT_DOUBLE_EQ(total, 499.0 * 500.0 / 2.0);
  }
}

TEST(ThreadSafetyTest, ConstHistogramSharedAcrossThreads) {
  // Histogram's lazy prefix table is mutable; hammer RangeSum from many
  // threads after a single-threaded warm-up (the documented safe pattern:
  // warm the prefix before sharing, or share only after const use began).
  const Dataset dataset = MakeAge(2);
  const Histogram& histogram = dataset.histogram;
  const double expected_total = histogram.Total();  // warm the prefix
  std::vector<std::thread> threads;
  std::vector<double> totals(8, 0.0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      double local = 0.0;
      for (int rep = 0; rep < 1000; ++rep) {
        local = histogram.RangeSumUnchecked(0, histogram.size());
      }
      totals[t] = local;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (double total : totals) {
    EXPECT_DOUBLE_EQ(total, expected_total);
  }
}

TEST(ThreadSafetyTest, ReleaseCachePublishesExactlyOnceUnderContention) {
  // N threads race GetOrPublish on the same key: the publish callback must
  // run exactly once and every thread must receive the same release.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    serve::ReleaseCache cache;
    const serve::ReleaseKey key{"default", "default",
                                static_cast<std::uint64_t>(round), "nf", 0.5,
                                1};
    std::atomic<int> publishes{0};
    std::vector<std::shared_ptr<const serve::SealedRelease>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto release = cache.GetOrPublish(
            key, [&]() -> Result<std::shared_ptr<serve::SealedRelease>> {
              publishes.fetch_add(1, std::memory_order_relaxed);
              return std::make_shared<serve::SealedRelease>(
                  key, Histogram({1, 2, 3}));
            });
        if (release.ok()) {
          got[t] = release.value();
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(publishes.load(), 1) << "round " << round;
    ASSERT_NE(got[0], nullptr);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(got[t].get(), got[0].get()) << "round " << round;
    }
  }
}

TEST(ThreadSafetyTest, BudgetLedgerNeverOverspendsUnderContention) {
  // Equal-size charges from many threads: exactly floor-many fit, every
  // other charge gets the typed refusal, and the final spend never
  // exceeds the budget. 8 threads x 100 charges of 0.03 against 1.0:
  // 33 fit (0.99), the 34th (1.02) must be refused.
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 100;
  serve::BudgetLedger ledger(1.0);
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kChargesPerThread; ++i) {
        std::string label = "t";
        label += std::to_string(t);
        const Status status = ledger.Charge(0.03, label);
        if (status.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(accepted.load(), 33);
  EXPECT_EQ(ledger.charge_count(), 33u);
  EXPECT_LE(ledger.spent_epsilon(), ledger.total_epsilon() * (1.0 + 1e-9));
  EXPECT_NEAR(ledger.spent_epsilon(), 0.99, 1e-12);
}

TEST(ThreadSafetyTest, ReleaseServerConcurrentBatchesChargeOnce) {
  // Many threads batch-query the same release concurrently: the racing
  // cache misses must coalesce onto one publication and one ledger
  // charge, and every thread's answers must be identical.
  constexpr int kThreads = 8;
  const Dataset dataset = MakeSearchLogs(128, 11);
  serve::ReleaseServer server(dataset.histogram, /*total_epsilon=*/1.0);
  const serve::ServeRequest request{"noise_first", 0.5, 9};
  Rng workload_rng(13);
  auto queries = RandomRangeWorkload(dataset.histogram.size(), 64,
                                     workload_rng);
  ASSERT_TRUE(queries.ok());

  std::vector<std::vector<double>> answers(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto batch = server.AnswerBatch(queries.value(), request);
      if (batch.ok() && !batch.value().stale) {
        answers[t] = batch.value().answers;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(server.ledger().charge_count(), 1u);
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.5);
  EXPECT_EQ(server.cache().size(), 1u);
  ASSERT_FALSE(answers[0].empty());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(answers[t], answers[0]) << "thread " << t;
  }
}

TEST(ThreadSafetyTest, ConcurrentRangeSumsBuildPrefixOnce) {
  // Regression test for the lazy prefix-table race: many threads call
  // RangeSumUnchecked on a SHARED histogram whose prefix table has never
  // been built. The once-init must let exactly one thread build it while
  // the rest wait (TSan catches the old unsynchronized mutable fill), and
  // every thread must read the same sealed table.
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> counts(512);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<double>((i * 31 + round) % 97);
    }
    const Histogram shared(counts);
    Histogram sealed_reference(counts);
    sealed_reference.SealPrefix();

    std::vector<std::vector<double>> sums(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        std::vector<double>& out = sums[t];
        for (std::size_t begin = static_cast<std::size_t>(t); begin < 512;
             begin += 17) {
          out.push_back(shared.RangeSumUnchecked(begin, 512));
          out.push_back(shared.RangeSumUnchecked(0, begin + 1));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      std::vector<double> expected;
      for (std::size_t begin = static_cast<std::size_t>(t); begin < 512;
           begin += 17) {
        expected.push_back(sealed_reference.RangeSumUnchecked(begin, 512));
        expected.push_back(sealed_reference.RangeSumUnchecked(0, begin + 1));
      }
      EXPECT_EQ(sums[t], expected) << "thread " << t << " round " << round;
    }
  }
}

}  // namespace
}  // namespace dphist
