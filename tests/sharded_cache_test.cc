// The sharded release cache under contention: N threads x M tenants
// hammer publish/get/evict concurrently, then the surviving state is
// compared against a single-threaded reference executing the same
// operation sequence. Runs under TSan in CI — the shard-per-mutex layout
// is exactly the kind of code a data race hides in.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/serve/release_cache.h"
#include "dphist/serve/shard.h"
#include "dphist/serve/tenant.h"

namespace dphist {
namespace serve {
namespace {

// The deterministic "publisher": each key maps to one well-known
// histogram, so any thread publishing a key produces the same release —
// the invariant the real serving stack guarantees (deterministic
// publishers) and the one that makes cross-thread comparison meaningful.
Histogram CanonicalRelease(const ReleaseKey& key) {
  return Histogram({static_cast<double>(key.seed),
                    key.epsilon,
                    static_cast<double>(key.dataset_fingerprint)});
}

// The publish callback: the key's canonical release, sealed.
Result<std::shared_ptr<SealedRelease>> PublishCanonical(
    const ReleaseKey& key) {
  return std::make_shared<SealedRelease>(key, CanonicalRelease(key));
}

ReleaseKey KeyFor(std::size_t tenant, std::size_t dataset,
                  std::size_t seed) {
  return ReleaseKey{"tenant" + std::to_string(tenant),
                    "dataset" + std::to_string(dataset),
                    /*dataset_fingerprint=*/dataset + 1,
                    "nf",
                    0.5,
                    static_cast<std::uint64_t>(seed)};
}

TEST(ShardedCacheTest, ConcurrentMixedOpsMatchSingleThreadedReference) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kDatasets = 3;
  constexpr std::size_t kSeeds = 5;
  constexpr std::size_t kOpsPerThread = 400;

  ReleaseCache cache(ReleaseCacheOptions{/*shards=*/4});
  ASSERT_EQ(cache.shard_count(), 4u);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Per-thread deterministic op stream (cheap LCG; no shared state).
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * (t + 1);
      auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
      };
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const ReleaseKey key = KeyFor(next() % kTenants, next() % kDatasets,
                                      next() % kSeeds);
        switch (next() % 4) {
          case 0: {  // publish (or hit)
            auto release = cache.GetOrPublish(
                key, [&] { return PublishCanonical(key); });
            if (!release.ok() ||
                release.value()->histogram().counts() !=
                    CanonicalRelease(key).counts()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 1: {  // lookup: null or the canonical release, never junk
            auto release = cache.Lookup(key);
            if (release != nullptr &&
                release->histogram().counts() !=
                    CanonicalRelease(key).counts()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 2:  // evict
            cache.Evict(key);
            break;
          default: {  // namespace scan
            auto newest = cache.NewestFor(key.tenant_key(), "");
            if (newest != nullptr &&
                (newest->key().tenant != key.tenant ||
                 newest->key().dataset != key.dataset)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Quiesced state vs a single-threaded reference: every key either holds
  // its canonical release or nothing. Then publish every key in both the
  // contended cache and a fresh reference cache — afterwards the two must
  // agree exactly (same keys, same counts), proving no slot was wedged by
  // the contention (e.g. an entry stuck "in flight" forever).
  ReleaseCache reference;
  for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
    for (std::size_t dataset = 0; dataset < kDatasets; ++dataset) {
      for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        const ReleaseKey key = KeyFor(tenant, dataset, seed);
        auto contended =
            cache.GetOrPublish(key, [&] { return PublishCanonical(key); });
        auto fresh =
            reference.GetOrPublish(key, [&] { return PublishCanonical(key); });
        ASSERT_TRUE(contended.ok());
        ASSERT_TRUE(fresh.ok());
        EXPECT_EQ(contended.value()->histogram().counts(),
                  fresh.value()->histogram().counts())
            << FormatTenantKey(key.tenant_key()) << " seed " << seed;
      }
    }
  }
  EXPECT_EQ(cache.size(), kTenants * kDatasets * kSeeds);
  EXPECT_EQ(cache.size(), reference.size());
}

TEST(ShardedCacheTest, ShardCountsProduceIdenticalContents) {
  // The shard count is a pure performance knob: 1, 4, and 16 shards must
  // hold exactly the same releases for the same operations.
  std::vector<std::unique_ptr<ReleaseCache>> caches;
  for (const std::size_t shards : {1u, 4u, 16u}) {
    caches.push_back(
        std::make_unique<ReleaseCache>(ReleaseCacheOptions{shards}));
  }
  for (std::size_t tenant = 0; tenant < 5; ++tenant) {
    for (std::size_t seed = 0; seed < 7; ++seed) {
      const ReleaseKey key = KeyFor(tenant, tenant % 2, seed);
      for (auto& cache : caches) {
        ASSERT_TRUE(
            cache->GetOrPublish(key, [&] { return PublishCanonical(key); })
                .ok());
      }
    }
  }
  for (auto& cache : caches) {
    EXPECT_EQ(cache->size(), 5u * 7u);
  }
  // Spot-check lookups and namespace scans agree across shard counts.
  for (std::size_t tenant = 0; tenant < 5; ++tenant) {
    const ReleaseKey key = KeyFor(tenant, tenant % 2, 3);
    auto baseline = caches[0]->Lookup(key);
    ASSERT_NE(baseline, nullptr);
    for (std::size_t i = 1; i < caches.size(); ++i) {
      auto other = caches[i]->Lookup(key);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(other->histogram().counts(), baseline->histogram().counts());
      auto newest = caches[i]->NewestFor(key.tenant_key(), "nf");
      ASSERT_NE(newest, nullptr);
      EXPECT_EQ(newest->key().tenant, key.tenant);
    }
  }
}

TEST(ShardedCacheTest, EvictRemovesOnlyReadyEntries) {
  ReleaseCache cache;
  const ReleaseKey key = KeyFor(0, 0, 0);
  EXPECT_FALSE(cache.Evict(key));  // nothing there
  ASSERT_TRUE(
      cache.GetOrPublish(key, [&] { return PublishCanonical(key); }).ok());
  EXPECT_TRUE(cache.Evict(key));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_FALSE(cache.Evict(key));  // already gone
  EXPECT_EQ(cache.size(), 0u);

  // Publish-after-evict works (the retry contract).
  ASSERT_TRUE(
      cache.GetOrPublish(key, [&] { return PublishCanonical(key); }).ok());
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(ShardedCacheTest, RestorePublishedIsIdempotent) {
  ReleaseCache cache;
  const ReleaseKey key = KeyFor(1, 1, 1);
  auto first = cache.RestorePublished(
      std::make_shared<SealedRelease>(key, CanonicalRelease(key)));
  ASSERT_NE(first, nullptr);
  // Replaying the same record again must return the SAME release object
  // and not bump the size — replay-twice safety.
  auto second = cache.RestorePublished(
      std::make_shared<SealedRelease>(key, CanonicalRelease(key)));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  // And a normal GetOrPublish hits the restored entry without publishing.
  bool published = false;
  auto got = cache.GetOrPublish(key, [&] {
    published = true;
    return PublishCanonical(key);
  });
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(published);
  EXPECT_EQ(got.value().get(), first.get());
}

}  // namespace
}  // namespace serve
}  // namespace dphist
