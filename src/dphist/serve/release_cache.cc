#include "dphist/serve/release_cache.h"

#include <bit>

#include <tuple>
#include <utility>

#include "dphist/obs/obs.h"
#include "dphist/testing/failpoint.h"

namespace dphist {
namespace serve {

namespace {

// Counter references resolved once (Registry::GetCounter takes a mutex).
obs::Counter& HitCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/cache/hits");
  return counter;
}

obs::Counter& MissCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/cache/misses");
  return counter;
}

obs::Counter& EntryCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/cache/entries");
  return counter;
}

obs::Counter& EvictionCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/cache/evictions");
  return counter;
}

obs::Counter& FrameHitCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/frame_cache_hits");
  return counter;
}

obs::Counter& FrameMissCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/frame_cache_misses");
  return counter;
}

}  // namespace

bool ReleaseKeyLess::operator()(const ReleaseKey& a,
                                const ReleaseKey& b) const {
  // Epsilon by its bit pattern: a total order, which for the positive
  // finite epsilons every key carries is the numeric one. As a double, a
  // NaN would compare unordered and end the comparison, aliasing every
  // key that differs from it only in epsilon or seed.
  const auto fields = [](const ReleaseKey& key) {
    return std::tuple<std::uint64_t, const std::string&, const std::string&,
                      const std::string&, std::uint64_t, std::uint64_t>(
        key.dataset_fingerprint, key.tenant, key.dataset, key.publisher,
        std::bit_cast<std::uint64_t>(key.epsilon), key.seed);
  };
  return fields(a) < fields(b);
}

SealedRelease::SealedRelease(ReleaseKey key, Histogram histogram)
    : key_(std::move(key)), histogram_(std::move(histogram)) {
  // Seal eagerly: a release is immutable from here on, so every reader
  // takes the histogram's lock-free prefix fast path.
  histogram_.SealPrefix();
}

SealedRelease::SealedRelease(ReleaseKey key, sparse::SparseHistogram sparse)
    : key_(std::move(key)), sparse_(std::move(sparse)) {}

std::shared_ptr<const std::string> SealedRelease::EncodedFrame(
    FrameCodec codec, const std::function<std::string()>& encode) const {
  FrameSlot& slot = frames_[static_cast<std::size_t>(codec)];
  if (slot.ready.load(std::memory_order_acquire)) {
    FrameHitCounter().Increment();
    return slot.frame;
  }
  std::lock_guard<std::mutex> lock(frame_mutex_);
  if (slot.ready.load(std::memory_order_relaxed)) {
    FrameHitCounter().Increment();
    return slot.frame;
  }
  FrameMissCounter().Increment();
  slot.frame = std::make_shared<const std::string>(encode());
  slot.ready.store(true, std::memory_order_release);
  return slot.frame;
}

ReleaseCache::ReleaseCache(ReleaseCacheOptions options)
    : shard_map_(options.shards) {
  shards_.reserve(shard_map_.count());
  for (std::size_t i = 0; i < shard_map_.count(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Result<std::shared_ptr<const SealedRelease>> ReleaseCache::GetOrPublish(
    const ReleaseKey& key, const PublishFn& publish) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.entries.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Entry>();
    } else if (it->second->release != nullptr) {
      HitCounter().Increment();
      return it->second->release;
    }
    entry = it->second;
  }
  // Serialize publish attempts for this key. Waiters blocked here while
  // the winner publishes wake up, re-check, and take the hit path below
  // without ever invoking their own callback.
  std::lock_guard<std::mutex> publish_lock(entry->publish_mutex);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (entry->release != nullptr) {
      HitCounter().Increment();
      return entry->release;
    }
  }
  MissCounter().Increment();
  // Chaos hook: a publisher failing mid-flight, before any budget charge.
  // The error propagates uncached, so a later call may retry — the
  // exactly-once contract is on *successful* publication.
  DPHIST_FAILPOINT_RETURN_IF_SET("serve/cache/publish");
  Result<std::shared_ptr<SealedRelease>> made = publish();
  if (!made.ok()) {
    return made.status();
  }
  // Chaos hook: latency between publish success and cache insert, to
  // widen the window where racing waiters block on the publish mutex.
  DPHIST_FAILPOINT("serve/cache/insert");
  std::shared_ptr<SealedRelease> release = std::move(made).value();
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // An eviction may have removed the entry while this publish ran (a
    // racing caller then re-created it and may even have finished its own
    // publish). Re-anchor, and keep whichever release is already ready —
    // equal keys imply bit-identical releases, so dropping ours is safe.
    auto [it, inserted] = shard.entries.try_emplace(key, entry);
    (void)inserted;
    if (it->second->release == nullptr) {
      release->sequence_ =
          next_sequence_.fetch_add(1, std::memory_order_relaxed);
      it->second->release = std::move(release);
      EntryCounter().Increment();
    }
    return it->second->release;
  }
}

std::shared_ptr<const SealedRelease> ReleaseCache::Lookup(
    const ReleaseKey& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second->release;
}

std::shared_ptr<const SealedRelease> ReleaseCache::LookupServing(
    const ReleaseKey& key) const {
  std::shared_ptr<const SealedRelease> release = Lookup(key);
  if (release != nullptr) {
    HitCounter().Increment();
  }
  return release;
}

void ReleaseCache::CountServingHit() { HitCounter().Increment(); }

bool ReleaseCache::Evict(const ReleaseKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second->release == nullptr) {
    return false;
  }
  shard.entries.erase(it);
  EvictionCounter().Increment();
  return true;
}

std::shared_ptr<const SealedRelease> ReleaseCache::RestorePublished(
    std::shared_ptr<SealedRelease> release) {
  const ReleaseKey& key = release->key();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.entries.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<Entry>();
  } else if (it->second->release != nullptr) {
    return it->second->release;  // idempotent replay
  }
  release->sequence_ = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  it->second->release = std::move(release);
  EntryCounter().Increment();
  return it->second->release;
}

std::shared_ptr<const SealedRelease> ReleaseCache::NewestFor(
    const TenantKey& tenant_key, std::string_view publisher) const {
  // The whole namespace hashes to one shard, so this scan is consistent
  // under exactly one lock.
  Shard& shard = *shards_[shard_map_.IndexFor(tenant_key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::shared_ptr<const SealedRelease> newest;
  for (const auto& [key, entry] : shard.entries) {
    if (key.tenant != tenant_key.tenant ||
        key.dataset != tenant_key.dataset || entry->release == nullptr) {
      continue;
    }
    if (!publisher.empty() && key.publisher != publisher) {
      continue;
    }
    if (newest == nullptr || entry->release->sequence() > newest->sequence()) {
      newest = entry->release;
    }
  }
  return newest;
}

std::size_t ReleaseCache::size() const {
  std::size_t ready = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      ready += entry->release != nullptr ? 1 : 0;
    }
  }
  return ready;
}

}  // namespace serve
}  // namespace dphist
