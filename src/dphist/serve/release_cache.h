#ifndef DPHIST_SERVE_RELEASE_CACHE_H_
#define DPHIST_SERVE_RELEASE_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/hist/histogram.h"
#include "dphist/serve/shard.h"
#include "dphist/serve/tenant.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace serve {

/// The dataset identity of a release key (hist/histogram.h).
using ::dphist::FingerprintHistogram;

/// \brief Identity of one published release: which tenant's dataset, which
/// algorithm, at what budget, with which noise stream. Publishers are
/// deterministic functions of (histogram, epsilon, rng seed), so equal
/// keys imply bit-identical releases — the invariant that makes caching
/// sound (a cache hit re-serves the *same* release, costing zero extra
/// privacy).
///
/// The tenant and dataset names are part of the key on purpose: the
/// fingerprint identifies the *data*, but two tenants may serve identical
/// data, and caching (or worse, the degraded "newest release" fallback)
/// across that boundary would hand one tenant a release the other paid
/// for. Keys never match across namespaces.
struct ReleaseKey {
  std::string tenant;
  std::string dataset;
  std::uint64_t dataset_fingerprint = 0;
  std::string publisher;
  double epsilon = 0.0;
  std::uint64_t seed = 0;

  TenantKey tenant_key() const { return {tenant, dataset}; }

  friend bool operator==(const ReleaseKey&, const ReleaseKey&) = default;
};

/// Strict weak order over ReleaseKey for map storage (field-wise
/// lexicographic, cheap fingerprint first; epsilon by its bit pattern,
/// which for positive finite epsilons is the numeric order and keeps even
/// a NaN from aliasing other keys — keys come from caller-supplied values,
/// not derived arithmetic).
struct ReleaseKeyLess {
  bool operator()(const ReleaseKey& a, const ReleaseKey& b) const;
};

/// \brief An immutable sealed snapshot of one published release: the
/// histogram with its prefix-sum table sealed at construction (so any
/// range query is O(1) with no lazy state), plus lazily-filled
/// pre-encoded response frames per wire codec. Handed to readers as
/// `shared_ptr<const SealedRelease>` snapshots, so the serve path never
/// touches a shard mutex after the initial lookup and never re-encodes a
/// hot release — safe to share across serving threads with no external
/// synchronization.
class SealedRelease {
 public:
  /// Index of a pre-encoded response frame; one slot per wire codec.
  enum class FrameCodec : std::size_t { kBinary = 0, kJson = 1 };
  static constexpr std::size_t kFrameCodecs = 2;

  /// Seals the histogram's prefix table eagerly (Kahan-compensated), so
  /// every reader takes the lock-free fast path.
  SealedRelease(ReleaseKey key, Histogram histogram);

  /// A sparse release: the SparseHistogram carries its own prefix table,
  /// so range sums are O(log released-keys) instead of O(1).
  SealedRelease(ReleaseKey key, sparse::SparseHistogram sparse);

  const ReleaseKey& key() const { return key_; }

  /// The dense released histogram; empty for a sparse release (check
  /// `is_sparse()` first).
  const Histogram& histogram() const { return histogram_; }

  /// True when this release is sparse (constructed from a
  /// SparseHistogram).
  bool is_sparse() const { return sparse_.domain_size() != 0; }

  /// The sparse released histogram; a zero-domain placeholder for dense
  /// releases.
  const sparse::SparseHistogram& sparse_histogram() const { return sparse_; }

  /// Domain size in unit bins (the sparse domain for sparse releases).
  std::size_t size() const {
    return is_sparse() ? static_cast<std::size_t>(sparse_.domain_size())
                       : histogram_.size();
  }

  /// Sum of released counts in [begin, end); O(1) dense, O(log k) sparse.
  /// Requires begin <= end <= size() (validated by the serving front-end).
  double RangeSum(std::size_t begin, std::size_t end) const {
    if (is_sparse()) {
      return sparse_.RangeSumUnchecked(begin, end);
    }
    return histogram_.RangeSumUnchecked(begin, end);
  }

  /// Monotone insertion index within the owning cache (0 for a release
  /// constructed outside one); newer releases have larger sequences —
  /// what the degraded "serve newest cached" path orders by.
  std::uint64_t sequence() const { return sequence_; }

  /// The pre-encoded response frame for `codec`, encoding it via `encode`
  /// on first use (once-init: concurrent first callers serialize on an
  /// internal mutex, exactly one encodes, everyone shares the result).
  /// The returned string is immutable and outlives the release through
  /// the shared_ptr — the zero-copy payload the net layer writes straight
  /// to the socket. The encoder callback keeps the wire codecs out of the
  /// serve layer (net/ supplies them), and the frame is keyed to this
  /// sealed snapshot, so invalidation is structural: a republished or
  /// recovered release is a *new* SealedRelease with empty frame slots —
  /// a stale frame cannot survive its release.
  ///
  /// Obs: `serve/frame_cache_hits` on a filled slot,
  /// `serve/frame_cache_misses` when this call encodes.
  std::shared_ptr<const std::string> EncodedFrame(
      FrameCodec codec,
      const std::function<std::string()>& encode) const;

 private:
  friend class ReleaseCache;

  struct FrameSlot {
    std::atomic<bool> ready{false};
    std::shared_ptr<const std::string> frame;
  };

  ReleaseKey key_;
  Histogram histogram_;
  sparse::SparseHistogram sparse_;
  std::uint64_t sequence_ = 0;
  /// Per-codec encoded-frame memo; `ready` is the acquire/release
  /// publication flag for `frame`, which is written once under
  /// `frame_mutex_`.
  mutable std::array<FrameSlot, kFrameCodecs> frames_;
  mutable std::mutex frame_mutex_;
};

/// Construction knobs for ReleaseCache.
struct ReleaseCacheOptions {
  /// Shard count; 0 defers to DPHIST_SERVE_SHARDS, then
  /// kDefaultServeShards.
  std::size_t shards = 0;
};

/// \brief Thread-safe, sharded memo of published releases keyed by
/// ReleaseKey.
///
/// Sharding: keys hash by tenant x dataset onto a fixed array of shards,
/// each with its own mutex and map, so serving throughput scales with
/// cores instead of serializing every tenant on one cache-wide lock.
/// Routing a key to its shard is lock-free (the shard array never changes
/// after construction); a whole namespace lives on one shard, so
/// namespace-scoped scans (`NewestFor`) lock exactly one shard.
///
/// Concurrency contract: for any key, the publish callback passed to
/// `GetOrPublish` runs **at most once concurrently and exactly once
/// successfully** — racing callers coalesce onto one publication (a
/// per-key mutex serializes them; losers return the winner's release
/// without invoking their own callback). A failed publish caches nothing,
/// so a later call may retry. Lookups never block behind an in-flight
/// publication of a different key.
///
/// Obs (recorded only while obs is enabled): `serve/cache/hits`,
/// `serve/cache/misses` (a miss is counted once per publish attempt, not
/// per coalesced waiter), `serve/cache/entries` tracks insertions,
/// `serve/cache/evictions` tracks removals.
class ReleaseCache {
 public:
  /// Produces the finished release for the key it was asked for, inside
  /// that key's publish slot. The cache assigns the sequence number on
  /// insert, so the callback leaves it 0.
  using PublishFn = std::function<Result<std::shared_ptr<SealedRelease>>()>;

  explicit ReleaseCache(ReleaseCacheOptions options = {});
  ReleaseCache(const ReleaseCache&) = delete;
  ReleaseCache& operator=(const ReleaseCache&) = delete;

  /// Returns the cached release for `key`, publishing it via `publish` on
  /// first use. Propagates the callback's error status (e.g. a
  /// ResourceExhausted budget refusal) without caching anything. The
  /// callback's release must carry `key`; dense and sparse releases share
  /// one keyspace.
  Result<std::shared_ptr<const SealedRelease>> GetOrPublish(
      const ReleaseKey& key, const PublishFn& publish);

  /// The cached release for `key`, or null when absent. Never publishes.
  std::shared_ptr<const SealedRelease> Lookup(const ReleaseKey& key) const;

  /// Serving-path lookup: identical to `Lookup`, but a non-null result is
  /// recorded as a `serve/cache/hits` — the fast lane's single shard-mutex
  /// touch. A null result records nothing (the caller falls through to
  /// `GetOrPublish`, which counts the miss once per publish attempt, so
  /// hit/miss totals stay consistent with the pre-fast-lane accounting).
  std::shared_ptr<const SealedRelease> LookupServing(
      const ReleaseKey& key) const;

  /// Records one `serve/cache/hits` for a release resolved through a plain
  /// `Lookup` — for fast lanes that must defer the hit until after
  /// request validation (so accounting matches the non-fast-lane path
  /// without a second map lookup).
  static void CountServingHit();

  /// Removes the ready release for `key`; returns true when one was
  /// present. An in-flight publication of the same key is unaffected (its
  /// insert re-creates the entry).
  bool Evict(const ReleaseKey& key);

  /// Inserts an already-published release under its own key (journal
  /// replay). Idempotent: when the key is already ready the existing
  /// release is returned and `release` is discarded — replaying a journal
  /// twice cannot double any state.
  std::shared_ptr<const SealedRelease> RestorePublished(
      std::shared_ptr<SealedRelease> release);

  /// The most recently published release in `tenant_key`'s namespace, or
  /// null when none exists — the degraded-serving fallback after a budget
  /// refusal. An empty `publisher` matches any publisher; a non-empty one
  /// filters to that publisher's releases. Never crosses a tenant/dataset
  /// boundary.
  std::shared_ptr<const SealedRelease> NewestFor(
      const TenantKey& tenant_key, std::string_view publisher) const;

  /// Number of successfully published (ready) releases across all shards.
  std::size_t size() const;

  /// Number of shards (for tests and `bench_serve`'s shard sweep).
  std::size_t shard_count() const { return shard_map_.count(); }

 private:
  struct Entry {
    /// Serializes publish attempts for this key; never held while the
    /// shard mutex is held.
    std::mutex publish_mutex;
    /// The ready release; guarded by the owning shard's mutex, null until
    /// a publish succeeded.
    std::shared_ptr<const SealedRelease> release;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<ReleaseKey, std::shared_ptr<Entry>, ReleaseKeyLess> entries;
  };

  Shard& ShardFor(const ReleaseKey& key) const {
    return *shards_[shard_map_.IndexFor(key.tenant, key.dataset)];
  }

  ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cache-wide publication order (sequence numbers must order releases
  /// across shards, since a tenant's namespace could in principle move
  /// between shard counts across restarts).
  std::atomic<std::uint64_t> next_sequence_{1};
};

}  // namespace serve
}  // namespace dphist

#endif  // DPHIST_SERVE_RELEASE_CACHE_H_
