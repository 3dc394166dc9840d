#ifndef DPHIST_SERVE_RELEASE_SERVER_H_
#define DPHIST_SERVE_RELEASE_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/common/clock.h"
#include "dphist/common/parallel_defaults.h"
#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/histogram.h"
#include "dphist/query/range_query.h"
#include "dphist/serve/budget_ledger.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_cache.h"
#include "dphist/serve/tenant.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace serve {

/// \brief One serving request: which publisher to answer from, at what
/// epsilon, with which deterministic noise stream.
struct ServeRequest {
  std::string publisher = "noise_first";
  double epsilon = 0.1;
  std::uint64_t seed = 42;
};

/// \brief The result of answering one query batch.
struct BatchAnswer {
  /// One answer per query, in request order.
  std::vector<double> answers;
  /// True when the requested release could not be published (budget
  /// exhausted) and the batch was served from the newest cached release
  /// instead — the degradation contract: stale answers beat a failed
  /// batch, and they cost no additional privacy.
  bool stale = false;
  /// True when the release that answered was already cached (no publisher
  /// invocation, no budget charge).
  bool cache_hit = false;
  /// Key of the release that actually answered (differs from the request
  /// iff `stale`).
  ReleaseKey served;
};

/// \brief Retry policy for transient release failures inside `AnswerBatch`.
///
/// Only `kInternal` errors are retried — the transient class (an injected
/// or real publisher/infrastructure failure mid-flight). `kResourceExhausted`
/// is a deterministic refusal handled by degradation, and argument errors
/// are caller bugs; retrying either would just repeat the answer.
///
/// Backoff is deterministic (exponential, no jitter) and sleeps on the
/// server's injectable `Clock`, so a test with a `FakeClock` executes the
/// exact schedule instantly: attempt 1, sleep `initial_backoff`, attempt 2,
/// sleep `initial_backoff * backoff_multiplier`, ... capped at
/// `max_backoff`, never exceeding `max_attempts` attempts in total.
///
/// `deadline` bounds the whole batch: when sleeping the next backoff would
/// pass it, the batch fails with `kDeadlineExceeded` (carrying the last
/// underlying error) instead of sleeping. Zero means no deadline.
struct RetryPolicy {
  /// Total attempts including the first; 1 (the default) disables retry
  /// and keeps the historical single-shot behavior and cost.
  std::size_t max_attempts = 1;
  /// Sleep before the first retry.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(10);
  /// Backoff growth factor per retry (values < 1 are pinned to 1).
  double backoff_multiplier = 2.0;
  /// Upper bound for one backoff sleep.
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(1);
  /// Per-batch time budget measured from AnswerBatch entry; zero = none.
  std::chrono::nanoseconds deadline = std::chrono::nanoseconds::zero();
};

/// \brief Execution knobs for the server.
struct ReleaseServerOptions {
  /// Pool for the batched-query fan-out; nullptr means ThreadPool::Global().
  ThreadPool* pool = nullptr;
  /// AnswerBatch batches smaller than this answer inline on the caller —
  /// each answer is one O(1) prefix-sum subtraction, so fork/join only
  /// pays for itself on large batches. Same documented cut-over constant
  /// as the solver stages. TryAnswerCached never forks, whatever this is.
  std::size_t min_parallel_batch = kDefaultMinParallelCandidates;
  /// Retry policy for transient failures in AnswerBatch (see RetryPolicy).
  RetryPolicy retry;
  /// Time source for backoff sleeps and the batch deadline; nullptr means
  /// Clock::Real(). Tests install a FakeClock so retries never sleep
  /// wall-clock.
  Clock* clock = nullptr;
  /// Release-cache shard count; 0 defers to DPHIST_SERVE_SHARDS, then the
  /// built-in default.
  std::size_t cache_shards = 0;
  /// Write-ahead journal (not owned; may be null for an in-memory server).
  /// When set, every accepted charge and every successful publication is
  /// durable before its caller is acknowledged, and `Recover` can rebuild
  /// ledger spend + cache contents after a crash.
  Journal* journal = nullptr;
};

/// \brief What `Recover` rebuilt from a journal replay.
struct RecoveryStats {
  /// Charges re-applied into their ledgers.
  std::size_t charges_replayed = 0;
  /// Publications re-inserted into the cache.
  std::size_t releases_replayed = 0;
  /// Replayed charges the accountant refused — only possible when a
  /// tenant's grant shrank across the restart; the refused spend does NOT
  /// re-enter the ledger, so inspect this before trusting
  /// `remaining_epsilon` of a reconfigured tenant.
  std::size_t refusals = 0;
  /// Records skipped: namespaces no longer registered, or publish records
  /// that do not fit the registered truth — another fingerprint (the data
  /// changed, so the old release would answer about a histogram the
  /// server no longer holds), or another representation or domain size
  /// (queries validated against the dataset would read past the release).
  std::size_t skipped = 0;
  /// Torn/corrupt tail bytes the replay discarded (from ReplayResult).
  std::uint64_t truncated_bytes = 0;

  std::string ToString() const;
};

/// \brief The release-serving front-end: a registry of tenant-x-dataset
/// namespaces (each with its own true histogram and `BudgetLedger`), one
/// sharded `ReleaseCache`, and an optional write-ahead `Journal`, answering
/// batched range queries from cached releases.
///
/// Multi-tenancy: every dataset is registered under a `TenantKey` via
/// `AddDataset`, and every request names the namespace it targets. The
/// isolation contract is typed: a request for a dataset name that exists
/// only under OTHER tenants fails `kPermissionDenied` (the caller is
/// probing across the boundary); a name no tenant registered fails
/// `kNotFound`. Cached releases and the degraded "newest release" fallback
/// never cross a namespace boundary (the tenant and dataset are part of
/// the cache key).
///
/// Request flow for `AnswerBatch`:
///  1. Resolve the namespace; validate the batch against its domain.
///  2. Get the release for (publisher, epsilon, seed): a cache hit costs
///     zero privacy and zero publisher work; a miss charges the namespace
///     ledger (inside the cache's once-per-key publish slot, so racing
///     misses coalesce onto one charge + one publication) and publishes.
///  3. Budget refused? Degrade: serve the newest cached release in this
///     namespace (same publisher preferred, any publisher otherwise) with
///     `stale = true`. Only when *nothing* was ever released does the
///     batch fail, with the ledger's typed ResourceExhausted status.
///  4. Fan the answers across the pool (O(1) each off the release's
///     prefix array) when the batch is large enough.
///
/// Durability (when a journal is attached): a charge is journaled at the
/// ledger's commit point, and a publication is journaled AND fsynced
/// before the cache insert that acknowledges it — so after `Recover`,
/// every acknowledged release is present and replayed spend never exceeds
/// committed spend. Journal failures surface as the publish slot's error:
/// the epsilon stays spent (conservative) and nothing is released.
///
/// Transient (`kInternal`) release failures are retried per
/// `ReleaseServerOptions::retry` — bounded attempts, deterministic
/// exponential backoff on the injectable clock, per-batch deadline
/// (`kDeadlineExceeded` when it would be overrun). The degradation path
/// (step 3) is not retried: a budget refusal is deterministic.
///
/// Thread safety: all public methods may be called concurrently; the
/// registry is read-mostly under its own mutex, each ledger serializes its
/// charges, the cache serializes per-key publications, and releases are
/// immutable once cached. `AddDataset` and `Recover` are typically called
/// at startup but are themselves thread-safe.
///
/// Data-only stages: each dense dataset keeps one `Prepare` result per
/// publisher name (StructureFirst's scoring cost table), built inside the
/// first publish slot that needs it and before that slot's ledger charge,
/// so a release that cannot be prepared is never charged. Every later
/// release of the dataset under that publisher reuses it; the per-release
/// stage (solve, draws, noise) reads it and releases the same bits a
/// from-scratch `Publish` would. It lives as long as the server.
///
/// Obs: `serve/batches`, `serve/batch/queries`, `serve/batches_stale`,
/// `serve/retries`, `serve/deadline_exceeded`, `serve/prepare/builds` and
/// `serve/prepare/reuses` counters and the `serve/batch` wall-ms
/// distribution, on top of the cache, ledger, and journal metrics.
class ReleaseServer {
 public:
  /// Creates an empty server; register namespaces with `AddDataset`.
  explicit ReleaseServer(ReleaseServerOptions options = {});

  /// Single-tenant convenience: serves `truth` under a lifetime privacy
  /// budget of `total_epsilon`, registered as the default namespace
  /// (tenant "default", dataset "default"). The tenant-less overloads
  /// below target this namespace. A NaN or infinite count registers
  /// nothing (see AddDataset), so every request fails kNotFound.
  ReleaseServer(Histogram truth, double total_epsilon,
                ReleaseServerOptions options = {});

  ReleaseServer(const ReleaseServer&) = delete;
  ReleaseServer& operator=(const ReleaseServer&) = delete;

  /// Registers `truth` under `key` with a lifetime budget of
  /// `total_epsilon`. Fails `kInvalidArgument` when the namespace is taken
  /// or a count is NaN or infinite.
  Status AddDataset(const TenantKey& key, Histogram truth,
                    double total_epsilon);

  /// Registers a sparse dataset under `key`, with the same checks as
  /// `AddDataset`: its requests must name a sparse publisher (see
  /// `PublisherRegistry::SparseNames`), queries are validated against the
  /// 64-bit sparse domain, and publications are journaled as
  /// `kPublishSparse` records.
  Status AddSparseDataset(const TenantKey& key,
                          sparse::SparseHistogram truth,
                          double total_epsilon);

  /// Returns the (cached or newly published) release for `request` in
  /// `key`'s namespace. Errors: kInvalidArgument, before any lookup, for
  /// an epsilon that is NaN, infinite or not positive (every entry point
  /// below refuses it the same way); kPermissionDenied when `key.dataset`
  /// exists only under other tenants, kNotFound for an unknown dataset or
  /// publisher name, kResourceExhausted when the ledger refuses the
  /// charge, kInvalidArgument for bad publish arguments, and the journal's
  /// error when durability failed. Never degrades — that policy lives in
  /// AnswerBatch.
  Result<std::shared_ptr<const SealedRelease>> GetRelease(
      const TenantKey& key, const ServeRequest& request);

  /// Default-namespace convenience overload.
  Result<std::shared_ptr<const SealedRelease>> GetRelease(
      const ServeRequest& request);

  /// The already-sealed release for `request`, or null when it is not
  /// cached (or the namespace is unknown, or the epsilon one GetRelease
  /// refuses). Never publishes, never charges,
  /// never journals, never degrades — the serving fast lane: one
  /// shared-lock registry read plus one shard-mutex cache lookup, after
  /// which the caller holds an immutable snapshot and touches no server
  /// state at all. A non-null result counts as a `serve/cache/hits`.
  std::shared_ptr<const SealedRelease> TryGetCached(
      const TenantKey& key, const ServeRequest& request) const;

  /// Fast-lane batch answering: when the release for `request` is already
  /// sealed in the cache, validates `queries`, answers them, fills `*out`
  /// (with `cache_hit = true`), and returns Ok(true) — equivalent
  /// byte-for-byte to what `AnswerBatch` would return, minus the retry and
  /// degradation machinery that a cache hit never needs. It answers on the
  /// calling thread at every batch size and never forks onto the pool:
  /// the caller is the network event loop, which must not wait on workers.
  /// `out->answers` is resized in place, so a caller that reuses one
  /// BatchAnswer allocates nothing once it has grown. Returns Ok(false)
  /// when the release is not cached (the caller falls through to
  /// `AnswerBatch`), and an error status only for caller bugs
  /// (out-of-domain queries, cross-tenant probes) — exactly the errors
  /// `AnswerBatch` would also report, so the fast lane never masks one.
  Result<bool> TryAnswerCached(const TenantKey& key,
                               const std::vector<RangeQuery>& queries,
                               const ServeRequest& request, BatchAnswer* out);

  /// Answers every query in `queries` against the release for `request`
  /// in `key`'s namespace, degrading to the newest cached release on
  /// budget refusal (see class comment). Fails if any query exceeds the
  /// domain, or on refusal with an empty namespace cache.
  Result<BatchAnswer> AnswerBatch(const TenantKey& key,
                                  const std::vector<RangeQuery>& queries,
                                  const ServeRequest& request);

  /// Default-namespace convenience overload.
  Result<BatchAnswer> AnswerBatch(const std::vector<RangeQuery>& queries,
                                  const ServeRequest& request);

  /// Replays a recovered journal into the registered namespaces: charges
  /// re-enter their ledgers (without re-journaling), publications re-enter
  /// the cache (idempotently). Call after registering every dataset and
  /// before serving. Records for unregistered namespaces, and publish
  /// records that do not fit the registered truth (another fingerprint,
  /// the other representation, another domain size, or a sparse body that
  /// breaks the sparse invariants, or an epsilon a request could not
  /// name), are counted in `skipped`, never applied. A charge record the
  /// ledger refuses as malformed (a NaN epsilon) fails the recovery.
  Result<RecoveryStats> Recover(const ReplayResult& replay);

  /// Number of registered namespaces.
  std::size_t dataset_count() const;

  /// The ledger for `key`'s namespace (spend/remaining introspection), or
  /// the same typed kPermissionDenied/kNotFound errors as GetRelease.
  Result<const BudgetLedger*> LedgerFor(const TenantKey& key) const;

  /// Fingerprint of the default-namespace dataset (0 when unregistered).
  std::uint64_t fingerprint() const;

  /// Domain size of the default-namespace dataset (0 when unregistered).
  std::size_t domain_size() const;

  /// The default-namespace budget ledger. Requires the default namespace
  /// to be registered (the single-tenant constructor does this).
  const BudgetLedger& ledger() const;

  /// The release cache (size/lookups introspection).
  const ReleaseCache& cache() const { return cache_; }

 private:
  /// One registered namespace: the truth (dense or sparse), its
  /// fingerprint, its ledger.
  struct Dataset {
    Dataset(TenantKey key, Histogram dense_truth,
            std::optional<sparse::SparseHistogram> sparse_truth_in,
            double total_epsilon, Journal* journal);

    bool is_sparse() const { return sparse_truth.has_value(); }

    /// Domain size in unit bins (the sparse domain for sparse datasets).
    std::uint64_t domain() const {
      return is_sparse() ? sparse_truth->domain_size() : truth.size();
    }

    /// One publisher's `Prepare(truth)` result, built once on first use.
    struct PreparedSlot {
      std::mutex mutex;
      bool built = false;
      Result<std::shared_ptr<const PreparedTruth>> result =
          std::shared_ptr<const PreparedTruth>();
    };

    /// `publisher.Prepare(truth)`, built by the first caller for
    /// `publisher_name` and shared with every later one, error included.
    /// Racing first callers wait on the slot, as racing misses of one key
    /// wait on the cache's publish slot.
    Result<std::shared_ptr<const PreparedTruth>> PreparedFor(
        const std::string& publisher_name,
        const HistogramPublisher& publisher);

    Histogram truth;  // empty for sparse datasets
    std::optional<sparse::SparseHistogram> sparse_truth;
    std::uint64_t fingerprint;
    BudgetLedger ledger;
    /// Data-only publisher stages over `truth`, by publisher name. Never
    /// journaled: a restart rebuilds each on its first publish.
    std::mutex prepared_mutex;
    std::map<std::string, PreparedSlot> prepared;
  };

  /// The one registration path behind AddDataset and AddSparseDataset:
  /// `sparse_truth` set means a sparse dataset (and `dense_truth` is
  /// empty).
  Status Register(const TenantKey& key, Histogram dense_truth,
                  std::optional<sparse::SparseHistogram> sparse_truth,
                  double total_epsilon);

  /// The publish slot behind GetRelease, run inside the cache's per-key
  /// slot: publisher, data-only stage, charge, publish, then the journal
  /// append and sync that make the release durable before it is
  /// acknowledged.
  Result<std::shared_ptr<SealedRelease>> Publish(Dataset& dataset,
                                                 const ReleaseKey& key);

  /// Resolves `key` to its namespace, or the typed isolation error.
  Result<Dataset*> FindDataset(const TenantKey& key) const;

  /// FindDataset for the default namespace.
  Dataset* DefaultDataset() const;

  /// Answers `queries` against a resolved release (shared core of
  /// AnswerBatch and TryAnswerCached). With `may_fan_out`, batches of at
  /// least `min_parallel_batch` split across the pool; every answer is an
  /// independent prefix subtraction, so both lanes produce bit-identical
  /// answers at any pool width.
  void AnswerInto(const SealedRelease& release,
                  const std::vector<RangeQuery>& queries,
                  std::vector<double>* answers, bool may_fan_out) const;

  ReleaseServerOptions options_;
  ReleaseCache cache_;
  /// Read-mostly registry: serving takes shared locks; AddDataset /
  /// AddSparseDataset (startup-time) take the exclusive lock.
  mutable std::shared_mutex datasets_mutex_;
  std::map<TenantKey, std::unique_ptr<Dataset>, TenantKeyLess> datasets_;
};

}  // namespace serve
}  // namespace dphist

#endif  // DPHIST_SERVE_RELEASE_SERVER_H_
