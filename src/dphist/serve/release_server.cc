#include "dphist/serve/release_server.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "dphist/algorithms/registry.h"
#include "dphist/obs/obs.h"
#include "dphist/random/rng.h"
#include "dphist/testing/failpoint.h"

namespace dphist {
namespace serve {

namespace {

obs::Counter& BatchCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/batches");
  return counter;
}

obs::Counter& BatchQueryCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/batch/queries");
  return counter;
}

obs::Counter& StaleBatchCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/batches_stale");
  return counter;
}

// The fast lane's `serve/batch` timer, resolved once: AnswerBatch's
// ScopedTimer of the same name nests its publish spans under it, which the
// fast lane never runs.
obs::Distribution& BatchDistribution() {
  static obs::Distribution& distribution =
      obs::Registry::Global().GetDistribution("serve/batch");
  return distribution;
}

obs::Counter& PrepareBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/prepare/builds");
  return counter;
}

obs::Counter& PrepareReuseCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/prepare/reuses");
  return counter;
}

obs::Counter& RetryCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/retries");
  return counter;
}

obs::Counter& DeadlineCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("serve/deadline_exceeded");
  return counter;
}

// The retryable class: transient infrastructure/publisher failures.
// Refusals (kResourceExhausted) are deterministic and handled by
// degradation; everything else is a caller or configuration error.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kInternal;
}

std::chrono::nanoseconds NextBackoff(std::chrono::nanoseconds backoff,
                                     const RetryPolicy& retry) {
  const double multiplier = std::max(1.0, retry.backoff_multiplier);
  const auto grown = std::chrono::duration_cast<std::chrono::nanoseconds>(
      backoff * multiplier);
  return std::min(grown, retry.max_backoff);
}

// A request's epsilon names a release only when the ledger could charge
// it: finite and positive.
Status CheckRequestEpsilon(const ServeRequest& request) {
  if (BudgetAccountant::ChargeableEpsilon(request.epsilon)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "request epsilon must be finite and > 0, got " +
      std::to_string(request.epsilon));
}

// A release and its journal record, each way. The record's namespace,
// fingerprint, publisher, epsilon and seed are the release's key; its body
// is the dense counts (kPublish) or the sparse domain, keys and counts
// (kPublishSparse).
JournalRecord PublishRecord(const SealedRelease& release) {
  const ReleaseKey& key = release.key();
  JournalRecord record;
  record.type = release.is_sparse() ? JournalRecord::Type::kPublishSparse
                                    : JournalRecord::Type::kPublish;
  record.key = key.tenant_key();
  record.fingerprint = key.dataset_fingerprint;
  record.publisher = key.publisher;
  record.epsilon = key.epsilon;
  record.seed = key.seed;
  if (!release.is_sparse()) {
    record.counts = release.histogram().counts();
    return record;
  }
  const sparse::SparseHistogram& histogram = release.sparse_histogram();
  record.domain = histogram.domain_size();
  record.keys.reserve(histogram.stored_keys());
  record.counts.reserve(histogram.stored_keys());
  for (const sparse::SparseEntry& entry : histogram.entries()) {
    record.keys.push_back(entry.key);
    record.counts.push_back(entry.count);
  }
  return record;
}

// The release a kPublish or kPublishSparse record carries; kInvalidArgument
// when a sparse body breaks the sparse invariants (out-of-domain or
// unsorted keys).
Result<std::shared_ptr<SealedRelease>> ReleaseFromRecord(
    const JournalRecord& record) {
  ReleaseKey key{record.key.tenant, record.key.dataset, record.fingerprint,
                 record.publisher,  record.epsilon,     record.seed};
  if (record.type == JournalRecord::Type::kPublish) {
    return std::make_shared<SealedRelease>(std::move(key),
                                           Histogram(record.counts));
  }
  std::vector<sparse::SparseEntry> entries;
  const std::size_t count = std::min(record.keys.size(), record.counts.size());
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back({record.keys[i], record.counts[i]});
  }
  DPHIST_ASSIGN_OR_RETURN(
      sparse::SparseHistogram histogram,
      sparse::SparseHistogram::Create(record.domain, std::move(entries)));
  return std::make_shared<SealedRelease>(std::move(key), std::move(histogram));
}

}  // namespace

std::string RecoveryStats::ToString() const {
  return "recovered " + std::to_string(charges_replayed) + " charge(s), " +
         std::to_string(releases_replayed) + " release(s); " +
         std::to_string(refusals) + " refusal(s), " +
         std::to_string(skipped) + " skipped, " +
         std::to_string(truncated_bytes) + " torn byte(s) discarded";
}

ReleaseServer::Dataset::Dataset(
    TenantKey key, Histogram dense_truth,
    std::optional<sparse::SparseHistogram> sparse_truth_in,
    double total_epsilon, Journal* journal)
    : truth(std::move(dense_truth)),
      sparse_truth(std::move(sparse_truth_in)),
      fingerprint(is_sparse()
                      ? sparse::FingerprintSparseHistogram(*sparse_truth)
                      : FingerprintHistogram(truth)),
      ledger(std::move(key), total_epsilon, journal) {}

Result<std::shared_ptr<const PreparedTruth>>
ReleaseServer::Dataset::PreparedFor(const std::string& publisher_name,
                                    const HistogramPublisher& publisher) {
  PreparedSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(prepared_mutex);
    // Map nodes never move and slots are never erased, so the pointer
    // outlives the lock.
    slot = &prepared.try_emplace(publisher_name).first->second;
  }
  std::lock_guard<std::mutex> lock(slot->mutex);
  if (slot->built) {
    PrepareReuseCounter().Increment();
  } else {
    slot->result = publisher.Prepare(truth);
    slot->built = true;
    PrepareBuildCounter().Increment();
  }
  return slot->result;
}

ReleaseServer::ReleaseServer(ReleaseServerOptions options)
    : options_(options), cache_(ReleaseCacheOptions{options.cache_shards}) {}

ReleaseServer::ReleaseServer(Histogram truth, double total_epsilon,
                             ReleaseServerOptions options)
    : ReleaseServer(options) {
  // The default namespace is empty by construction, so this fails only for
  // non-finite counts; the server then has no default namespace and
  // refuses every request with kNotFound before charging anything.
  (void)AddDataset(DefaultTenantKey(), std::move(truth), total_epsilon);
}

Status ReleaseServer::AddDataset(const TenantKey& key, Histogram truth,
                                 double total_epsilon) {
  return Register(key, std::move(truth), std::nullopt, total_epsilon);
}

Status ReleaseServer::AddSparseDataset(const TenantKey& key,
                                       sparse::SparseHistogram truth,
                                       double total_epsilon) {
  return Register(key, Histogram(), std::move(truth), total_epsilon);
}

Status ReleaseServer::Register(
    const TenantKey& key, Histogram dense_truth,
    std::optional<sparse::SparseHistogram> sparse_truth,
    double total_epsilon) {
  // Refused here, before any ledger exists: every publisher rejects
  // non-finite counts, and a release that cannot publish must never be
  // charged.
  DPHIST_RETURN_IF_ERROR(sparse_truth.has_value()
                             ? sparse::CheckFiniteCounts(*sparse_truth)
                             : CheckFiniteCounts(dense_truth.counts()));
  auto dataset = std::make_unique<Dataset>(key, std::move(dense_truth),
                                           std::move(sparse_truth),
                                           total_epsilon, options_.journal);
  std::unique_lock<std::shared_mutex> lock(datasets_mutex_);
  auto [it, inserted] = datasets_.try_emplace(key, std::move(dataset));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("namespace '" + FormatTenantKey(key) +
                                   "' is already registered");
  }
  return Status::Ok();
}

Result<ReleaseServer::Dataset*> ReleaseServer::FindDataset(
    const TenantKey& key) const {
  std::shared_lock<std::shared_mutex> lock(datasets_mutex_);
  const auto it = datasets_.find(key);
  if (it != datasets_.end()) {
    return it->second.get();
  }
  // Typed isolation: the same dataset name under a DIFFERENT tenant is a
  // cross-tenant probe, not a missing dataset. Never re-route it.
  for (const auto& [registered, dataset] : datasets_) {
    (void)dataset;
    if (registered.dataset == key.dataset &&
        registered.tenant != key.tenant) {
      return Status::PermissionDenied(
          "tenant '" + key.tenant + "' does not own dataset '" +
          key.dataset + "' (registered under another tenant)");
    }
  }
  return Status::NotFound("no dataset '" + key.dataset +
                          "' registered for tenant '" + key.tenant + "'");
}

ReleaseServer::Dataset* ReleaseServer::DefaultDataset() const {
  std::shared_lock<std::shared_mutex> lock(datasets_mutex_);
  const auto it = datasets_.find(DefaultTenantKey());
  return it == datasets_.end() ? nullptr : it->second.get();
}

Result<std::shared_ptr<const SealedRelease>> ReleaseServer::GetRelease(
    const TenantKey& tenant_key, const ServeRequest& request) {
  DPHIST_RETURN_IF_ERROR(CheckRequestEpsilon(request));
  DPHIST_ASSIGN_OR_RETURN(Dataset* dataset, FindDataset(tenant_key));
  const ReleaseKey key{tenant_key.tenant,   tenant_key.dataset,
                       dataset->fingerprint, request.publisher,
                       request.epsilon,      request.seed};
  // The charge happens inside the cache's once-per-key publish slot:
  // racing cache misses for the same key coalesce onto a single ledger
  // charge and a single publication, so a popular release is paid for
  // exactly once no matter how many threads request it.
  return cache_.GetOrPublish(key, [&] { return Publish(*dataset, key); });
}

Result<std::shared_ptr<SealedRelease>> ReleaseServer::Publish(
    Dataset& dataset, const ReleaseKey& key) {
  // The publisher, and for a dense one its data-only stage, come before
  // the charge: neither draws anything, and a release that cannot be
  // prepared must cost no budget.
  std::unique_ptr<sparse::SparseHistogramPublisher> sparse_publisher;
  std::unique_ptr<HistogramPublisher> publisher;
  std::shared_ptr<const PreparedTruth> prepared;
  if (dataset.is_sparse()) {
    DPHIST_ASSIGN_OR_RETURN(sparse_publisher,
                            PublisherRegistry::MakeSparse(key.publisher));
  } else {
    DPHIST_ASSIGN_OR_RETURN(publisher, PublisherRegistry::Make(key.publisher));
    DPHIST_ASSIGN_OR_RETURN(prepared,
                            dataset.PreparedFor(key.publisher, *publisher));
  }
  DPHIST_RETURN_IF_ERROR(dataset.ledger.Charge(
      key.epsilon, key.publisher + ":seed=" + std::to_string(key.seed)));
  // A charge precedes its publication (never sample noise the budget
  // cannot cover); publish failures after a successful charge are
  // conservative — the epsilon stays spent.
  Rng rng(key.seed);
  std::shared_ptr<SealedRelease> release;
  if (dataset.is_sparse()) {
    DPHIST_ASSIGN_OR_RETURN(
        sparse::SparseHistogram published,
        sparse_publisher->Publish(*dataset.sparse_truth, key.epsilon, rng));
    release = std::make_shared<SealedRelease>(key, std::move(published));
  } else {
    DPHIST_ASSIGN_OR_RETURN(Histogram published,
                            publisher->PublishPrepared(dataset.truth,
                                                       prepared.get(),
                                                       key.epsilon, rng));
    release = std::make_shared<SealedRelease>(key, std::move(published));
  }
  if (options_.journal != nullptr) {
    // Durability before acknowledgement: the publish record (with the
    // released body) must be on disk before the cache insert that makes
    // this release visible. The explicit Sync pins the ack boundary even
    // under relaxed fsync policies; under kEveryRecord it is a no-op
    // second sync. On failure the epsilon stays spent and nothing is
    // released — the caller may retry into the same coalesced slot.
    DPHIST_RETURN_IF_ERROR(options_.journal->Append(PublishRecord(*release)));
    DPHIST_RETURN_IF_ERROR(options_.journal->Sync());
  }
  return release;
}

Result<std::shared_ptr<const SealedRelease>> ReleaseServer::GetRelease(
    const ServeRequest& request) {
  return GetRelease(DefaultTenantKey(), request);
}

Result<BatchAnswer> ReleaseServer::AnswerBatch(
    const TenantKey& tenant_key, const std::vector<RangeQuery>& queries,
    const ServeRequest& request) {
  DPHIST_RETURN_IF_ERROR(CheckRequestEpsilon(request));
  DPHIST_ASSIGN_OR_RETURN(Dataset* dataset, FindDataset(tenant_key));
  DPHIST_RETURN_IF_ERROR(ValidateQueries(queries, dataset->domain()));
  obs::ScopedTimer batch_timer("serve/batch");
  BatchCounter().Increment();
  BatchQueryCounter().Add(queries.size());
  // Chaos hook: whole-batch latency at the front door.
  DPHIST_FAILPOINT("serve/answer_batch");

  BatchAnswer batch;
  // Fast lane: one counting lookup. A sealed release needs none of the
  // retry/degradation machinery below — it is immutable, already paid
  // for, and lock-free to read.
  std::shared_ptr<const SealedRelease> release = cache_.LookupServing(
      {tenant_key.tenant, tenant_key.dataset, dataset->fingerprint,
       request.publisher, request.epsilon, request.seed});
  if (release != nullptr) {
    batch.cache_hit = true;
  } else {
    // Resolve the release with bounded retries on transient failure. The
    // deadline and every backoff sleep go through the injectable clock, so
    // the whole schedule is simulated time in tests — never a wall sleep.
    Clock& clock =
        options_.clock != nullptr ? *options_.clock : Clock::Real();
    const RetryPolicy& retry = options_.retry;
    const std::size_t max_attempts =
        std::max<std::size_t>(1, retry.max_attempts);
    const bool has_deadline =
        retry.deadline > std::chrono::nanoseconds::zero();
    const std::chrono::steady_clock::time_point deadline =
        has_deadline ? clock.Now() + retry.deadline
                     : std::chrono::steady_clock::time_point{};
    auto requested = GetRelease(tenant_key, request);
    std::chrono::nanoseconds backoff = retry.initial_backoff;
    for (std::size_t attempt = 1; !requested.ok() &&
                                  IsTransient(requested.status()) &&
                                  attempt < max_attempts;
         ++attempt) {
      if (has_deadline && clock.Now() + backoff > deadline) {
        // Sleeping the next backoff would overrun the batch budget: give
        // up now, typed, with the underlying error preserved.
        DeadlineCounter().Increment();
        return Status::DeadlineExceeded(
            "AnswerBatch gave up after " + std::to_string(attempt) +
            " attempt(s): retrying would exceed the batch deadline; last "
            "error: " +
            requested.status().ToString());
      }
      clock.SleepFor(backoff);
      backoff = NextBackoff(backoff, retry);
      RetryCounter().Increment();
      requested = GetRelease(tenant_key, request);
    }

    if (requested.ok()) {
      release = std::move(requested).value();
    } else if (requested.status().code() ==
               StatusCode::kResourceExhausted) {
      // Degrade instead of failing the batch: newest release of the same
      // publisher if any, else the newest release of any publisher —
      // always inside this namespace; degradation never crosses a tenant
      // boundary.
      release = cache_.NewestFor(tenant_key, request.publisher);
      if (release == nullptr) {
        release = cache_.NewestFor(tenant_key, "");
      }
      if (release == nullptr) {
        return requested.status();
      }
      batch.stale = true;
      StaleBatchCounter().Increment();
    } else {
      return requested.status();
    }
  }
  batch.served = release->key();
  AnswerInto(*release, queries, &batch.answers, /*may_fan_out=*/true);
  return batch;
}

void ReleaseServer::AnswerInto(const SealedRelease& release,
                               const std::vector<RangeQuery>& queries,
                               std::vector<double>* answers,
                               bool may_fan_out) const {
  answers->resize(queries.size());
  auto answer_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Chaos hook: per-query latency (a slow shard, a page fault). Pure
      // delay — answers are unaffected by construction.
      DPHIST_FAILPOINT("serve/answer_query");
      (*answers)[i] = release.RangeSum(queries[i].begin, queries[i].end);
    }
  };
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  // Chaos hook: induced pool-dispatch failure. The contract is graceful
  // degradation, not batch failure — the fan-out falls back to inline
  // answering, so only latency changes, never the answers.
  if (may_fan_out && pool.thread_count() > 1 &&
      queries.size() >= options_.min_parallel_batch &&
      !testing::FailpointFires("serve/pool_dispatch")) {
    pool.ParallelForChunks(0, queries.size(), /*min_chunk=*/64,
                           answer_range);
  } else {
    answer_range(0, queries.size());
  }
}

std::shared_ptr<const SealedRelease> ReleaseServer::TryGetCached(
    const TenantKey& tenant_key, const ServeRequest& request) const {
  if (!BudgetAccountant::ChargeableEpsilon(request.epsilon)) {
    return nullptr;  // GetRelease gives the typed refusal
  }
  auto dataset = FindDataset(tenant_key);
  if (!dataset.ok()) {
    return nullptr;
  }
  return cache_.LookupServing({tenant_key.tenant, tenant_key.dataset,
                               dataset.value()->fingerprint,
                               request.publisher, request.epsilon,
                               request.seed});
}

Result<bool> ReleaseServer::TryAnswerCached(
    const TenantKey& tenant_key, const std::vector<RangeQuery>& queries,
    const ServeRequest& request, BatchAnswer* out) {
  DPHIST_RETURN_IF_ERROR(CheckRequestEpsilon(request));
  DPHIST_ASSIGN_OR_RETURN(Dataset* dataset, FindDataset(tenant_key));
  std::shared_ptr<const SealedRelease> release = cache_.Lookup(
      {tenant_key.tenant, tenant_key.dataset, dataset->fingerprint,
       request.publisher, request.epsilon, request.seed});
  if (release == nullptr) {
    // Not sealed yet: the caller takes the full AnswerBatch path, which
    // re-resolves and does its own hit/miss accounting — counting nothing
    // here keeps totals identical to a fast-lane-free server.
    return false;
  }
  // From here on this is the AnswerBatch cache-hit path verbatim —
  // validation, counters, and chaos hooks included — so answers, errors,
  // and observability are indistinguishable between the two lanes.
  DPHIST_RETURN_IF_ERROR(ValidateQueries(queries, dataset->domain()));
  obs::DistributionTimer batch_timer(BatchDistribution());
  BatchCounter().Increment();
  BatchQueryCounter().Add(queries.size());
  DPHIST_FAILPOINT("serve/answer_batch");
  ReleaseCache::CountServingHit();
  out->stale = false;
  out->cache_hit = true;
  out->served = release->key();
  // Inline at every batch size: this is the event loop's lane, and a loop
  // waiting on a fork/join stalls every connection it serves. 1024 prefix
  // answers cost a few microseconds; the fork/join alone cost 20.
  AnswerInto(*release, queries, &out->answers, /*may_fan_out=*/false);
  return true;
}

Result<BatchAnswer> ReleaseServer::AnswerBatch(
    const std::vector<RangeQuery>& queries, const ServeRequest& request) {
  return AnswerBatch(DefaultTenantKey(), queries, request);
}

Result<RecoveryStats> ReleaseServer::Recover(const ReplayResult& replay) {
  RecoveryStats stats;
  stats.truncated_bytes = replay.truncated_bytes;
  for (const JournalRecord& record : replay.records) {
    auto dataset = FindDataset(record.key);
    if (!dataset.ok()) {
      // The namespace is gone (or moved tenants). The record stays in the
      // journal but is not applied; count it so operators notice.
      ++stats.skipped;
      continue;
    }
    switch (record.type) {
      case JournalRecord::Type::kCharge: {
        const Status status = dataset.value()->ledger.RestoreCharge(record);
        if (status.ok()) {
          ++stats.charges_replayed;
        } else if (status.code() == StatusCode::kResourceExhausted) {
          // The grant shrank across the restart; the accountant refuses
          // the excess. Remaining budget stays >= 0 — the no-overspend
          // direction — but the refusal is worth surfacing.
          ++stats.refusals;
        } else {
          return status;
        }
        break;
      }
      case JournalRecord::Type::kPublish:
      case JournalRecord::Type::kPublishSparse: {
        const Dataset& registered = *dataset.value();
        auto release = ReleaseFromRecord(record);
        // A release installs only when it fits the registered truth: the
        // same data (fingerprint), and the same representation and domain
        // size, since queries are validated against the dataset and then
        // read the release unchecked. A sparse body that breaks the sparse
        // invariants cannot be replayed either, nor can a release under
        // an epsilon no request may name; skip rather than fail the whole
        // recovery.
        if (record.fingerprint != registered.fingerprint ||
            !BudgetAccountant::ChargeableEpsilon(record.epsilon) ||
            !release.ok() ||
            release.value()->is_sparse() != registered.is_sparse() ||
            release.value()->size() != registered.domain()) {
          ++stats.skipped;
          break;
        }
        cache_.RestorePublished(std::move(release).value());
        ++stats.releases_replayed;
        break;
      }
    }
  }
  return stats;
}

std::size_t ReleaseServer::dataset_count() const {
  std::shared_lock<std::shared_mutex> lock(datasets_mutex_);
  return datasets_.size();
}

Result<const BudgetLedger*> ReleaseServer::LedgerFor(
    const TenantKey& key) const {
  DPHIST_ASSIGN_OR_RETURN(Dataset* dataset, FindDataset(key));
  return static_cast<const BudgetLedger*>(&dataset->ledger);
}

std::uint64_t ReleaseServer::fingerprint() const {
  const Dataset* dataset = DefaultDataset();
  return dataset == nullptr ? 0 : dataset->fingerprint;
}

std::size_t ReleaseServer::domain_size() const {
  const Dataset* dataset = DefaultDataset();
  return dataset == nullptr ? 0
                            : static_cast<std::size_t>(dataset->domain());
}

const BudgetLedger& ReleaseServer::ledger() const {
  return DefaultDataset()->ledger;
}

}  // namespace serve
}  // namespace dphist
