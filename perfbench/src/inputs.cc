// Input generation: every request sequence, fresh-key seed and query range
// of a run is derived from the workload seed here, before any timing.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common.h"
#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/net/http.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"

namespace perfbench {
namespace {

using dphist::Rng;

// The dense truth: the paper suite's network-trace histogram.
constexpr std::size_t kDenseDomain = 1024;
constexpr std::uint64_t kDatasetSeed = 42;
// The sparse truth: kSparseKeys stored keys over a 2^40 domain.
constexpr std::uint64_t kSparseDomain = 1ULL << 40;
constexpr std::size_t kSparseKeys = 1024;

// Hot set: kHotPerPublisher releases each of noise_first and
// structure_first on the dense namespace, kHotSparse sparse_pure ones.
constexpr std::size_t kHotPerPublisher = 12;
constexpr std::size_t kHotSparse = 2;
// hot_read cycles through this many pre-serialized bursts, composed in
// groups of kGroupBursts bursts (kGroupBursts * kBurst requests) with fixed
// class counts: mostly 64-query binary batches, small fixed shares of JSON
// requests, full-frame /v1/release requests, and one 1024-query batch —
// above the 256-query fork cut-over, so it forks on the pool from the
// event loop. At one per burst (1 in 32 requests) the loop's wait for two
// pool workers to wake cut read throughput from about 95k to about 63k
// req/s on a 4-core KVM guest, and that wait is what varies most from run
// to run. One per group still costs about a fifth of read throughput, so
// taking the fork off the loop stays visible.
constexpr std::size_t kHotBursts = 128;
constexpr std::size_t kGroupBursts = 4;
constexpr std::size_t kGroupDense1024 = 1;
constexpr std::size_t kGroupJson64 = 8;
constexpr std::size_t kGroupRelease = 4;
constexpr std::size_t kGroupSparse64 = 16;
constexpr std::size_t kGroupDense64 = kGroupBursts * kBurst -
                                      kGroupDense1024 - kGroupJson64 -
                                      kGroupRelease - kGroupSparse64;
// Queries per batch.
constexpr std::size_t kSmallBatch = 64;
constexpr std::size_t kLargeBatch = 1024;
// Traced GetRelease replays per run.
constexpr std::size_t kReplaySeeds = 8;
// The cold request list holds this many requests (cold_publish) or herds
// (herd) per second of the run. A noise_first request takes about 100 ms
// and a herd about 70 ms on a 4-core KVM guest, so these leave 40x and
// 14x headroom for speedups; a run that still uses the list up fails. They
// also bound the run's memory: each sealed fresh release stays in the
// server's cache, and the peak resident set grew by 4-12 KB per fresh key
// over 20 s runs at n=1024.
constexpr double kMaxColdPerSecond = 400.0;
constexpr double kMaxHerdsPerSecond = 200.0;
// Distinct query batches the cold requests draw from.
constexpr std::size_t kColdBatches = 256;

// Seed offsets inside one run's seed block: hot set, replays, fresh keys.
constexpr std::uint64_t kHotSeedOffset = 0;
constexpr std::uint64_t kReplaySeedOffset = 64;
constexpr std::uint64_t kFreshSeedOffset = 128;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t Below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.NextUint64() % n);
}

dphist::sparse::SparseHistogram MakeSparseTruth() {
  Rng rng(kDatasetSeed);
  std::vector<std::uint64_t> keys;
  keys.reserve(kSparseKeys);
  while (keys.size() < kSparseKeys) {
    keys.push_back(rng.NextUint64() % kSparseDomain);
    if (keys.size() == kSparseKeys) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  std::vector<dphist::sparse::SparseEntry> entries;
  entries.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    // Heavy-tailed counts between 50 and ~1000: well above the threshold.
    const double u = static_cast<double>(rng.NextUint64() >> 11) * 0x1.0p-53;
    entries.push_back({key, std::floor(50.0 * std::exp(3.0 * u))});
  }
  return dphist::sparse::SparseHistogram::Create(kSparseDomain,
                                                 std::move(entries))
      .value();
}

std::vector<dphist::RangeQuery> Ranges(std::uint64_t domain,
                                       std::size_t count, Rng& rng) {
  return dphist::RandomRangeWorkload(static_cast<std::size_t>(domain), count,
                                     rng)
      .value();
}

Request Serialize(RequestClass cls, const HotKey& key,
                  std::vector<dphist::RangeQuery> queries, bool release) {
  Request request;
  request.cls = cls;
  request.binary = cls != RequestClass::kJson64;
  request.release = release;
  request.query.tenant = key.ns.tenant;
  request.query.dataset = key.ns.dataset;
  request.query.request = key.request;
  request.query.queries = std::move(queries);
  dphist::net::HttpMessage message;
  message.method = "POST";
  message.target = release ? "/v1/release" : "/v1/query";
  message.headers["content-type"] = request.binary
                                        ? dphist::net::kContentTypeBinary
                                        : dphist::net::kContentTypeJson;
  message.body = request.binary
                     ? dphist::net::EncodeQueryRequest(request.query)
                     : dphist::net::EncodeQueryRequestJson(request.query);
  request.bytes = dphist::net::SerializeRequest(message);
  return request;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHotRead:
      return "hot_read";
    case Workload::kColdPublish:
      return "cold_publish";
    case Workload::kHerd:
      return "herd";
  }
  return "?";
}

dphist::serve::TenantKey DenseNamespace() { return {"bench", "nettrace"}; }
dphist::serve::TenantKey SparseNamespace() { return {"bench", "sparse"}; }

Inputs MakeInputs(Workload workload, std::uint64_t seed, double seconds) {
  Inputs inputs;
  inputs.dense_truth =
      dphist::MakeNetTrace(kDenseDomain, kDatasetSeed).histogram;
  inputs.sparse_truth = MakeSparseTruth();

  // Each seed owns a block of 2^20 consecutive release seeds, so hot,
  // replay and fresh keys never collide within a run.
  const std::uint64_t block = (SplitMix64(seed) >> 24) << 20;
  Rng rng(SplitMix64(seed ^ 0x5eedULL));

  // Hot set, interleaved so pool tasks balance during set-up.
  std::vector<HotKey> dense_keys;
  for (std::size_t i = 0; i < kHotPerPublisher; ++i) {
    for (const char* publisher : {"noise_first", "structure_first"}) {
      HotKey key;
      key.ns = DenseNamespace();
      key.request.publisher = publisher;
      key.request.epsilon = kDenseEpsilon;
      key.request.seed = block + kHotSeedOffset + dense_keys.size();
      dense_keys.push_back(key);
    }
  }
  std::vector<HotKey> sparse_keys;
  for (std::size_t i = 0; i < kHotSparse; ++i) {
    HotKey key;
    key.ns = SparseNamespace();
    key.request.publisher = "sparse_pure";
    key.request.epsilon = kSparseEpsilon;
    key.request.seed = block + kHotSeedOffset + dense_keys.size() + i;
    sparse_keys.push_back(key);
  }
  inputs.hot_keys = dense_keys;
  inputs.hot_keys.insert(inputs.hot_keys.end(), sparse_keys.begin(),
                         sparse_keys.end());

  // hot_read: every group of kGroupBursts bursts has the same composition
  // in a seeded order.
  std::vector<RequestClass> composition;
  composition.insert(composition.end(), kGroupDense64, RequestClass::kDense64);
  composition.insert(composition.end(), kGroupSparse64,
                     RequestClass::kSparse64);
  composition.insert(composition.end(), kGroupJson64, RequestClass::kJson64);
  composition.insert(composition.end(), kGroupDense1024,
                     RequestClass::kDense1024);
  composition.insert(composition.end(), kGroupRelease, RequestClass::kRelease);
  for (std::size_t g = 0; g < kHotBursts / kGroupBursts; ++g) {
    std::vector<RequestClass> order = composition;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[Below(rng, i)]);
    }
    for (const RequestClass cls : order) {
      const HotKey& dense = dense_keys[Below(rng, dense_keys.size())];
      switch (cls) {
        case RequestClass::kDense64:
        case RequestClass::kJson64:
          inputs.hot_stream.push_back(Serialize(
              cls, dense, Ranges(kDenseDomain, kSmallBatch, rng), false));
          break;
        case RequestClass::kDense1024:
          inputs.hot_stream.push_back(Serialize(
              cls, dense, Ranges(kDenseDomain, kLargeBatch, rng), false));
          break;
        case RequestClass::kSparse64:
          inputs.hot_stream.push_back(
              Serialize(cls, sparse_keys[Below(rng, sparse_keys.size())],
                        Ranges(kSparseDomain, kSmallBatch, rng), false));
          break;
        case RequestClass::kRelease:
          inputs.hot_stream.push_back(Serialize(
              cls, inputs.hot_keys[Below(rng, inputs.hot_keys.size())], {},
              true));
          break;
      }
    }
  }

  for (std::size_t i = 0; i < kReplaySeeds; ++i) {
    inputs.replay_seeds.push_back(block + kReplaySeedOffset + i);
  }

  // Cold requests: fresh keys nobody published yet, sized for `seconds`
  // of timed traffic (a traced run splits them over two phases) plus
  // warm-up.
  if (workload == Workload::kHotRead) {
    return inputs;
  }
  for (std::size_t i = 0; i < kColdBatches; ++i) {
    inputs.cold_batches.push_back(Ranges(kDenseDomain, kSmallBatch, rng));
  }
  std::uint64_t next_fresh = block + kFreshSeedOffset;
  auto cold = [&](std::uint64_t seed) {
    inputs.cold.push_back(
        {seed, static_cast<std::uint32_t>(Below(rng, kColdBatches))});
  };
  if (workload == Workload::kColdPublish) {
    inputs.cold_publisher = "noise_first";
    const std::size_t count =
        static_cast<std::size_t>(std::ceil(seconds * kMaxColdPerSecond)) +
        kColdWarmup;
    for (std::size_t i = 0; i < count; ++i) {
      cold(next_fresh++);
    }
  } else {
    inputs.cold_publisher = "structure_first";
    const std::size_t herds =
        static_cast<std::size_t>(std::ceil(seconds * kMaxHerdsPerSecond)) +
        kColdWarmup;
    for (std::size_t h = 0; h < herds; ++h) {
      const std::uint64_t a = next_fresh++;
      const std::uint64_t b = next_fresh++;
      // Connection order a, b, a, b: both keys get a first request at once.
      for (const std::uint64_t seed : {a, b, a, b}) {
        cold(seed);
      }
    }
  }
  return inputs;
}

Request MakeColdRequest(const Inputs& inputs, std::size_t i) {
  HotKey key;
  key.ns = DenseNamespace();
  key.request.publisher = inputs.cold_publisher;
  key.request.epsilon = kDenseEpsilon;
  key.request.seed = inputs.cold[i].seed;
  return Serialize(RequestClass::kDense64, key,
                   inputs.cold_batches[inputs.cold[i].batch], false);
}

std::string EncodeReleaseFrame(const dphist::serve::ReleaseKey& key,
                               const dphist::Histogram& histogram,
                               bool binary) {
  dphist::net::WireHistogram dense;
  dense.key = key;
  dense.counts = histogram.counts();
  return binary ? dphist::net::EncodeHistogram(dense)
                : dphist::net::EncodeHistogramJson(dense);
}

std::string EncodeReleaseFrame(const dphist::serve::ReleaseKey& key,
                               const dphist::sparse::SparseHistogram& histogram,
                               bool binary) {
  dphist::net::WireSparseHistogram sparse;
  sparse.key = key;
  sparse.domain_size = histogram.domain_size();
  for (const auto& entry : histogram.entries()) {
    sparse.keys.push_back(entry.key);
    sparse.counts.push_back(entry.count);
  }
  return binary ? dphist::net::EncodeSparseHistogram(sparse)
                : dphist::net::EncodeSparseHistogramJson(sparse);
}

std::string EncodeReleaseFrame(const dphist::serve::SealedRelease& release,
                               bool binary) {
  return release.is_sparse()
             ? EncodeReleaseFrame(release.key(), release.sparse_histogram(),
                                  binary)
             : EncodeReleaseFrame(release.key(), release.histogram(), binary);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunOnPool(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    dphist::ThreadPool::Global().Submit([&, i] {
      body(i);
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) {
        done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace perfbench
