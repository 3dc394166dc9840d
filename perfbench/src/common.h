// Shared types of the repository benchmark: the generated inputs of one
// run, and small clock/pool helpers used by every part of it.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dphist/hist/histogram.h"
#include "dphist/net/wire_codec.h"
#include "dphist/serve/release_server.h"
#include "dphist/serve/tenant.h"
#include "dphist/sparse/sparse_histogram.h"

namespace perfbench {

enum class Workload { kHotRead, kColdPublish, kHerd };

const char* WorkloadName(Workload workload);

/// Privacy budget of every dense release (hot set and fresh keys).
inline constexpr double kDenseEpsilon = 0.1;
/// Privacy budget of the sparse_pure releases. At eps = 1 the release
/// threshold over a 2^40 domain is about 27, so most stored keys clear it.
inline constexpr double kSparseEpsilon = 1.0;
/// Requests per pipelined hot_read burst on one connection.
inline constexpr std::size_t kBurst = 32;
/// Connections (and requests) per herd: two fresh keys, two requests each.
inline constexpr std::size_t kHerdConnections = 4;
/// Unmeasured cold requests (cold_publish) or herds (herd) sent before the
/// first timed phase.
inline constexpr std::size_t kColdWarmup = 2;
/// Pool width every run pins through DPHIST_THREADS.
inline constexpr std::size_t kPoolWidth = 2;

/// The two namespaces the set-up registers.
dphist::serve::TenantKey DenseNamespace();
dphist::serve::TenantKey SparseNamespace();

/// Traffic classes of the generated requests.
enum class RequestClass {
  kDense64,    ///< binary /v1/query, 64 ranges, dense release
  kDense1024,  ///< binary /v1/query, 1024 ranges (above the fork cut-over)
  kSparse64,   ///< binary /v1/query, 64 ranges, sparse release
  kJson64,     ///< JSON /v1/query, 64 ranges, dense release
  kRelease,    ///< binary /v1/release, the full pre-encoded frame
};

/// One request the load generator sends, serialized before timing.
struct Request {
  RequestClass cls = RequestClass::kDense64;
  dphist::net::WireQueryRequest query;
  bool binary = true;
  bool release = false;
  /// The complete HTTP/1.1 request as it goes on the wire.
  std::string bytes;

  dphist::serve::TenantKey tenant_key() const {
    return {query.tenant, query.dataset};
  }
};

/// One cold request, stored compactly: its fresh release seed and the
/// index of its query batch in `Inputs::cold_batches`. MakeColdRequest
/// serializes it when it is sent, so a long cold list costs 16 bytes a
/// request rather than its wire bytes.
struct ColdRequest {
  std::uint64_t seed = 0;
  std::uint32_t batch = 0;
};

/// A release the set-up seals: the hot set.
struct HotKey {
  dphist::serve::TenantKey ns;
  dphist::serve::ServeRequest request;
};

/// Everything one run sends or publishes, generated from the workload
/// seed before any timing. The server only ever sees these inputs.
struct Inputs {
  dphist::Histogram dense_truth;
  dphist::sparse::SparseHistogram sparse_truth;
  std::vector<HotKey> hot_keys;
  /// hot_read traffic in burst order (kBurst requests per burst), cycled.
  std::vector<Request> hot_stream;
  /// cold_publish: one request per fresh key. herd: kHerdConnections
  /// requests per herd, two per fresh key. Empty on hot_read.
  std::vector<ColdRequest> cold;
  /// The 64-query batches the cold requests draw from.
  std::vector<std::vector<dphist::RangeQuery>> cold_batches;
  /// The publisher every fresh key names.
  std::string cold_publisher;
  /// Fresh seeds for the traced GetRelease replays.
  std::vector<std::uint64_t> replay_seeds;
};

/// Generates the inputs of `workload` from `seed`. The cold request list
/// holds `seconds` of traffic at kMaxColdPerSecond requests or
/// kMaxHerdsPerSecond herds a second, plus warm-up; a run that uses it up
/// before its deadline fails rather than measure less than `seconds`.
Inputs MakeInputs(Workload workload, std::uint64_t seed, double seconds);

/// Cold request `i` of `inputs`, serialized.
Request MakeColdRequest(const Inputs& inputs, std::size_t i);

/// The /v1/release body of a release in one codec, built from its counts
/// the way the server's frame encoder builds it.
std::string EncodeReleaseFrame(const dphist::serve::ReleaseKey& key,
                               const dphist::Histogram& histogram,
                               bool binary);
std::string EncodeReleaseFrame(const dphist::serve::ReleaseKey& key,
                               const dphist::sparse::SparseHistogram& histogram,
                               bool binary);
std::string EncodeReleaseFrame(const dphist::serve::SealedRelease& release,
                               bool binary);

/// The median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Monotonic time in nanoseconds.
std::int64_t NowNs();

/// Process user + system CPU time in microseconds (getrusage).
double CpuMicros();

/// Peak resident set size of the process in MB (getrusage).
double PeakRssMb();

/// Runs body(i) for each i in [0, n) as one task each on the global pool
/// and waits for all of them. Call from a non-worker thread.
void RunOnPool(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
