#ifndef DPHIST_OBS_OBS_H_
#define DPHIST_OBS_OBS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dphist {
namespace obs {

/// \brief Lightweight process-wide observability: named monotonic counters,
/// streaming value distributions, and RAII timer spans, all registered in
/// `Registry::Global()` and exportable as stable JSON lines (see export.h).
///
/// Design constraints (enforced by obs_test and the bench overhead budget):
///  * **Branch-cheap when disabled.** Every recording call first reads one
///    process-global relaxed atomic flag and returns immediately when obs is
///    off, so instrumented hot paths cost a predictable branch. The flag
///    defaults to "on" only when `DPHIST_OBS_OUT` is set; tests flip it with
///    `Registry::set_enabled`.
///  * **Thread-safe, allocation-free recording.** `Counter::Add` is one
///    relaxed atomic add; `Distribution::Record` takes a per-distribution
///    mutex but keeps O(1) state (streaming P-square quantile markers, no
///    sample buffer). Instrumentation sites record at coarse granularity
///    (per publication, per DP solve, per pool batch), never per element.
///  * **Deterministic where the computation is.** Counters that track work
///    done (draws consumed, DP cells filled, publications run) are a pure
///    function of the workload, bit-identical across `DPHIST_THREADS`
///    settings; only `threadpool/*` metrics and wall-time distributions may
///    depend on scheduling (asserted by parallel_experiment_test).

namespace internal {
/// The process-global recording flag, initialized at static-init time to
/// whether `DPHIST_OBS_OUT` is set. Exposed so `Enabled()` inlines into
/// instrumentation sites; flip it through `Registry::set_enabled`.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when recording is enabled (one relaxed atomic load).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// \brief A named monotonic counter. Obtain via `Registry::GetCounter`;
/// references stay valid for the process lifetime.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `delta` when obs is enabled; no-op (one branch) otherwise.
  void Add(std::uint64_t delta) {
    if (!Enabled()) {
      return;
    }
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Add(1).
  void Increment() { Add(1); }

  /// Current value (relaxed read).
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Point-in-time summary of a Distribution. All statistics are 0
/// when `count == 0`. Quantiles are P-square streaming estimates (exact for
/// the first five samples, within a few percent beyond that).
struct DistributionSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// \brief Streaming P-square estimator for a single quantile (Jain &
/// Chlamtac 1985): five markers updated in O(1) per observation, exact
/// until five samples have arrived.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile) : quantile_(quantile) {}

  void Add(double x);
  /// Current estimate; 0 before the first sample.
  double Estimate() const;

 private:
  double quantile_;
  std::size_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {0, 0, 0, 0, 0};
  double increments_[5] = {0, 0, 0, 0, 0};
};

/// \brief A named value distribution with O(1) streaming state: count, min,
/// max, mean, and P-square p50/p95. Obtain via `Registry::GetDistribution`.
class Distribution {
 public:
  Distribution(const Distribution&) = delete;
  Distribution& operator=(const Distribution&) = delete;

  /// Records one observation when obs is enabled; no-op otherwise.
  void Record(double value);

  DistributionSnapshot Snapshot() const;

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Distribution(std::string name);

  void ResetForTest();

  std::string name_;
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  P2Quantile p50_;
  P2Quantile p95_;
};

/// \brief Stable, name-sorted snapshot of every registered counter and
/// distribution. Two snapshots taken with no interleaved recording are
/// identical (obs_test's stability contract).
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<DistributionSnapshot> distributions;
};

/// \brief Process-global registry of counters and distributions. Lookup is
/// mutex-protected; returned references are stable for the process
/// lifetime (node-based storage, never erased).
class Registry {
 public:
  /// The process-wide registry (leaked singleton, like ThreadPool::Global).
  /// On first use, enables recording iff `DPHIST_OBS_OUT` is set.
  static Registry& Global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter& GetCounter(std::string_view name);

  /// Returns the distribution registered under `name`, creating it on
  /// first use.
  Distribution& GetDistribution(std::string_view name);

  /// Flips the process-global recording flag (tests; benches inherit the
  /// DPHIST_OBS_OUT default).
  void set_enabled(bool enabled);

  /// Name-sorted snapshot of all counters and distributions.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every counter and clears every distribution. Call only while
  /// no other thread is recording (tests between measured runs).
  void Reset();

 private:
  Registry();

  mutable std::mutex mutex_;
  // Pointer values: Counter/Distribution are pinned (atomic / mutex
  // members), and handed-out references must survive future insertions.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Distribution>, std::less<>>
      distributions_;
};

/// \brief RAII wall-time span. On destruction, records the elapsed
/// milliseconds into the distribution named by the span's slash-joined
/// path: a ScopedTimer constructed while another is live on the same
/// thread becomes its child, so `ScopedTimer("solve")` inside
/// `ScopedTimer("publish")` records into `"publish/solve"`. Inactive (one
/// branch, no clock read) when obs is disabled at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Milliseconds since construction; 0 when the timer is inactive.
  double elapsed_ms() const;

  /// The slash-joined path this span records under (empty when inactive).
  const std::string& path() const { return path_; }

 private:
  bool active_ = false;
  std::string path_;
  ScopedTimer* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// \brief RAII wall-time span recorded into a distribution the caller
/// resolved once, for a span on a per-request path: no path join and no
/// registry lookup, where `ScopedTimer` does both on every span. It neither
/// nests under nor parents `ScopedTimer`s. Inactive (one branch, no clock
/// read) when obs is disabled at construction.
class DistributionTimer {
 public:
  explicit DistributionTimer(Distribution& distribution)
      : distribution_(Enabled() ? &distribution : nullptr) {
    if (distribution_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~DistributionTimer() {
    if (distribution_ != nullptr) {
      distribution_->Record(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start_)
                                .count());
    }
  }

  DistributionTimer(const DistributionTimer&) = delete;
  DistributionTimer& operator=(const DistributionTimer&) = delete;

 private:
  Distribution* distribution_;  // null when inactive
  std::chrono::steady_clock::time_point start_;
};

/// \brief Adds mechanism-level noise draws into per-publisher counters for
/// the duration of a scope, on top of the global `rng/laplace_draws` /
/// `rng/geometric_draws` counters. Installed by the registry's publisher
/// decorator around each `Publish` call; thread-local, so concurrent
/// repetitions attribute their own draws correctly (draws happen on the
/// thread running the publication — samplers are never parallelized).
class DrawAttributionScope {
 public:
  DrawAttributionScope(Counter* laplace, Counter* geometric);
  ~DrawAttributionScope();

  DrawAttributionScope(const DrawAttributionScope&) = delete;
  DrawAttributionScope& operator=(const DrawAttributionScope&) = delete;

 private:
  Counter* previous_laplace_;
  Counter* previous_geometric_;
};

/// Records `n` Laplace draws: bumps the global counter and, when a
/// DrawAttributionScope is live on this thread, its per-publisher counter.
/// Called by the samplers in random/distributions.cc.
void CountLaplaceDraws(std::uint64_t n);

/// Same for two-sided-geometric draws.
void CountGeometricDraws(std::uint64_t n);

}  // namespace obs
}  // namespace dphist

#endif  // DPHIST_OBS_OBS_H_
