#ifndef DPHIST_ALGORITHMS_REGISTRY_H_
#define DPHIST_ALGORITHMS_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/algorithms/publisher.h"
#include "dphist/common/result.h"
#include "dphist/sparse/sparse_publisher.h"

namespace dphist {

/// \brief Factory for the built-in publishers, so examples and benches can
/// enumerate the algorithm suites uniformly.
///
/// Paper suite (the algorithms in the ICDE'12 evaluation):
///   "dwork", "boost", "privelet", "noise_first", "structure_first".
/// Extensions (related algorithms added by this library):
///   "geometric", "efpa", "mwem", "p_hp", "ahp", "gs".
/// Each factory call returns a fresh instance with the library defaults
/// (customize by constructing the concrete class directly).
///
/// Every publisher the factory returns is wrapped in an observability
/// decorator (see `Instrument`) that records, per publisher name and only
/// while obs is enabled: publication count, per-run wall time, epsilon per
/// run, and Laplace/geometric draws consumed. It measures the randomized
/// stage (`PublishPrepared`, which `Publish` ends in) and forwards the
/// data-only `Prepare` unmeasured. The wrapper preserves `name()` and the
/// thread-safety contract, and forwards everything else untouched —
/// parallel_experiment_test proves the published histograms are unchanged
/// bit-for-bit.
class PublisherRegistry {
 public:
  /// The paper's algorithm names, in presentation order.
  static std::vector<std::string> PaperNames();

  /// All built-in names: the paper suite followed by the extensions.
  static std::vector<std::string> BuiltinNames();

  /// Creates a publisher by name; NotFound for unknown names.
  static Result<std::unique_ptr<HistogramPublisher>> Make(
      std::string_view name);

  /// Creates the paper suite, in PaperNames() order.
  static std::vector<std::unique_ptr<HistogramPublisher>> MakePaperSuite();

  /// Creates every built-in publisher, in BuiltinNames() order.
  static std::vector<std::unique_ptr<HistogramPublisher>> MakeAll();

  /// Wraps `publisher` in the timing/counting decorator the factory applies
  /// to every built-in. Exposed so directly constructed publishers (custom
  /// Options) can opt into the same per-publisher metrics:
  ///   `publisher/<name>/runs` (counter), `publisher/<name>` (wall-ms
  ///   distribution), `publisher/<name>/epsilon` (distribution),
  ///   `publisher/<name>/laplace_draws` / `geometric_draws` (counters).
  static std::unique_ptr<HistogramPublisher> Instrument(
      std::unique_ptr<HistogramPublisher> publisher);

  /// Sparse publisher names (`src/dphist/sparse/`), registered alongside
  /// the dense suite: "sparse_pure" (Kerschbaum-Lee-Wu pure-epsilon) and
  /// "unknown_domain" (Rogers stability threshold, (eps, delta)-DP).
  static std::vector<std::string> SparseNames();

  /// True iff `name` names a sparse publisher (see SparseNames()).
  static bool IsSparse(std::string_view name);

  /// Creates a sparse publisher by name with library-default Options,
  /// wrapped in the sparse observability decorator; NotFound for unknown
  /// names (including dense ones — the two families have distinct
  /// interfaces).
  static Result<std::unique_ptr<sparse::SparseHistogramPublisher>> MakeSparse(
      std::string_view name);

  /// Sparse counterpart of `Instrument`: wraps `publisher` so each run
  /// records `publisher/<name>/runs`, `/released_keys`, `/suppressed_keys`,
  /// `/spurious_keys` (counters), `publisher/<name>` (wall-ms
  /// distribution), `/epsilon` and `/threshold` (distributions).
  static std::unique_ptr<sparse::SparseHistogramPublisher> InstrumentSparse(
      std::unique_ptr<sparse::SparseHistogramPublisher> publisher);

  /// Resolves a publisher name from the `DPHIST_PUBLISHER` environment
  /// variable, falling back to `fallback` when unset or empty. The value
  /// is returned verbatim — a typo surfaces later as the factory's
  /// NotFound rather than being silently ignored.
  static std::string NameFromEnv(std::string_view fallback);
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_REGISTRY_H_
