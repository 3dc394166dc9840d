#ifndef DPHIST_SPARSE_SPARSE_PUBLISHER_H_
#define DPHIST_SPARSE_SPARSE_PUBLISHER_H_

/// \file
/// \brief Interface for differentially private sparse histogram publishers.
///
/// Mirrors `HistogramPublisher` for the sparse representation. The dense
/// interface cannot carry a domain size d independent of the materialized
/// bin count, so sparse mechanisms get their own base class; the registry
/// exposes both families side by side.

#include <cstdint>
#include <string>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/random/rng.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace sparse {

/// Per-publication observability a mechanism reports back to its caller.
/// The registry's instrumentation decorator turns these into obs counters;
/// tests read them directly.
struct SparsePublishStats {
  /// Keys present in the release.
  std::uint64_t released_keys = 0;
  /// Observed keys whose noisy count fell below the threshold.
  std::uint64_t suppressed_keys = 0;
  /// Released keys whose true count was zero (SparsePure only; the
  /// unknown-domain mechanism never releases an unobserved key).
  std::uint64_t spurious_keys = 0;
  /// The suppression threshold tau the mechanism used.
  double threshold = 0.0;
  /// Independent gap-sampling blocks the spurious-key draw was split into
  /// (SparsePure only; 0 when no spurious draw ran). The block partition
  /// depends only on the domain and the threshold — never on the thread
  /// count — so releases are thread-invariant.
  std::uint64_t gap_sample_blocks = 0;
};

class SparseHistogramPublisher {
 public:
  virtual ~SparseHistogramPublisher() = default;

  virtual std::string name() const = 0;

  /// Publishes a differentially private release of `truth` under privacy
  /// parameter `epsilon`, reporting per-run observability into `*stats`
  /// when `stats` is non-null. The release is itself a SparseHistogram over
  /// the same domain; released counts are noisy and may be fractional.
  virtual Result<SparseHistogram> Publish(const SparseHistogram& truth,
                                          double epsilon, Rng& rng,
                                          SparsePublishStats* stats) const = 0;

  /// Convenience overload without stats.
  Result<SparseHistogram> Publish(const SparseHistogram& truth, double epsilon,
                                  Rng& rng) const {
    return Publish(truth, epsilon, rng, nullptr);
  }

 protected:
  /// Shared argument validation: rejects a zero-sized domain, an epsilon
  /// that is not finite and > 0, and a NaN or infinite count with a typed
  /// `kInvalidArgument`.
  static Status ValidatePublishArgs(const SparseHistogram& truth,
                                    double epsilon);
};

}  // namespace sparse
}  // namespace dphist

#endif  // DPHIST_SPARSE_SPARSE_PUBLISHER_H_
