#ifndef DPHIST_ALGORITHMS_PUBLISHER_H_
#define DPHIST_ALGORITHMS_PUBLISHER_H_

#include <string>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/hist/histogram.h"
#include "dphist/random/rng.h"

namespace dphist {

/// \brief Common interface of every differentially private histogram
/// publication algorithm in this library.
///
/// A publisher consumes the *true* unit-bin counts and a privacy budget
/// epsilon, and produces noisy unit-bin counts of the same length whose
/// release satisfies epsilon-differential privacy under the unbounded
/// neighbor relation (add/remove one record changes one count by 1).
///
/// Implementations: IdentityLaplace (Dwork), NoiseFirst, StructureFirst
/// (the paper's contributions), BoostTree (Hay et al.) and Privelet
/// (Xiao et al.) as the paper's baselines, plus the extensions listed in
/// PublisherRegistry.
///
/// Thread safety: publishers are immutable after construction and
/// Publish() is const, so one instance may be shared across threads as
/// long as each call uses its own Rng (see thread_safety_test.cc).
class HistogramPublisher {
 public:
  virtual ~HistogramPublisher() = default;

  /// Short stable identifier ("dwork", "noise_first", ...).
  virtual std::string name() const = 0;

  /// Publishes a noisy histogram. Fails with InvalidArgument for an empty
  /// histogram, a NaN or infinite count, or epsilon <= 0, and propagates
  /// internal errors.
  virtual Result<Histogram> Publish(const Histogram& histogram,
                                    double epsilon, Rng& rng) const = 0;

 protected:
  /// Shared argument validation for implementations.
  static Status ValidatePublishArgs(const Histogram& histogram,
                                    double epsilon) {
    if (histogram.empty()) {
      return Status::InvalidArgument("Publish: histogram must be non-empty");
    }
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("Publish: epsilon must be > 0");
    }
    return CheckFiniteCounts(histogram.counts());
  }
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_PUBLISHER_H_
