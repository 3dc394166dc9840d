#ifndef DPHIST_ALGORITHMS_PUBLISHER_H_
#define DPHIST_ALGORITHMS_PUBLISHER_H_

#include <memory>
#include <string>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/hist/histogram.h"
#include "dphist/privacy/budget.h"
#include "dphist/random/rng.h"

namespace dphist {

/// \brief What a publisher's data-only stage computed from the true counts
/// and its own options: immutable once built, so any number of releases of
/// the same truth, at any epsilon and seed, may share one instance across
/// threads. Each publisher with a data-only stage defines its own subclass
/// (StructureFirst: its scoring IntervalCostTable).
class PreparedTruth {
 public:
  virtual ~PreparedTruth() = default;
};

/// \brief Common interface of every differentially private histogram
/// publication algorithm in this library.
///
/// A publisher consumes the *true* unit-bin counts and a privacy budget
/// epsilon, and produces noisy unit-bin counts of the same length whose
/// release satisfies epsilon-differential privacy under the unbounded
/// neighbor relation (add/remove one record changes one count by 1).
///
/// A publication runs in two stages. `Prepare` is the data-only stage:
/// whatever depends on the true counts and the options but on neither
/// epsilon nor the random stream. It spends no budget and draws nothing.
/// `PublishPrepared` is the randomized stage. `Publish` is exactly the two
/// in sequence, so a caller that keeps one `Prepare` result per truth (the
/// serve layer does) releases the same bits as one that publishes from
/// scratch every time.
///
/// Implementations: IdentityLaplace (Dwork), NoiseFirst, StructureFirst
/// (the paper's contributions), BoostTree (Hay et al.) and Privelet
/// (Xiao et al.) as the paper's baselines, plus the extensions listed in
/// PublisherRegistry. Only StructureFirst has a data-only stage today.
///
/// Thread safety: publishers are immutable after construction and both
/// stages are const, so one instance may be shared across threads as long
/// as each call uses its own Rng (see thread_safety_test.cc).
class HistogramPublisher {
 public:
  virtual ~HistogramPublisher() = default;

  /// Short stable identifier ("dwork", "noise_first", ...).
  virtual std::string name() const = 0;

  /// The data-only stage over `truth`. The default has nothing to reuse
  /// and returns null. Fails with InvalidArgument where the stage cannot
  /// be built (for example an empty histogram or a non-finite count).
  virtual Result<std::shared_ptr<const PreparedTruth>> Prepare(
      const Histogram& /*truth*/) const {
    return std::shared_ptr<const PreparedTruth>();
  }

  /// The randomized stage: publishes `truth` reusing `prepared`, which must
  /// come from this publisher's (or an identically configured one's)
  /// `Prepare(truth)`. Fails with InvalidArgument for an empty histogram, a
  /// NaN or infinite count, an epsilon that is not finite and > 0, or a
  /// `prepared` object built
  /// from other counts or other options, and propagates internal errors.
  virtual Result<Histogram> PublishPrepared(const Histogram& truth,
                                            const PreparedTruth* prepared,
                                            double epsilon,
                                            Rng& rng) const = 0;

  /// Publishes a noisy histogram: `Prepare(histogram)`, then
  /// `PublishPrepared` over its result. Fails as those two do; an epsilon
  /// that is not finite and > 0 fails before `Prepare` does any work.
  Result<Histogram> Publish(const Histogram& histogram, double epsilon,
                            Rng& rng) const {
    DPHIST_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
    DPHIST_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedTruth> prepared,
                            Prepare(histogram));
    return PublishPrepared(histogram, prepared.get(), epsilon, rng);
  }

 protected:
  /// Shared argument validation for implementations: the budget, which
  /// must be one the accountant could charge (finite and > 0). An infinite
  /// epsilon would scale every noise draw to zero and release the truth.
  static Status ValidateEpsilon(double epsilon) {
    if (!BudgetAccountant::ChargeableEpsilon(epsilon)) {
      return Status::InvalidArgument("Publish: epsilon must be finite and > 0");
    }
    return Status::Ok();
  }

  /// Shared argument validation for implementations: the true counts, as
  /// both stages need them (non-empty, every count finite).
  static Status ValidateTruth(const Histogram& histogram) {
    if (histogram.empty()) {
      return Status::InvalidArgument("Publish: histogram must be non-empty");
    }
    return CheckFiniteCounts(histogram.counts());
  }

  /// Shared argument validation for implementations: `ValidateEpsilon`,
  /// then `ValidateTruth`.
  static Status ValidatePublishArgs(const Histogram& histogram,
                                    double epsilon) {
    DPHIST_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
    return ValidateTruth(histogram);
  }
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_PUBLISHER_H_
