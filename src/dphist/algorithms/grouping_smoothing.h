#ifndef DPHIST_ALGORITHMS_GROUPING_SMOOTHING_H_
#define DPHIST_ALGORITHMS_GROUPING_SMOOTHING_H_

#include <cstddef>
#include <string>

#include "dphist/algorithms/publisher.h"

namespace dphist {

/// \brief GS — Grouping & Smoothing (Kellaris & Papadopoulos, VLDB'13), the
/// simplest structural baseline: a *data-independent* equi-width merge
/// (library extension).
///
/// Partition the domain into consecutive groups of `group_size` bins, add
/// Lap(1/epsilon) to each group's sum (groups are disjoint -> parallel
/// composition, so the full budget goes to every group), and publish each
/// group's mean. Because the structure is fixed a priori, no budget is
/// spent learning it — GS isolates exactly how much of NoiseFirst's and
/// StructureFirst's gain comes from *data-dependent* structure versus mere
/// smoothing: per-unit-bin noise variance drops to 2/(w^2 eps^2), but the
/// approximation error is whatever the fixed grid happens to cut through.
class GroupingSmoothing final : public HistogramPublisher {
 public:
  struct Options {
    /// Consecutive bins per group (>= 1); the last group absorbs the
    /// remainder. 1 reduces GS to the Dwork baseline.
    std::size_t group_size = 8;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
  };

  GroupingSmoothing();
  explicit GroupingSmoothing(Options options);

  std::string name() const override { return "gs"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_GROUPING_SMOOTHING_H_
