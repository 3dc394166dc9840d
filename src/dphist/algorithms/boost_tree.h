#ifndef DPHIST_ALGORITHMS_BOOST_TREE_H_
#define DPHIST_ALGORITHMS_BOOST_TREE_H_

#include <cstddef>
#include <string>

#include "dphist/algorithms/publisher.h"

namespace dphist {

/// \brief Boost — the hierarchical baseline of Hay, Rastogi, Miklau & Suciu
/// (VLDB'10), compared against in the paper's evaluation.
///
/// Pipeline:
///   1. Pad the domain with zero bins to a power of the fanout f, and build
///      the complete f-ary interval tree over the unit bins.
///   2. Add Lap(L/epsilon) noise to every node's interval sum, where L is
///      the number of tree levels: one record changes exactly one node per
///      level, so the full tree of sums has L1 sensitivity L.
///   3. Run constrained inference (two-pass least squares) to make the tree
///      consistent; publish the inferred leaves, truncated back to the
///      original domain.
///
/// The consistency step boosts accuracy for range queries: any range is
/// covered by O(f log_f n) nodes, so range-query noise grows
/// polylogarithmically instead of linearly in the range length.
class BoostTree final : public HistogramPublisher {
 public:
  struct Options {
    /// Tree fanout; Hay et al. found small fanouts near 2-16 effective.
    std::size_t fanout = 2;
    /// Clamp published counts at zero.
    bool clamp_nonnegative = false;
  };

  BoostTree();
  explicit BoostTree(Options options);

  std::string name() const override { return "boost"; }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dphist

#endif  // DPHIST_ALGORITHMS_BOOST_TREE_H_
