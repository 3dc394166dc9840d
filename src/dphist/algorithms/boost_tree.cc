#include "dphist/algorithms/boost_tree.h"

#include <algorithm>

#include "dphist/privacy/laplace_mechanism.h"
#include "dphist/transform/interval_tree.h"

namespace dphist {

BoostTree::BoostTree() : options_(Options()) {}

BoostTree::BoostTree(Options options) : options_(options) {}

Result<Histogram> BoostTree::PublishPrepared(const Histogram& histogram,
                                             const PreparedTruth* /*prepared*/,
                                             double epsilon, Rng& rng) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (options_.fanout < 2) {
    return Status::InvalidArgument("BoostTree: fanout must be >= 2");
  }
  const std::size_t n = histogram.size();

  // Pad to the next power of the fanout.
  std::size_t padded = 1;
  while (padded < n) {
    padded *= options_.fanout;
  }
  std::vector<double> leaves = histogram.counts();
  leaves.resize(padded, 0.0);

  auto tree = IntervalTree::Create(padded, options_.fanout);
  if (!tree.ok()) {
    return tree.status();
  }
  auto sums = tree.value().NodeSums(leaves);
  if (!sums.ok()) {
    return sums.status();
  }

  // One record touches one node per level: sensitivity = number of levels.
  const double levels = static_cast<double>(tree.value().num_levels());
  auto mechanism = LaplaceMechanism::Create(epsilon, levels);
  if (!mechanism.ok()) {
    return mechanism.status();
  }
  const std::vector<double> noisy =
      mechanism.value().PerturbVector(sums.value(), rng);

  auto inferred = tree.value().ConstrainedInference(noisy);
  if (!inferred.ok()) {
    return inferred.status();
  }

  std::vector<double> out(inferred.value().begin(),
                          inferred.value().begin() + static_cast<long>(n));
  if (options_.clamp_nonnegative) {
    for (double& v : out) {
      v = std::max(v, 0.0);
    }
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
