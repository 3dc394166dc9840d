#include "dphist/algorithms/structure_first.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "dphist/algorithms/noise_first.h"
#include "dphist/common/math_util.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/obs/obs.h"
#include "dphist/privacy/exponential_mechanism.h"
#include "dphist/privacy/laplace_mechanism.h"

namespace dphist {

namespace {

// Samples the k-1 cuts back-to-front from the DP tables (see header).
// Returns candidate-position indices in increasing order.
Result<std::vector<std::size_t>> SampleCutIndices(
    const VOptSolver& solver, const IntervalCostTable& costs, std::size_t k,
    double epsilon_per_draw, double utility_sensitivity, Rng& rng) {
  auto em = ExponentialMechanism::Create(epsilon_per_draw,
                                         utility_sensitivity);
  if (!em.ok()) {
    return em.status();
  }
  std::vector<std::size_t> cut_indices;
  cut_indices.reserve(k - 1);
  std::size_t end = costs.num_candidates();
  for (std::size_t t = k - 1; t >= 1; --t) {
    // Candidate cut j in [t, end-1]: prefix [0, j) must fit t buckets.
    std::vector<double> utilities;
    utilities.reserve(end - t);
    for (std::size_t j = t; j < end; ++j) {
      utilities.push_back(
          -(solver.PrefixCost(t, j) + costs.CostBetween(j, end)));
    }
    auto pick = em.value().Select(utilities, rng);
    if (!pick.ok()) {
      return pick.status();
    }
    const std::size_t j = t + pick.value();
    cut_indices.push_back(j);
    end = j;
  }
  std::reverse(cut_indices.begin(), cut_indices.end());
  return cut_indices;
}

}  // namespace

StructureFirst::StructureFirst() : options_(Options()) {}

StructureFirst::StructureFirst(Options options) : options_(options) {}

Status StructureFirst::ValidateOptions() const {
  if (!(options_.structure_budget_ratio > 0.0) ||
      !(options_.structure_budget_ratio < 1.0)) {
    return Status::InvalidArgument(
        "StructureFirst: structure_budget_ratio must lie in (0, 1)");
  }
  if (options_.num_buckets == 0 && (!(options_.k_selection_ratio > 0.0) ||
                                    !(options_.k_selection_ratio < 1.0))) {
    return Status::InvalidArgument(
        "StructureFirst: k_selection_ratio must lie in (0, 1)");
  }
  if (options_.cost_kind == CostKind::kSquared &&
      !(options_.count_cap > 0.0)) {
    return Status::InvalidArgument(
        "StructureFirst: count_cap must be > 0 for the squared cost");
  }
  return Status::Ok();
}

std::size_t StructureFirst::GridStep(std::size_t n) const {
  return options_.grid_step == 0 ? NoiseFirst::AutoGridStep(n)
                                 : options_.grid_step;
}

Result<std::shared_ptr<const PreparedTruth>> StructureFirst::Prepare(
    const Histogram& truth) const {
  DPHIST_RETURN_IF_ERROR(ValidateTruth(truth));
  DPHIST_RETURN_IF_ERROR(ValidateOptions());
  // Scoring copy of the counts (clamped for the squared cost so the
  // exponential-mechanism sensitivity is a data-independent constant).
  std::vector<double> scoring = truth.counts();
  if (options_.cost_kind == CostKind::kSquared) {
    for (double& v : scoring) {
      v = Clamp(v, 0.0, options_.count_cap);
    }
  }
  IntervalCostTable::Options cost_options;
  cost_options.kind = options_.cost_kind;
  cost_options.grid_step = GridStep(truth.size());
  DPHIST_ASSIGN_OR_RETURN(IntervalCostTable costs,
                          IntervalCostTable::Create(scoring, cost_options));
  return std::shared_ptr<const PreparedTruth>(new Prepared(
      std::move(costs), options_.count_cap, FingerprintHistogram(truth)));
}

Result<Histogram> StructureFirst::PublishPrepared(
    const Histogram& histogram, const PreparedTruth* prepared, double epsilon,
    Rng& rng) const {
  return PublishWithDetails(histogram, prepared, epsilon, rng, nullptr);
}

Result<Histogram> StructureFirst::PublishWithDetails(
    const Histogram& histogram, double epsilon, Rng& rng,
    Details* details) const {
  // A bad epsilon fails before the table build, as in Publish.
  DPHIST_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  DPHIST_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedTruth> prepared,
                          Prepare(histogram));
  return PublishWithDetails(histogram, prepared.get(), epsilon, rng, details);
}

Result<Histogram> StructureFirst::PublishWithDetails(
    const Histogram& histogram, const PreparedTruth* prepared, double epsilon,
    Rng& rng, Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  DPHIST_RETURN_IF_ERROR(ValidateOptions());
  const std::size_t n = histogram.size();
  const auto* own = dynamic_cast<const Prepared*>(prepared);
  if (own == nullptr) {
    return Status::InvalidArgument(
        "StructureFirst: needs the Prepared object its own Prepare builds");
  }
  const IntervalCostTable& costs = own->costs();
  if (costs.domain_size() != n || costs.kind() != options_.cost_kind ||
      costs.grid_step() != GridStep(n) ||
      (options_.cost_kind == CostKind::kSquared &&
       own->count_cap() != options_.count_cap)) {
    return Status::InvalidArgument(
        "StructureFirst: the prepared cost table was built for another "
        "domain size, cost kind, grid step or count cap");
  }
  if (own->truth_fingerprint() != FingerprintHistogram(histogram)) {
    return Status::InvalidArgument(
        "StructureFirst: the prepared cost table was built from other "
        "counts");
  }
  const std::size_t m = costs.num_candidates();
  const double utility_sensitivity =
      options_.cost_kind == CostKind::kSquared
          ? 2.0 * options_.count_cap + 1.0
          : 2.0;

  // The v-opt tables: a fixed k needs them only for a data-dependent
  // structure; adaptive k reads the best merge cost of every candidate k.
  const bool adaptive = options_.num_buckets == 0;
  const std::size_t k_cap =
      adaptive ? (options_.max_buckets_considered == 0
                      ? std::min<std::size_t>(m, 128)
                      : std::min(options_.max_buckets_considered, m))
               : std::min(options_.num_buckets, m);
  Result<VOptSolver> solver = Status::Internal("unset");
  if (adaptive || (k_cap > 1 && k_cap < m)) {
    solver = VOptSolver::Solve(costs, k_cap);
    if (!solver.ok()) {
      return solver.status();
    }
  }

  // Everything past the solve draws from `rng`: the k draw, the boundary
  // draws, the bucket noise, and the expansion back to unit bins.
  obs::ScopedTimer draws_timer("structure_first/draws");
  const double eps_s = options_.structure_budget_ratio * epsilon;
  std::size_t k = k_cap;
  double structure_spent = 0.0;  // accumulates as draws actually happen
  if (adaptive) {
    // Adaptive k: one exponential-mechanism draw over candidate bucket
    // counts, scored by the best achievable merge cost plus the expected
    // total absolute count noise (k buckets -> k * E|Lap(1/eps_c)|).
    const double eps_k = options_.k_selection_ratio * eps_s;
    // Planned count budget (a constant; the realized one below can only
    // be larger, which only helps).
    const double planned_eps_c = epsilon - eps_s;
    auto em = ExponentialMechanism::Create(eps_k, utility_sensitivity);
    if (!em.ok()) {
      return em.status();
    }
    // Candidate bucket counts: a geometric grid up to the DP cap, plus the
    // identity structure m (merge cost exactly 0, no DP row needed). The
    // sparse grid keeps the single draw concentrated, and the identity
    // candidate lets StructureFirst degrade gracefully to the Dwork
    // baseline when the data resists merging.
    std::vector<std::size_t> candidates;
    for (std::size_t candidate = 1; candidate <= k_cap; candidate *= 2) {
      candidates.push_back(candidate);
    }
    if (candidates.back() != k_cap) {
      candidates.push_back(k_cap);
    }
    if (m > k_cap) {
      candidates.push_back(m);
    }
    std::vector<double> utilities;
    utilities.reserve(candidates.size());
    for (std::size_t candidate : candidates) {
      const double merge_cost =
          candidate == m ? 0.0 : solver.value().MinCost(candidate);
      utilities.push_back(
          -(merge_cost + static_cast<double>(candidate) / planned_eps_c));
    }
    auto pick = em.value().Select(utilities, rng);
    if (!pick.ok()) {
      return pick.status();
    }
    k = candidates[pick.value()];
    structure_spent += eps_k;
  }

  // Boundary draws (only for data-dependent structures).
  Result<Bucketization> structure = Status::Internal("unset");
  if (k == 1) {
    structure = Bucketization::SingleBucket(n);
  } else if (k == m) {
    std::vector<std::size_t> cuts(costs.positions().begin() + 1,
                                  costs.positions().end() - 1);
    structure = Bucketization::FromCuts(n, std::move(cuts));
  } else {
    const double eps_boundaries = eps_s - structure_spent;
    auto cut_indices = SampleCutIndices(
        solver.value(), costs, k,
        eps_boundaries / static_cast<double>(k - 1), utility_sensitivity,
        rng);
    if (!cut_indices.ok()) {
      return cut_indices.status();
    }
    structure_spent += eps_boundaries;
    std::vector<std::size_t> cuts;
    cuts.reserve(cut_indices.value().size());
    for (std::size_t idx : cut_indices.value()) {
      cuts.push_back(costs.positions()[idx]);
    }
    structure = Bucketization::FromCuts(n, std::move(cuts));
  }
  if (!structure.ok()) {
    return structure.status();
  }

  // Whatever structure budget was not consumed (data-independent
  // structures) flows back to the counts.
  const double eps_counts = epsilon - structure_spent;

  auto laplace = LaplaceMechanism::Create(eps_counts, /*sensitivity=*/1.0,
                                          options_.noise_model);
  if (!laplace.ok()) {
    return laplace.status();
  }
  const Bucketization& buckets = structure.value();
  std::vector<double> means;
  means.reserve(buckets.num_buckets());
  for (std::size_t i = 0; i < buckets.num_buckets(); ++i) {
    const Bucket b = buckets.bucket(i);
    KahanSum sum;
    for (std::size_t j = b.begin; j < b.end; ++j) {
      sum.Add(histogram.count(j));
    }
    const double noisy_sum = laplace.value().Perturb(sum.Total(), rng);
    means.push_back(noisy_sum / static_cast<double>(b.length()));
  }
  auto published = buckets.Expand(means);
  if (!published.ok()) {
    return published.status();
  }
  std::vector<double> out = std::move(published).value();
  if (options_.clamp_nonnegative) {
    for (double& v : out) {
      v = std::max(v, 0.0);
    }
  }

  if (details != nullptr) {
    details->num_buckets = buckets.num_buckets();
    details->adaptive_k = options_.num_buckets == 0;
    details->cuts = buckets.cuts();
    details->structure_epsilon = structure_spent;
    details->count_epsilon = eps_counts;
    details->utility_sensitivity = utility_sensitivity;
  }
  return Histogram(std::move(out));
}

}  // namespace dphist
