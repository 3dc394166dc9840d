#include "dphist/algorithms/mwem.h"

#include <algorithm>
#include <cmath>

#include "dphist/common/math_util.h"
#include "dphist/privacy/exponential_mechanism.h"
#include "dphist/privacy/laplace_mechanism.h"
#include "dphist/query/workload.h"

namespace dphist {

Mwem::Mwem() : options_(Options()) {}

Mwem::Mwem(Options options) : options_(std::move(options)) {}

Result<Histogram> Mwem::PublishPrepared(const Histogram& histogram,
                                        const PreparedTruth* /*prepared*/,
                                        double epsilon, Rng& rng) const {
  return PublishWithDetails(histogram, epsilon, rng, nullptr);
}

Result<Histogram> Mwem::PublishWithDetails(const Histogram& histogram,
                                           double epsilon, Rng& rng,
                                           Details* details) const {
  DPHIST_RETURN_IF_ERROR(ValidatePublishArgs(histogram, epsilon));
  if (options_.iterations == 0) {
    return Status::InvalidArgument("Mwem: iterations must be >= 1");
  }
  if (!(options_.total_budget_ratio > 0.0) ||
      !(options_.total_budget_ratio < 1.0)) {
    return Status::InvalidArgument(
        "Mwem: total_budget_ratio must lie in (0, 1)");
  }
  const std::size_t n = histogram.size();

  std::vector<RangeQuery> workload = options_.workload;
  if (workload.empty()) {
    auto generated =
        RandomRangeWorkload(n, options_.default_workload_size, rng);
    if (!generated.ok()) {
      return generated.status();
    }
    workload = std::move(generated).value();
  } else {
    DPHIST_RETURN_IF_ERROR(ValidateQueries(workload, n));
  }
  const std::size_t T = options_.iterations;

  // Budget: total estimate + T (select, measure) pairs.
  const double eps_total = options_.total_budget_ratio * epsilon;
  const double eps_iterations = epsilon - eps_total;
  const double eps_select = eps_iterations / (2.0 * static_cast<double>(T));
  const double eps_measure = eps_iterations / (2.0 * static_cast<double>(T));

  auto total_mechanism = LaplaceMechanism::Create(eps_total, 1.0);
  if (!total_mechanism.ok()) {
    return total_mechanism.status();
  }
  double noisy_total =
      total_mechanism.value().Perturb(histogram.Total(), rng);
  // A distribution needs positive mass; floor the estimate at 1 record.
  noisy_total = std::max(noisy_total, 1.0);

  auto select_em = ExponentialMechanism::Create(eps_select,
                                                /*utility_sensitivity=*/1.0);
  if (!select_em.ok()) {
    return select_em.status();
  }
  auto measure_mechanism = LaplaceMechanism::Create(eps_measure, 1.0);
  if (!measure_mechanism.ok()) {
    return measure_mechanism.status();
  }

  // Synthetic distribution, initialized uniform; kept as counts scaled to
  // the noisy total so query errors are in count units.
  std::vector<double> synth(n, noisy_total / static_cast<double>(n));
  std::vector<std::size_t> selected;
  selected.reserve(T);

  auto query_answer = [](const std::vector<double>& counts,
                         const RangeQuery& q) {
    double sum = 0.0;
    for (std::size_t i = q.begin; i < q.end; ++i) {
      sum += counts[i];
    }
    return sum;
  };

  for (std::size_t t = 0; t < T; ++t) {
    // 1. Select the worst query (utility = current absolute error; one
    //    record changes a true answer by <= 1, so Delta_u = 1).
    std::vector<double> utilities;
    utilities.reserve(workload.size());
    for (const RangeQuery& q : workload) {
      const double true_answer =
          histogram.RangeSumUnchecked(q.begin, q.end);
      utilities.push_back(std::abs(true_answer - query_answer(synth, q)));
    }
    auto pick = select_em.value().Select(utilities, rng);
    if (!pick.ok()) {
      return pick.status();
    }
    const RangeQuery& q = workload[pick.value()];
    selected.push_back(pick.value());

    // 2. Measure it.
    const double measurement = measure_mechanism.value().Perturb(
        histogram.RangeSumUnchecked(q.begin, q.end), rng);

    // 3. Multiplicative-weights update toward the measurement.
    const double estimate = query_answer(synth, q);
    const double exponent =
        Clamp((measurement - estimate) / (2.0 * noisy_total), -20.0, 20.0);
    const double factor = std::exp(exponent);
    for (std::size_t i = q.begin; i < q.end; ++i) {
      synth[i] *= factor;
    }
    // Renormalize to the noisy total.
    KahanSum mass;
    for (double v : synth) {
      mass.Add(v);
    }
    const double scale = noisy_total / mass.Total();
    for (double& v : synth) {
      v *= scale;
    }
  }

  if (options_.clamp_nonnegative) {
    for (double& v : synth) {
      v = std::max(v, 0.0);
    }
  }
  if (details != nullptr) {
    details->noisy_total = noisy_total;
    details->selected_queries = std::move(selected);
  }
  return Histogram(std::move(synth));
}

}  // namespace dphist
