#include "dphist/privacy/budget.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "dphist/testing/failpoint.h"

namespace dphist {

namespace {
// Tolerance for floating-point budget arithmetic: splitting epsilon into
// k equal parts and charging them back must not overshoot.
constexpr double kBudgetSlack = 1e-9;
}  // namespace

BudgetAccountant::BudgetAccountant(double total_epsilon)
    : total_epsilon_(total_epsilon > 0.0 ? total_epsilon : 0.0) {}

BudgetAccountant::BudgetAccountant(double total_epsilon, double total_delta)
    : total_epsilon_(total_epsilon > 0.0 ? total_epsilon : 0.0),
      total_delta_(total_delta > 0.0 ? total_delta : 0.0) {}

Status BudgetAccountant::ChargeSequential(double epsilon, std::string label) {
  return ChargeSequential(epsilon, /*delta=*/0.0, std::move(label));
}

Status BudgetAccountant::ChargeSequential(double epsilon, double delta,
                                          std::string label) {
  if (!ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "budget charge must have a finite epsilon > 0");
  }
  if (delta < 0.0) {
    return Status::InvalidArgument("budget charge must have delta >= 0");
  }
  if (spent_epsilon() + epsilon >
      total_epsilon_ * (1.0 + kBudgetSlack) + kBudgetSlack) {
    return Status::ResourceExhausted("privacy budget exhausted: charge '" +
                                     label + "' exceeds remaining epsilon");
  }
  // The delta grant uses the same relative slack as epsilon. Deltas are
  // tiny (1e-9-ish), so the absolute kBudgetSlack term would dwarf the
  // grant itself; the delta check therefore uses relative slack only —
  // notably, any delta > 0 against total_delta_ == 0 is refused.
  if (delta > 0.0 &&
      spent_delta() + delta > total_delta_ * (1.0 + kBudgetSlack)) {
    return Status::ResourceExhausted("privacy budget exhausted: charge '" +
                                     label + "' exceeds remaining delta");
  }
  sequential_sum_.Add(epsilon);
  delta_sum_.Add(delta);
  charges_.push_back(
      BudgetCharge{epsilon, std::move(label), /*parallel=*/false, "", delta});
  // Chaos hook: a charge failing *after* its commit point. The epsilon is
  // already recorded as spent — the conservative direction: a failure here
  // must never un-spend budget, and the chaos suite asserts the ledger
  // still never overspends.
  DPHIST_FAILPOINT_RETURN_IF_SET("privacy/budget/after_commit");
  return Status::Ok();
}

Status BudgetAccountant::ChargeParallel(double epsilon, std::string group,
                                        std::string label) {
  if (!ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument(
        "budget charge must have a finite epsilon > 0");
  }
  // Tentatively raise the group's max, evaluate the prospective spend, and
  // roll the table back on refusal — the same accept/reject arithmetic as
  // recording the charge and recomputing from scratch, at O(groups) cost.
  const auto [it, inserted] = group_max_.try_emplace(group, 0.0);
  const double old_max = it->second;
  it->second = std::max(old_max, epsilon);
  const double after = spent_epsilon();
  if (after > total_epsilon_ * (1.0 + kBudgetSlack) + kBudgetSlack) {
    if (inserted) {
      group_max_.erase(it);
    } else {
      it->second = old_max;
    }
    return Status::ResourceExhausted(
        "privacy budget exhausted by parallel charge");
  }
  charges_.push_back(BudgetCharge{epsilon, std::move(label),
                                  /*parallel=*/true, std::move(group)});
  return Status::Ok();
}

double BudgetAccountant::spent_epsilon() const {
  // group_max_ iterates in key order, the same order the from-scratch
  // recomputation folds its per-group maxima in, so the compensated
  // operations (and therefore every accept/reject decision) are identical.
  // Compensation matters here: repeated naive additions of ε/N drift, and
  // the drift either refuses a final legitimate charge or leaves phantom
  // remaining budget after an exact spend-down.
  KahanSum spent = sequential_sum_;
  for (const auto& [group, eps] : group_max_) {
    spent.Add(eps);
  }
  return spent.Total();
}

double BudgetAccountant::remaining_epsilon() const {
  return std::max(0.0, total_epsilon_ - spent_epsilon());
}

double BudgetAccountant::remaining_delta() const {
  return std::max(0.0, total_delta_ - spent_delta());
}

std::string BudgetAccountant::ToString() const {
  std::ostringstream out;
  out << "BudgetAccountant(total=" << total_epsilon_
      << ", spent=" << spent_epsilon();
  if (total_delta_ > 0.0 || spent_delta() > 0.0) {
    out << ", total_delta=" << total_delta_
        << ", spent_delta=" << spent_delta();
  }
  out << ")\n";
  for (const BudgetCharge& charge : charges_) {
    out << "  " << (charge.parallel ? "[parallel:" + charge.parallel_group + "] "
                                    : "[sequential] ")
        << charge.label << " eps=" << charge.epsilon;
    if (charge.delta > 0.0) {
      out << " delta=" << charge.delta;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace dphist
