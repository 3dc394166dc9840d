#ifndef DPHIST_PRIVACY_BUDGET_H_
#define DPHIST_PRIVACY_BUDGET_H_

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "dphist/common/math_util.h"
#include "dphist/common/status.h"

namespace dphist {

/// \brief A single recorded privacy charge.
struct BudgetCharge {
  /// Epsilon consumed by the charge.
  double epsilon = 0.0;
  /// Free-form label for auditing ("laplace:counts", "em:boundary 3", ...).
  std::string label;
  /// True if the charge was made under parallel composition (it still must
  /// not exceed the remaining budget, but parallel charges with the same
  /// group label share a single epsilon).
  bool parallel = false;
  /// Group key for parallel charges; ignored for sequential charges.
  std::string parallel_group;
  /// Delta consumed by the charge (approximate-DP mechanisms such as the
  /// unknown-domain sparse publisher). Deltas add up under sequential
  /// composition; pure-epsilon charges leave this at 0.
  double delta = 0.0;
};

/// \brief Tracks epsilon consumption under sequential and parallel
/// composition.
///
/// The accountant is an auditing device: the mechanisms themselves are
/// parameterized directly by epsilon, and algorithms use the accountant to
/// *prove* (in tests and examples) that their internal charges sum to the
/// epsilon the caller granted.
///
/// Sequential composition: charges add up. Parallel composition: charges in
/// the same group act on disjoint data partitions, so the group costs the
/// maximum of its members' epsilons rather than the sum (Theorem of McSherry,
/// "Privacy integrated queries").
///
/// Complexity: the spend is maintained incrementally (a running sequential
/// sum plus a per-group max table), so each charge and each
/// `spent_epsilon()` call costs O(number of parallel groups), not O(number
/// of charges) — a long-lived accountant (e.g. behind `serve::BudgetLedger`)
/// stays O(n) over n charges instead of O(n^2). The incremental totals
/// perform the identical floating-point operations, in the identical order,
/// as a from-scratch recomputation over `charges()`, so accept/reject
/// decisions are bit-for-bit unchanged (asserted by budget_test).
///
/// Numerics: the spend is accumulated with compensated (Kahan) summation
/// — the shared `KahanSum` — not plain `+=`. Naive accumulation drifts: a
/// budget funded for exactly N charges of ε/N could refuse the Nth
/// legitimate charge, or `remaining_epsilon()` could report a sliver of
/// phantom budget after the grant was exactly consumed (ten charges of 0.1
/// against 1.0 naively sum to 0.9999999999999999). With compensation the
/// running spend is the correctly-rounded sum, so "exactly spent" means
/// remaining == 0.0 (budget_test's ExactFractionalChargesConsumeExactly).
class BudgetAccountant {
 public:
  /// Creates an accountant with `total_epsilon` to spend and no delta
  /// budget: every approximate-DP charge (delta > 0) is refused.
  /// `total_epsilon` must be positive; a non-positive value is pinned to 0
  /// so every charge fails loudly.
  explicit BudgetAccountant(double total_epsilon);

  /// Creates an accountant granting `total_epsilon` and `total_delta` for
  /// (epsilon, delta)-DP mechanisms. Non-positive grants are pinned to 0.
  BudgetAccountant(double total_epsilon, double total_delta);

  /// True when `epsilon` is finite and > 0, the only epsilons a charge
  /// accepts. A NaN passes `epsilon <= 0` and would make the spent sum NaN,
  /// after which no `spent + epsilon > total` test is ever true; an
  /// infinite epsilon is no budget at all.
  static bool ChargeableEpsilon(double epsilon) {
    return epsilon > 0.0 && std::isfinite(epsilon);
  }

  /// Records a sequential charge of `epsilon` with `label`.
  /// Fails with InvalidArgument unless ChargeableEpsilon(epsilon), and with
  /// ResourceExhausted if the remaining budget is insufficient (up to a
  /// small floating-point tolerance).
  Status ChargeSequential(double epsilon, std::string label);

  /// Records a sequential (epsilon, delta) charge. Deltas compose
  /// additively alongside the epsilons. Fails with InvalidArgument if
  /// `delta` is negative, and with ResourceExhausted when the delta grant
  /// (see the two-argument constructor) cannot cover it — in particular,
  /// any delta > 0 against an accountant constructed without a delta grant.
  Status ChargeSequential(double epsilon, double delta, std::string label);

  /// Records a parallel charge of `epsilon` under `group`: all charges with
  /// the same group key count once at their maximum epsilon. Refuses the
  /// epsilons ChargeSequential refuses.
  Status ChargeParallel(double epsilon, std::string group, std::string label);

  /// Total epsilon granted at construction.
  double total_epsilon() const { return total_epsilon_; }

  /// Epsilon consumed so far (sequential sum + per-group maxima).
  double spent_epsilon() const;

  /// Remaining epsilon (never negative).
  double remaining_epsilon() const;

  /// Total delta granted at construction (0 for pure-epsilon accountants).
  double total_delta() const { return total_delta_; }

  /// Delta consumed so far (compensated sum over all charges).
  double spent_delta() const { return delta_sum_.Total(); }

  /// Remaining delta (never negative).
  double remaining_delta() const;

  /// All recorded charges, in order.
  const std::vector<BudgetCharge>& charges() const { return charges_; }

  /// Human-readable ledger for logs and examples.
  std::string ToString() const;

 private:
  double total_epsilon_;
  double total_delta_ = 0.0;
  std::vector<BudgetCharge> charges_;
  /// Compensated running sum of per-charge deltas (sequential composition
  /// of the deltas; parallel epsilon charges carry delta 0).
  KahanSum delta_sum_;
  /// Compensated running sum of sequential charges, in charge order
  /// (bit-identical to re-summing `charges_` the same way).
  KahanSum sequential_sum_;
  /// Max epsilon per parallel group; folded in key order into a copy of
  /// the compensated sum by `spent_epsilon()`, matching a from-scratch
  /// recomputation.
  std::map<std::string, double> group_max_;
};

}  // namespace dphist

#endif  // DPHIST_PRIVACY_BUDGET_H_
