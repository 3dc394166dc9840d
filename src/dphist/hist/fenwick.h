#ifndef DPHIST_HIST_FENWICK_H_
#define DPHIST_HIST_FENWICK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dphist {

/// \brief A Fenwick (binary indexed) tree over value ranks, tracking both
/// the number and the sum of inserted values per rank.
///
/// Used by the absolute-error interval-cost builder: while scanning an
/// interval we insert each count at its value rank, and can then answer
/// "how many inserted values are <= t, and what is their sum" in O(log R)
/// — exactly what evaluating sum_i |x_i - mu| around a mean mu needs.
///
/// The update and query walks are inline: the cost builder calls them once
/// per unit bin and once per candidate cell. Every prefix query walks the
/// same nodes in the same order (CountAndSumBelow), so a sum is a fixed
/// function of the inserted values and the queried rank, bit for bit.
///
/// Rank contract: every rank argument must be < num_ranks() (a rank
/// *count* for CountAndSumBelow, <= num_ranks()). A violation aborts the
/// process with a diagnostic (in every build type, not just with
/// assertions on): an out-of-range Insert/Remove would otherwise silently
/// drop the value — the update loop never executes — leaving
/// TotalCount/TotalSum quietly wrong, and an out-of-range query would
/// silently answer for a different rank than the caller asked about.
class RankedFenwick {
 public:
  /// Count and sum of the inserted values in a rank prefix.
  struct CountAndSum {
    std::int64_t count = 0;
    double sum = 0.0;
  };

  /// Creates a tree over `num_ranks` ranks (0 .. num_ranks-1).
  explicit RankedFenwick(std::size_t num_ranks);

  /// Number of ranks.
  std::size_t num_ranks() const { return size_; }

  /// Inserts one occurrence of `value` at `rank`. Aborts unless
  /// rank < num_ranks().
  void Insert(std::size_t rank, double value) {
    if (rank >= size_) {
      RankOutOfRange("Insert", rank);
    }
    for (std::size_t i = rank + 1; i <= size_; i += i & (~i + 1)) {
      count_[i] += 1;
      sum_[i] += value;
    }
  }

  /// Removes one occurrence of `value` at `rank` (inverse of Insert).
  /// Aborts unless rank < num_ranks().
  void Remove(std::size_t rank, double value) {
    if (rank >= size_) {
      RankOutOfRange("Remove", rank);
    }
    for (std::size_t i = rank + 1; i <= size_; i += i & (~i + 1)) {
      count_[i] -= 1;
      sum_[i] -= value;
    }
  }

  /// Resets the tree to empty without reallocating.
  void Clear();

  /// Number and sum of inserted values with rank < `ranks`, in one walk.
  /// `ranks` is a rank count in [0, num_ranks()]: 0 answers {0, 0.0} and
  /// num_ranks() answers the totals. Aborts unless ranks <= num_ranks().
  CountAndSum CountAndSumBelow(std::size_t ranks) const {
    if (ranks > size_) {
      RankOutOfRange("CountAndSumBelow", ranks);
    }
    CountAndSum below;
    for (std::size_t i = ranks; i > 0; i -= i & (~i + 1)) {
      below.count += count_[i];
      below.sum += sum_[i];
    }
    return below;
  }

  /// Number of inserted values with rank <= `rank`. A rank of
  /// num_ranks()-1 returns the total insert count. Aborts unless
  /// rank < num_ranks().
  std::int64_t CountUpTo(std::size_t rank) const {
    if (rank >= size_) {
      RankOutOfRange("CountUpTo", rank);
    }
    return CountAndSumBelow(rank + 1).count;
  }

  /// Sum of inserted values with rank <= `rank`; bit-identical to
  /// CountAndSumBelow(rank + 1).sum. Aborts unless rank < num_ranks().
  double SumUpTo(std::size_t rank) const {
    if (rank >= size_) {
      RankOutOfRange("SumUpTo", rank);
    }
    return CountAndSumBelow(rank + 1).sum;
  }

  /// Total number of inserted values.
  std::int64_t TotalCount() const { return CountAndSumBelow(size_).count; }

  /// Total sum of inserted values; bit-identical to SumUpTo(num_ranks()-1).
  double TotalSum() const { return CountAndSumBelow(size_).sum; }

 private:
  /// Prints a diagnostic naming `op` and aborts. Out of line, so the inline
  /// walks carry only a compare and a cold call.
  [[noreturn]] void RankOutOfRange(const char* op, std::size_t rank) const;

  std::size_t size_;
  std::vector<std::int64_t> count_;
  std::vector<double> sum_;
};

}  // namespace dphist

#endif  // DPHIST_HIST_FENWICK_H_
