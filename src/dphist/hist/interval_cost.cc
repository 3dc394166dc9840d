#include "dphist/hist/interval_cost.h"

#include <algorithm>
#include <cmath>

#include "dphist/common/math_util.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/fenwick.h"
#include "dphist/hist/histogram.h"
#include "dphist/obs/obs.h"

namespace dphist {

const char* CostKindName(CostKind kind) {
  switch (kind) {
    case CostKind::kSquared:
      return "squared";
    case CostKind::kAbsolute:
      return "absolute";
  }
  return "unknown";
}

Result<IntervalCostTable> IntervalCostTable::Create(
    const std::vector<double>& counts, const Options& options) {
  if (counts.empty()) {
    return Status::InvalidArgument(
        "IntervalCostTable requires a non-empty histogram");
  }
  DPHIST_RETURN_IF_ERROR(CheckFiniteCounts(counts));
  if (options.grid_step == 0) {
    return Status::InvalidArgument("grid_step must be >= 1");
  }
  obs::ScopedTimer build_timer("interval_cost/build");
  static obs::Counter& builds =
      obs::Registry::Global().GetCounter("interval_cost/builds");
  builds.Increment();
  IntervalCostTable table;
  table.domain_size_ = counts.size();
  table.kind_ = options.kind;
  table.grid_step_ = options.grid_step;
  for (std::size_t p = 0; p < counts.size(); p += options.grid_step) {
    table.positions_.push_back(p);
  }
  table.positions_.push_back(counts.size());
  table.sums_ = PrefixSums(counts);
  table.squares_ = PrefixSumsOfSquares(counts);
  if (options.kind == CostKind::kAbsolute) {
    const std::size_t m = table.positions_.size();
    // Stored cells of the packed a < b triangle.
    if (m * (m - 1) / 2 > options.max_table_cells) {
      return Status::InvalidArgument(
          "absolute-cost triangle would exceed max_table_cells; "
          "increase grid_step");
    }
    table.BuildAbsoluteMatrix(counts, options);
  }
  return table;
}

double IntervalCostTable::CostBetween(std::size_t a, std::size_t b) const {
  if (kind_ == CostKind::kAbsolute) {
    return AbsoluteAt(a, b);
  }
  return SquaredCostOf(positions_[a], positions_[b]);
}

double IntervalCostTable::MeanOf(std::size_t begin, std::size_t end) const {
  const double length = static_cast<double>(end - begin);
  return (sums_[end] - sums_[begin]) / length;
}

double IntervalCostTable::SquaredCostOf(std::size_t begin,
                                        std::size_t end) const {
  const double length = static_cast<double>(end - begin);
  const double sum = sums_[end] - sums_[begin];
  const double sum_sq = squares_[end] - squares_[begin];
  // SSE = sum of squares - (sum)^2 / L; clamp tiny negative values caused
  // by cancellation.
  const double sse = sum_sq - sum * sum / length;
  return sse > 0.0 ? sse : 0.0;
}

void IntervalCostTable::BuildAbsoluteMatrix(const std::vector<double>& counts,
                                            const Options& options) {
  const std::size_t m = positions_.size();
  absolute_costs_ = MappedDoubles(m * (m - 1) / 2);
  // Bulk-counted (one Add per build): the cells the Fenwick sweeps fill.
  static obs::Counter& absolute_cells =
      obs::Registry::Global().GetCounter("interval_cost/absolute_cells");
  absolute_cells.Add(m * (m - 1) / 2);

  // Rank every distinct count value so a Fenwick tree over ranks can answer
  // "count and sum of inserted values <= mu" queries.
  std::vector<double> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::size_t> rank_of(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    rank_of[i] = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), counts[i]) -
        sorted.begin());
  }

  // For each candidate end position, sweep the start leftwards, inserting
  // one unit bin at a time; at every candidate start, evaluate the cost of
  // the interval currently held in the Fenwick tree. Distinct end positions
  // touch disjoint cells (the packed column of b), so the sweeps fan out
  // across the pool with one scratch Fenwick tree per chunk; each column's
  // values are computed by exactly the sequential sweep, so the triangle is
  // bit-identical for any thread count.
  //
  // The cursor `le` counts the distinct values <= mu: std::upper_bound's
  // index for any non-NaN mu (Create rejects non-finite counts). One more
  // bin moves the mean little, so it usually moves zero or one step from
  // the previous candidate's. Every cost comes from Fenwick node sums added
  // in the tree's fixed walk order, so the triangle is a fixed function of
  // the counts, bit for bit (DESIGN §7).
  auto sweep_columns = [&](std::size_t b_begin, std::size_t b_end) {
    RankedFenwick fenwick(sorted.size());
    for (std::size_t b = b_begin; b < b_end; ++b) {
      fenwick.Clear();
      double* column = &absolute_costs_[b * (b - 1) / 2];
      const std::size_t end = positions_[b];
      std::size_t a = b;  // index of the next candidate start to the left
      std::size_t le = 0;
      for (std::size_t j = end; j-- > 0;) {
        fenwick.Insert(rank_of[j], counts[j]);
        if (a > 0 && positions_[a - 1] == j) {
          --a;
          const std::size_t begin = positions_[a];
          const double length = static_cast<double>(end - begin);
          const double total = fenwick.TotalSum();
          const double mu = total / length;
          while (le < sorted.size() && sorted[le] <= mu) {
            ++le;
          }
          while (le > 0 && sorted[le - 1] > mu) {
            --le;
          }
          const RankedFenwick::CountAndSum below =
              fenwick.CountAndSumBelow(le);
          const double below_count = static_cast<double>(below.count);
          const double above_sum = total - below.sum;
          const double above_count = length - below_count;
          const double cost = (mu * below_count - below.sum) +
                              (above_sum - mu * above_count);
          column[a] = cost > 0.0 ? cost : 0.0;
        }
      }
    }
  };

  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  if (pool.thread_count() > 1 && m >= options.min_parallel_candidates) {
    pool.ParallelForChunks(1, m, /*min_chunk=*/8, sweep_columns);
  } else {
    sweep_columns(1, m);
  }
}

}  // namespace dphist
