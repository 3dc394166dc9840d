#include "dphist/hist/vopt_dp.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "dphist/common/thread_pool.h"
#include "dphist/hist/vopt_kernel.h"
#include "dphist/obs/obs.h"

namespace dphist {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Minimum indices per chunk when a row is parallelized: each cell already
// costs O(i) work, so modest chunks amortize dispatch fine while keeping
// the tail balanced.
constexpr std::size_t kRowMinChunk = 32;

// Monotone-path block size (DESIGN §7): candidates are walked in blocks of
// kBoundBlock, each dismissed by one O(1) bound where it can be. Chosen by
// measurement; the squared path's candidate masks hold one bit per
// candidate of a block.
constexpr std::size_t kBoundBlock = 64;
static_assert(kBoundBlock <= 64, "one candidate mask bit per candidate");

// Below this candidate count kAuto stays naive: the monotone path's
// per-row suffix minima and per-cell upper-bound seeding only pay for
// themselves once rows are long enough for pruning to bite.
constexpr std::size_t kAutoMonotoneMinCandidates = 32;

// Reference predecessor scan for one cell — also the fallback the
// monotone path uses for the rare cells its preconditions exclude.
// Returns the number of exact cost evaluations actually performed (the
// infinity guard skips a predecessor *before* its lookup, which is why
// the count cannot be derived from the closed-form triangle).
std::uint64_t NaiveCell(const IntervalCostTable& costs, const double* prev,
                        double* curr, std::int32_t* par, std::size_t k,
                        std::size_t i) {
  std::uint64_t lookups = 0;
  double best = kInfinity;
  std::int32_t best_j = -1;
  for (std::size_t j = k - 1; j < i; ++j) {
    if (prev[j] == kInfinity) {
      continue;
    }
    const double candidate = prev[j] + costs.CostBetween(j, i);
    ++lookups;
    if (candidate < best) {
      best = candidate;
      best_j = static_cast<std::int32_t>(j);
    }
  }
  curr[i] = best;
  par[i] = best_j;
  return lookups;
}

// Shared read-only inputs of the monotone squared path, valid for one row.
struct SquaredBoundTables {
  const double* csum;     // prefix sums gathered at candidate positions
  const double* csq;      // prefix sums of squares, same gather
  const double* rrev;     // rrev[m - d] = inflated 1/(d * grid_step)
  // rrev dealt into kBoundBlock lanes, end_rr[(x % kBoundBlock) *
  // rr_stride + x / kBoundBlock] = rrev[x], so the reciprocals at one
  // cell's block ends, kBoundBlock apart in rrev, are contiguous here.
  const double* end_rr;
  std::size_t rr_stride;
  const double* suffmin;  // suffix minima of the previous row
  // Per kBoundBlock block of the row, anchored at k-1 (block q covers
  // [k-1 + q*kBoundBlock, ...)): the previous row's minimum over the
  // block, and csum/csq at the block's last candidate when it is full.
  const double* block_min;
  const double* end_sum;
  const double* end_sq;
  const std::int32_t* prev_par;  // argmins of the previous row
  double slack;                  // vopt_kernel::SquaredCostSlack
  std::size_t grid;
  std::size_t m;
};

// prev[j] + CostBetween(j, i) for a cell the squared kernels cover, from
// the gathered prefix tables: SquaredCostOf's operands and operations, so
// the same bits without the out-of-line call.
inline double SquaredCandidate(const SquaredBoundTables& t, const double* prev,
                               double si, double qi, std::size_t j,
                               std::size_t i) {
  const double length = static_cast<double>((i - j) * t.grid);
  const double sum = si - t.csum[j];
  const double sum_sq = qi - t.csq[j];
  const double sse = sum_sq - sum * sum / length;
  return prev[j] + (sse > 0.0 ? sse : 0.0);
}

// Fills cells [begin, end) of row k with certified-lower-bound pruning.
// `bounds` receives one cell's block bounds (m / kBoundBlock + 1 slots).
//
// Tie-breaking contract: the only values ever written are exact
// candidates prev[j] + CostBetween(j, i), evaluated in ascending j with
// strict '<', and the skip rules provably never eliminate the leftmost
// argmin, whether they dismiss one candidate or a whole block — `lb > ub`
// because the bound never exceeds any candidate it covers and ub never
// drops below the row minimum; `lb >= best` because best's achiever lies
// at a smaller j. So curr/par match NaiveCell bit for bit, at any thread
// count, and only the amount of skipped work varies (DESIGN §7).
void MonotoneSquaredCells(const IntervalCostTable& costs,
                          const SquaredBoundTables& t, const double* prev,
                          double* curr, std::int32_t* par, std::size_t k,
                          std::size_t begin, std::size_t end, double* bounds,
                          std::uint64_t* lookups, std::uint64_t* scans) {
  const std::size_t base = k - 1;
  double lb[kBoundBlock];
  for (std::size_t i = begin; i < end; ++i) {
    const double si = t.csum[i];
    const double qi = t.csq[i];
    const double* rr = t.rrev + (t.m - i);  // inflated 1/length of (j, i)
    // Seed the upper bound with exact candidates, so every comparison
    // starts against an attainable value instead of infinity: j = i-1,
    // and the previous row's argmin at i, which tends to sit near this
    // cell's. Both depend on row k-1 alone, never on how the row is
    // chunked, so the work counts stay thread-invariant. The seeds
    // deliberately do NOT touch `best`: crediting a candidate out of
    // ascending order would let an equal-valued smaller j be skipped —
    // breaking the leftmost tie-break that makes the table bit-identical
    // to naive.
    double ub = SquaredCandidate(t, prev, si, qi, i - 1, i);
    ++*lookups;
    const std::int32_t seed = t.prev_par[i];
    if (seed >= static_cast<std::int32_t>(base) &&
        static_cast<std::size_t>(seed) + 2 <= i) {
      const double candidate = SquaredCandidate(
          t, prev, si, qi, static_cast<std::size_t>(seed), i);
      ++*lookups;
      ub = candidate < ub ? candidate : ub;
    }
    // Every block bound of the cell in one pass: the full blocks from the
    // row's end tables, and a partial last block from its last candidate,
    // i-1.
    const std::size_t full = (i - base) / kBoundBlock;
    const std::size_t blocks = (i - base + kBoundBlock - 1) / kBoundBlock;
    if (full > 0) {
      const std::size_t x = t.m - i + base + kBoundBlock - 1;  // rrev index
      vopt_kernel::SquaredBlockBounds(
          t.block_min, t.end_sum, t.end_sq,
          t.end_rr + (x % kBoundBlock) * t.rr_stride + x / kBoundBlock, si,
          qi, t.slack, full, bounds);
    }
    if (blocks > full) {
      vopt_kernel::SquaredBlockBounds(t.block_min + full, t.csum + (i - 1),
                                      t.csq + (i - 1), rr + (i - 1), si, qi,
                                      t.slack, 1, bounds + full);
    }
    double best = kInfinity;
    std::int32_t bj = -1;
    for (std::size_t q = 0; q < blocks; ++q) {
      const std::size_t b0 = base + q * kBoundBlock;
      // Every remaining candidate satisfies cand >= prev[j] >=
      // suffmin[b0]; once that floor clears both thresholds, no later
      // block can improve the cell.
      if (t.suffmin[b0] > ub || t.suffmin[b0] >= best) {
        break;
      }
      if (bounds[q] > ub || bounds[q] >= best) {
        continue;  // dismissed without reading the block's candidates
      }
      const std::size_t e = std::min(i, b0 + kBoundBlock);
      *scans += e - b0;
      // The mask leaves out only candidates whose bound is above ub, which
      // never rises. The rest are checked against the current ub and best
      // and evaluated exactly, in ascending j.
      for (std::uint64_t mask = vopt_kernel::SquaredCandidateMask(
               prev, t.csum, t.csq, rr, si, qi, ub, b0, e, lb);
           mask != 0; mask &= mask - 1) {
        const auto o = static_cast<std::size_t>(std::countr_zero(mask));
        if (lb[o] > ub || lb[o] >= best) {
          continue;
        }
        const double candidate = SquaredCandidate(t, prev, si, qi, b0 + o, i);
        ++*lookups;
        if (candidate < ub) {
          ub = candidate;
        }
        if (candidate < best) {
          best = candidate;
          bj = static_cast<std::int32_t>(b0 + o);
        }
      }
    }
    if (bj < 0) {
      // Unreachable by the DESIGN §7 argument (the leftmost argmin
      // survives every skip rule); kept so a future bound regression
      // would degrade to a naive scan instead of corrupting the table.
      *lookups += NaiveCell(costs, prev, curr, par, k, i);
      continue;
    }
    curr[i] = best;
    par[i] = bj;
  }
}

// Shared read-only inputs of the monotone absolute path, valid for one row.
struct AbsoluteBoundTables {
  const double* suffmin;  // suffix minima of the previous row
  // Minima of the previous row over aligned kBoundBlock blocks:
  // block_min[q] covers [max(k-1, q*kBoundBlock), min(m, (q+1)*kBoundBlock)).
  const double* block_min;
  // vopt_kernel::AbsoluteColumnBlockMinima over the same aligned blocks;
  // column i's minima start at col_min + i * col_stride.
  const double* col_min;
  std::size_t col_stride;
  const std::int32_t* prev_par;  // argmins of the previous row
};

// Absolute-cost analogue of MonotoneSquaredCells, under the same
// tie-breaking contract. The packed triangular column of end candidate i
// is contiguous in j, so every bound here is built from exact minima: a
// block's bound block_min + col_min never exceeds any prev[j] + col[j] it
// covers, because rounding is monotone — no slack and no reciprocals. The
// kernel's block minimum is itself an exact candidate, so a surviving
// block's leftmost achiever is the first j whose sum reproduces it
// (DESIGN §7).
void MonotoneAbsoluteCells(const IntervalCostTable& costs,
                           const AbsoluteBoundTables& t, const double* prev,
                           double* curr, std::int32_t* par, std::size_t k,
                           std::size_t begin, std::size_t end,
                           std::uint64_t* lookups, std::uint64_t* scans) {
  const std::size_t base = k - 1;
  for (std::size_t i = begin; i < end; ++i) {
    const double* col = costs.AbsoluteColumn(i);
    const double* col_min = t.col_min + i * t.col_stride;
    // Exact, chunk-independent ub seeds that never touch `best`, as on the
    // squared path: j = i-1 and the previous row's argmin at i.
    double ub = prev[i - 1] + col[i - 1];
    ++*lookups;
    const std::int32_t seed = t.prev_par[i];
    if (seed >= static_cast<std::int32_t>(base) &&
        static_cast<std::size_t>(seed) + 2 <= i) {
      const auto j = static_cast<std::size_t>(seed);
      const double candidate = prev[j] + col[j];
      ++*lookups;
      ub = candidate < ub ? candidate : ub;
    }
    double best = kInfinity;
    std::int32_t bj = -1;
    // Blocks are aligned to multiples of kBoundBlock, so the row's first
    // block starts at k-1 and the cell's last one ends at i: both are
    // subsets of the aligned blocks the minima cover.
    for (std::size_t q = base / kBoundBlock; q * kBoundBlock < i; ++q) {
      const std::size_t b0 = std::max(base, q * kBoundBlock);
      if (t.suffmin[b0] > ub || t.suffmin[b0] >= best) {
        break;
      }
      const double block_lb = t.block_min[q] + col_min[q];
      if (block_lb > ub || block_lb >= best) {
        continue;  // dismissed without reading the block's candidates
      }
      const std::size_t e = std::min(i, (q + 1) * kBoundBlock);
      *scans += e - b0;
      const double bmin =
          vopt_kernel::AbsoluteCandidateBlockMin(prev, col, b0, e);
      if (bmin > ub || bmin >= best) {
        continue;
      }
      // bmin improves the cell and is the exact sum of some candidate in
      // the block, so the first j that reproduces it is the block's
      // leftmost argmin. The kernel compares every candidate of the block.
      const std::size_t j =
          vopt_kernel::AbsoluteFirstMatch(prev, col, b0, e, bmin);
      *lookups += e - b0;
      if (j == e) {
        bj = -1;  // the kernel disagreed with the scalar sums: solve naively
        break;
      }
      best = prev[j] + col[j];
      bj = static_cast<std::int32_t>(j);
      ub = best < ub ? best : ub;
    }
    if (bj < 0) {
      // Unreachable by the DESIGN §7 argument; kept so a kernel or bound
      // regression degrades to a naive scan instead of corrupting the table.
      *lookups += NaiveCell(costs, prev, curr, par, k, i);
      continue;
    }
    curr[i] = best;
    par[i] = bj;
  }
}

}  // namespace

const char* VOptStrategyName(VOptStrategy strategy) {
  switch (strategy) {
    case VOptStrategy::kAuto:
      return "auto";
    case VOptStrategy::kNaive:
      return "naive";
    case VOptStrategy::kMonotone:
      return "monotone";
  }
  return "unknown";
}

Result<VOptSolver> VOptSolver::Solve(const IntervalCostTable& costs,
                                     std::size_t max_buckets) {
  return Solve(costs, max_buckets, SolveOptions{});
}

Result<VOptSolver> VOptSolver::Solve(const IntervalCostTable& costs,
                                     std::size_t max_buckets,
                                     const SolveOptions& options) {
  const std::size_t m = costs.num_candidates();
  if (m == 0) {
    return Status::InvalidArgument("VOptSolver: no candidate intervals");
  }
  std::size_t cap = max_buckets == 0 ? m : std::min(max_buckets, m);

  // Monotone preconditions over the candidate geometry. Interior positions
  // are uniform multiples of grid_step by construction of the cost table;
  // re-derived defensively here because the bound kernel's reciprocal
  // table indexes interval lengths by (i - j). The final position is the
  // domain end and may break uniformity, in which case the last cell of
  // every row falls back to the naive scan.
  const std::vector<std::size_t>& positions = costs.positions();
  const std::size_t grid = costs.grid_step();
  bool interior_uniform = true;
  for (std::size_t j = 0; j < m; ++j) {
    if (positions[j] != j * grid) {
      interior_uniform = false;
      break;
    }
  }
  const bool endpoint_uniform = interior_uniform && positions[m] == m * grid;

  VOptStrategy strategy = options.strategy;
  if (strategy == VOptStrategy::kAuto) {
    // Decision table (DESIGN §7): monotone whenever its structural
    // preconditions hold and rows are long enough for pruning to pay.
    const bool applicable =
        costs.kind() == CostKind::kAbsolute || interior_uniform;
    strategy = applicable && m >= kAutoMonotoneMinCandidates
                   ? VOptStrategy::kMonotone
                   : VOptStrategy::kNaive;
  } else if (strategy == VOptStrategy::kMonotone &&
             costs.kind() == CostKind::kSquared && !interior_uniform) {
    // Without a uniform interior grid the reciprocal table cannot be
    // indexed; honoring the request would fall back cell-by-cell anyway.
    strategy = VOptStrategy::kNaive;
  }
  const bool monotone = strategy == VOptStrategy::kMonotone;
  const bool monotone_squared =
      monotone && costs.kind() == CostKind::kSquared;

  obs::ScopedTimer solve_timer("vopt/solve");
  static obs::Counter& solves =
      obs::Registry::Global().GetCounter("vopt/solves");
  static obs::Counter& strategy_naive =
      obs::Registry::Global().GetCounter("vopt/strategy/naive");
  static obs::Counter& strategy_monotone =
      obs::Registry::Global().GetCounter("vopt/strategy/monotone");
  solves.Increment();
  (monotone ? strategy_monotone : strategy_naive).Increment();

  VOptSolver solver;
  solver.max_buckets_ = cap;
  solver.num_candidates_ = m;
  solver.domain_size_ = costs.domain_size();
  solver.positions_ = positions;
  const std::size_t width = m + 1;
  solver.table_.assign((cap + 1) * width, kInfinity);
  solver.parent_.assign((cap + 1) * width, -1);

  // Work accounting: actual counts accumulated where the work happens (a
  // closed-form triangle is wrong for the monotone path, and even the
  // naive count must reflect predecessors skipped before their lookup),
  // summed per chunk so the totals stay bit-identical at any thread
  // count. The base row performs exactly m lookups.
  std::atomic<std::uint64_t> total_lookups{static_cast<std::uint64_t>(m)};
  std::atomic<std::uint64_t> total_scans{0};

  {
    // Base row: one bucket covering the prefix.
    obs::ScopedTimer base_timer("base_row");  // -> vopt/solve/base_row
    for (std::size_t i = 1; i <= m; ++i) {
      solver.table_[1 * width + i] = costs.CostBetween(0, i);
      solver.parent_[1 * width + i] = 0;
    }
  }

  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  const bool parallel_rows =
      pool.thread_count() > 1 && m >= options.min_parallel_candidates;

  // Per-solve tables for the monotone path. csum/csq gather the unit-bin
  // prefix tables at the candidate positions so the kernels stream them
  // contiguously; rrev holds inflated reciprocals addressed by
  // rr = rrev + (m - i), making rr[j] the reciprocal of length (i - j), and
  // end_rr deals them into kBoundBlock lanes for the block bounds.
  // col_min holds the absolute path's exact column minima over aligned
  // blocks (one O(m^2) read of the triangle).
  std::vector<double> csum, csq, rrev, end_rr, suffmin, block_min, end_sum,
      end_sq, col_min;
  const std::size_t blocks_per_row = m / kBoundBlock + 1;
  double slack = 0.0;
  if (monotone_squared) {
    const std::vector<double>& sums = costs.prefix_sums();
    const std::vector<double>& squares = costs.prefix_squares();
    csum.resize(m + 1);
    csq.resize(m + 1);
    for (std::size_t j = 0; j <= m; ++j) {
      csum[j] = sums[positions[j]];
      csq[j] = squares[positions[j]];
    }
    rrev.assign(m + 1, 0.0);
    for (std::size_t d = 1; d <= m; ++d) {
      rrev[m - d] =
          (1.0 / (static_cast<double>(d) * static_cast<double>(grid))) *
          vopt_kernel::kReciprocalInflate;
    }
    end_rr.assign(kBoundBlock * blocks_per_row, 0.0);
    for (std::size_t x = 0; x <= m; ++x) {
      end_rr[(x % kBoundBlock) * blocks_per_row + x / kBoundBlock] = rrev[x];
    }
    slack = vopt_kernel::SquaredCostSlack(csq[m], costs.domain_size());
    end_sum.resize(blocks_per_row);
    end_sq.resize(blocks_per_row);
  } else if (monotone) {
    col_min = vopt_kernel::AbsoluteColumnBlockMinima(costs, kBoundBlock);
  }
  if (monotone) {
    suffmin.resize(m + 1);
    block_min.resize(blocks_per_row);
  }

  obs::ScopedTimer rows_timer("dp_rows");  // -> vopt/solve/dp_rows
  for (std::size_t k = 2; k <= cap; ++k) {
    const double* prev = &solver.table_[(k - 1) * width];
    double* curr = &solver.table_[k * width];
    std::int32_t* par = &solver.parent_[k * width];
    if (monotone) {
      // Suffix minima of the previous row over the candidate range: the
      // floor under every candidate a cell has left to scan. Computed
      // once per row by the submitting thread, read-only in the chunks.
      suffmin[m] = prev[m];
      for (std::size_t j = m; j-- > k - 1;) {
        suffmin[j] = std::min(prev[j], suffmin[j + 1]);
      }
    }
    if (monotone_squared) {
      // The row's block-end tables over the candidate range [k-1, m), in
      // blocks anchored at k-1 like every cell's walk: the prev floor of
      // each block bound, and csum/csq at each full block's last
      // candidate. Built alongside suffmin.
      std::size_t q = 0;
      for (std::size_t b0 = k - 1; b0 < m; b0 += kBoundBlock, ++q) {
        block_min[q] =
            *std::min_element(prev + b0, prev + std::min(m, b0 + kBoundBlock));
        if (b0 + kBoundBlock <= m) {
          end_sum[q] = csum[b0 + kBoundBlock - 1];
          end_sq[q] = csq[b0 + kBoundBlock - 1];
        }
      }
    } else if (monotone) {
      // The absolute path's blocks are aligned to multiples of kBoundBlock
      // instead, matching the per-solve column minima; the first block is
      // clipped to start at k-1.
      for (std::size_t q = (k - 1) / kBoundBlock; q * kBoundBlock < m; ++q) {
        block_min[q] = *std::min_element(
            prev + std::max(k - 1, q * kBoundBlock),
            prev + std::min(m, (q + 1) * kBoundBlock));
      }
    }
    // Cells the squared kernel covers; when the domain end is not
    // grid-aligned the final cell's last interval has an off-grid length,
    // so that one cell per row takes the naive scan instead.
    const std::size_t fast_end =
        monotone_squared && !endpoint_uniform ? m : m + 1;
    // Each cell i reads only the finished row k-1 and writes only its own
    // slots, so the row fans out with no synchronization; the chunk
    // barrier between rows provides the k-1 -> k dependency.
    auto fill_range = [&](std::size_t begin, std::size_t end) {
      std::uint64_t lookups = 0;
      std::uint64_t scans = 0;
      if (monotone_squared) {
        const SquaredBoundTables tables{csum.data(),
                                        csq.data(),
                                        rrev.data(),
                                        end_rr.data(),
                                        blocks_per_row,
                                        suffmin.data(),
                                        block_min.data(),
                                        end_sum.data(),
                                        end_sq.data(),
                                        &solver.parent_[(k - 1) * width],
                                        slack,
                                        grid,
                                        m};
        std::vector<double> bounds(blocks_per_row);
        MonotoneSquaredCells(costs, tables, prev, curr, par, k, begin, end,
                             bounds.data(), &lookups, &scans);
      } else if (monotone) {
        const AbsoluteBoundTables tables{suffmin.data(), block_min.data(),
                                         col_min.data(), blocks_per_row,
                                         &solver.parent_[(k - 1) * width]};
        MonotoneAbsoluteCells(costs, tables, prev, curr, par, k, begin, end,
                              &lookups, &scans);
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          lookups += NaiveCell(costs, prev, curr, par, k, i);
        }
      }
      total_lookups.fetch_add(lookups, std::memory_order_relaxed);
      total_scans.fetch_add(scans, std::memory_order_relaxed);
    };
    if (parallel_rows) {
      pool.ParallelForChunks(k, fast_end, kRowMinChunk, fill_range);
    } else {
      fill_range(k, fast_end);
    }
    if (fast_end == m) {
      total_lookups.fetch_add(NaiveCell(costs, prev, curr, par, k, m),
                              std::memory_order_relaxed);
    }
  }

  solver.stats_.strategy = strategy;
  solver.stats_.rows = cap;
  std::uint64_t cell_count = m;  // base row
  for (std::size_t k = 2; k <= cap; ++k) {
    cell_count += m - k + 1;
  }
  solver.stats_.cells = cell_count;
  solver.stats_.cost_lookups =
      total_lookups.load(std::memory_order_relaxed);
  solver.stats_.bound_scans = total_scans.load(std::memory_order_relaxed);

  if (obs::Enabled()) {
    static obs::Counter& rows =
        obs::Registry::Global().GetCounter("vopt/rows");
    static obs::Counter& cells =
        obs::Registry::Global().GetCounter("vopt/cells");
    static obs::Counter& cost_lookups =
        obs::Registry::Global().GetCounter("vopt/cost_lookups");
    static obs::Counter& bound_scans =
        obs::Registry::Global().GetCounter("vopt/bound_scans");
    rows.Add(solver.stats_.rows);
    cells.Add(solver.stats_.cells);
    cost_lookups.Add(solver.stats_.cost_lookups);
    bound_scans.Add(solver.stats_.bound_scans);
  }
  return solver;
}

double VOptSolver::PrefixCost(std::size_t k, std::size_t i) const {
  if (k == 0 || k > max_buckets_ || i > num_candidates_ || i < k) {
    return kInfinity;
  }
  return table_[k * (num_candidates_ + 1) + i];
}

std::int32_t VOptSolver::PrefixParent(std::size_t k, std::size_t i) const {
  if (k == 0 || k > max_buckets_ || i > num_candidates_ || i < k) {
    return -1;
  }
  return parent_[k * (num_candidates_ + 1) + i];
}

Result<Bucketization> VOptSolver::Traceback(std::size_t k) const {
  if (k == 0 || k > max_buckets_) {
    return Status::InvalidArgument("Traceback: k out of range");
  }
  const std::size_t width = num_candidates_ + 1;
  std::vector<std::size_t> cuts;
  cuts.reserve(k - 1);
  std::size_t i = num_candidates_;
  for (std::size_t level = k; level > 1; --level) {
    const std::int32_t j = parent_[level * width + i];
    if (j <= 0) {
      return Status::Internal("Traceback: corrupt parent table");
    }
    cuts.push_back(positions_[static_cast<std::size_t>(j)]);
    i = static_cast<std::size_t>(j);
  }
  std::reverse(cuts.begin(), cuts.end());
  return Bucketization::FromCuts(domain_size_, std::move(cuts));
}

}  // namespace dphist
