// Randomized equivalence suite for the monotone v-opt row solver
// (DESIGN §7). The contract under test is bitwise: for every histogram,
// cost kind, grid step, and bucket count, kMonotone must produce the
// exact table_ and parent_ arrays kNaive produces — same doubles, same
// leftmost-argmin tie-breaking — at any thread count. The adversarial
// cases are tie plateaus (constant and piecewise-constant counts), where
// a single mis-ordered comparison in the pruning rules would silently
// move a published cut. The capped squared-cost inputs add the exact
// cold-publish solve shape and the inputs that stress the O(1) block bound
// (cancellation, sign-alternating magnitudes, isolated spikes, an
// off-grid endpoint), direct property tests certify the block bounds and
// the candidate masks on every row, cell and block of those solves, and a
// battery covers the cold solve across epsilons, seeds, grid steps and a
// larger domain. The capped absolute-cost inputs do the same for
// StructureFirst's solve: the exact herd solve shape, the column block
// minima against brute force, and the aligned block bound replayed over
// finished naive tables.

#include "dphist/hist/vopt_dp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/thread_pool.h"
#include "dphist/data/generators.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_kernel.h"
#include "dphist/random/distributions.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> UniformCounts(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counts(n);
  for (double& c : counts) {
    c = static_cast<double>(SampleUniformInt(rng, 0, 1000));
  }
  return counts;
}

std::vector<double> NoisyCounts(std::size_t n, std::uint64_t seed) {
  // Laplace-perturbed counts, as NoiseFirst feeds the solver: negative
  // values and irrational doubles included.
  Rng rng(seed);
  std::vector<double> counts(n);
  for (double& c : counts) {
    c = static_cast<double>(SampleUniformInt(rng, 0, 50)) +
        SampleLaplace(rng, 2.0);
  }
  return counts;
}

std::vector<double> PiecewiseConstantCounts(std::size_t n,
                                            std::uint64_t seed) {
  // Constant runs of random length/level: massive cost-tie plateaus, with
  // zero-cost intervals inside every run.
  Rng rng(seed);
  std::vector<double> counts;
  counts.reserve(n);
  while (counts.size() < n) {
    const double level = static_cast<double>(SampleUniformInt(rng, 0, 5));
    const std::size_t run =
        static_cast<std::size_t>(SampleUniformInt(rng, 1, 12));
    for (std::size_t i = 0; i < run && counts.size() < n; ++i) {
      counts.push_back(level);
    }
  }
  return counts;
}

std::vector<double> ColdShapeCounts(std::size_t n = 1024,
                                    double epsilon = 0.1,
                                    std::uint64_t seed = 5) {
  // The cold_publish solve: the network-trace histogram (n = 1024 there)
  // plus the Laplace noise NoiseFirst adds (scale 1/epsilon, epsilon = 0.1
  // there).
  std::vector<double> counts = MakeNetTrace(n, 42).histogram.counts();
  Rng rng(seed);
  for (double& c : counts) {
    c += SampleLaplace(rng, 1.0 / epsilon);
  }
  return counts;
}

std::vector<double> CancellationCounts(std::size_t n, std::uint64_t seed) {
  // 1e8 plus small integers: the squares near 1e16 make csq[m], and with
  // it the slack, far larger than any SSE here, and the costs of small
  // intervals come out of cancelling differences. No block bound can
  // prune; the per-candidate bounds and skip rules must still give a
  // bit-identical table.
  Rng rng(seed);
  std::vector<double> counts(n);
  for (double& c : counts) {
    c = 1e8 + static_cast<double>(SampleUniformInt(rng, 0, 9));
  }
  return counts;
}

std::vector<double> LargeHeadCounts(std::size_t n, std::uint64_t seed) {
  // A few bins at 1e8 ahead of small integers: every later prefix of
  // squares sits near 4e16, where one ulp is 8, so the costs of the small
  // intervals after the head are rounding-quantized and no longer grow
  // monotonically as their start moves left. The inflated reciprocal adds
  // no margin there (the local means are small), so only the slack keeps
  // the block bound certified.
  Rng rng(seed);
  std::vector<double> counts(n);
  for (std::size_t t = 0; t < n; ++t) {
    counts[t] = static_cast<double>(SampleUniformInt(rng, 0, 9)) +
                (t < 4 ? 1e8 : 0.0);
  }
  return counts;
}

std::vector<double> AlternatingCounts(std::size_t n, std::uint64_t seed) {
  // Values alternating around +-1e6: huge squares, prefix sums that swing
  // back to near zero, and interval costs dominated by the swing.
  Rng rng(seed);
  std::vector<double> counts(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double jitter = static_cast<double>(SampleUniformInt(rng, 0, 1000));
    counts[t] = (t % 2 == 0 ? 1e6 : -1e6) + jitter;
  }
  return counts;
}

std::vector<double> SpikeCounts(std::size_t n, std::uint64_t seed) {
  // Isolated spikes up to 5e4 on a zero background: long zero-cost runs
  // between very expensive ones, so whole blocks are dismissed by their
  // O(1) bound and the row minimum hides in few places.
  Rng rng(seed);
  std::vector<double> counts(n, 0.0);
  for (double& c : counts) {
    if (SampleUniformInt(rng, 0, 39) == 0) {
      c = static_cast<double>(SampleUniformInt(rng, 1, 50000));
    }
  }
  return counts;
}

std::vector<double> HerdShapeCounts() {
  // The herd solve: StructureFirst scores the true network-trace counts
  // at n = 1024 (no noise before the structure is chosen).
  return MakeNetTrace(1024, 42).histogram.counts();
}

// Solves with an explicit strategy/pool and bucket cap (0 = the full
// table: every k up to m), min_parallel_candidates = 1 so a multi-thread
// pool genuinely parallelizes even tiny rows.
VOptSolver SolveWith(const IntervalCostTable& costs, VOptStrategy strategy,
                     ThreadPool* pool, std::size_t max_buckets = 0) {
  VOptSolver::SolveOptions options;
  options.strategy = strategy;
  options.pool = pool;
  options.min_parallel_candidates = 1;
  auto solver = VOptSolver::Solve(costs, max_buckets, options);
  EXPECT_TRUE(solver.ok()) << solver.status().message();
  return solver.value();
}

void ExpectBitIdentical(const VOptSolver& naive, const VOptSolver& monotone,
                        const std::string& label) {
  ASSERT_EQ(naive.max_buckets(), monotone.max_buckets()) << label;
  ASSERT_EQ(naive.num_candidates(), monotone.num_candidates()) << label;
  const std::size_t m = naive.num_candidates();
  for (std::size_t k = 1; k <= naive.max_buckets(); ++k) {
    for (std::size_t i = k; i <= m; ++i) {
      // EXPECT_EQ on doubles is exact — bit-identical values, not close.
      EXPECT_EQ(naive.PrefixCost(k, i), monotone.PrefixCost(k, i))
          << label << " T[" << k << "][" << i << "]";
      EXPECT_EQ(naive.PrefixParent(k, i), monotone.PrefixParent(k, i))
          << label << " parent[" << k << "][" << i << "]";
    }
    auto expected = naive.Traceback(k);
    auto actual = monotone.Traceback(k);
    ASSERT_EQ(expected.ok(), actual.ok()) << label << " k=" << k;
    if (expected.ok()) {
      EXPECT_EQ(expected.value().cuts(), actual.value().cuts())
          << label << " k=" << k;
    }
  }
}

// Naive vs monotone at pool widths 1 and 4, bitwise. The naive reference
// runs sequentially unless `parallel_naive` asks for the 4-wide pool (its
// table is bit-identical at any width, vopt_dp_test), which the largest
// solves use to save time.
void CheckEquivalent(const IntervalCostTable& costs, std::size_t max_buckets,
                     const std::string& label, bool parallel_naive = false) {
  ThreadPool sequential(1);
  ThreadPool parallel(4);
  const VOptSolver naive =
      SolveWith(costs, VOptStrategy::kNaive,
                parallel_naive ? &parallel : &sequential, max_buckets);
  EXPECT_EQ(naive.stats().strategy, VOptStrategy::kNaive);
  EXPECT_EQ(naive.stats().bound_scans, 0u);
  const VOptSolver mono_seq =
      SolveWith(costs, VOptStrategy::kMonotone, &sequential, max_buckets);
  EXPECT_EQ(mono_seq.stats().strategy, VOptStrategy::kMonotone);
  ExpectBitIdentical(naive, mono_seq, label + "/threads1");
  const VOptSolver mono_par =
      SolveWith(costs, VOptStrategy::kMonotone, &parallel, max_buckets);
  ExpectBitIdentical(naive, mono_par, label + "/threads4");
  // The monotone work counters are part of the determinism contract:
  // identical at any thread count (chunking never changes which
  // candidates a cell scans or evaluates).
  EXPECT_EQ(mono_seq.stats().cost_lookups, mono_par.stats().cost_lookups)
      << label;
  EXPECT_EQ(mono_seq.stats().bound_scans, mono_par.stats().bound_scans)
      << label;
}

// The full cross-product: both cost kinds and grid steps 1 and 3, full
// tables.
void CheckAllConfigs(const std::vector<double>& counts,
                     const std::string& data_label) {
  for (const CostKind kind : {CostKind::kSquared, CostKind::kAbsolute}) {
    for (const std::size_t grid_step : {std::size_t{1}, std::size_t{3}}) {
      IntervalCostTable::Options options;
      options.kind = kind;
      options.grid_step = grid_step;
      auto costs = IntervalCostTable::Create(counts, options);
      ASSERT_TRUE(costs.ok());
      CheckEquivalent(costs.value(), 0,
                      data_label + "/" + CostKindName(kind) + "/grid" +
                          std::to_string(grid_step));
    }
  }
}

IntervalCostTable MakeCosts(const std::vector<double>& counts, CostKind kind,
                            std::size_t grid_step) {
  IntervalCostTable::Options options;
  options.kind = kind;
  options.grid_step = grid_step;
  auto costs = IntervalCostTable::Create(counts, options);
  EXPECT_TRUE(costs.ok());
  return std::move(costs).value();
}

IntervalCostTable SquaredCosts(const std::vector<double>& counts,
                               std::size_t grid_step) {
  return MakeCosts(counts, CostKind::kSquared, grid_step);
}

IntervalCostTable AbsoluteCosts(const std::vector<double>& counts,
                                std::size_t grid_step) {
  return MakeCosts(counts, CostKind::kAbsolute, grid_step);
}

struct CappedInput {
  std::string label;
  std::vector<double> counts;
  std::size_t grid_step;
  std::size_t max_buckets;
};

std::vector<CappedInput> CappedInputs() {
  return {
      {"cold_shape", ColdShapeCounts(), 1, 256},
      {"cancellation", CancellationCounts(300, 11), 1, 64},
      {"large_head", LargeHeadCounts(300, 15), 1, 64},
      {"alternating", AlternatingCounts(300, 12), 1, 64},
      {"spikes", SpikeCounts(700, 13), 1, 96},
      // n = 601 is not a multiple of 3: the final cell of every row takes
      // the naive scan, every other cell the block bounds.
      {"grid3_offgrid_end", NoisyCounts(601, 14), 3, 64},
  };
}

std::vector<CappedInput> CappedAbsoluteInputs() {
  return {
      {"herd_shape", HerdShapeCounts(), 1, 128},
      {"nettrace_n300", MakeNetTrace(300, 42).histogram.counts(), 1, 32},
      {"spikes", SpikeCounts(700, 13), 1, 96},
      {"cancellation", CancellationCounts(300, 11), 1, 64},
      {"piecewise", PiecewiseConstantCounts(400, 4400), 1, 64},
      // n = 601 is not a multiple of 3: the final candidate's intervals
      // are one bin shorter than the grid.
      {"grid3_offgrid_end", NoisyCounts(601, 14), 3, 64},
  };
}

// The squared path's per-solve tables, rebuilt as the solver builds them:
// the prefix tables gathered at the candidates, the inflated reciprocals
// rrev[m - d] of each length d, dealt into 64 lanes so one cell's block
// ends are contiguous, and the slack.
struct SquaredReplay {
  explicit SquaredReplay(const IntervalCostTable& costs)
      : m(costs.num_candidates()),
        stride(m / 64 + 1),
        csum(m + 1),
        csq(m + 1),
        rrev(m + 1, 0.0),
        end_rr(64 * stride, 0.0) {
    const std::size_t grid = costs.grid_step();
    const std::vector<std::size_t>& positions = costs.positions();
    for (std::size_t j = 0; j <= m; ++j) {
      csum[j] = costs.prefix_sums()[positions[j]];
      csq[j] = costs.prefix_squares()[positions[j]];
    }
    for (std::size_t d = 1; d <= m; ++d) {
      rrev[m - d] =
          (1.0 / (static_cast<double>(d) * static_cast<double>(grid))) *
          vopt_kernel::kReciprocalInflate;
    }
    for (std::size_t x = 0; x <= m; ++x) {
      end_rr[(x % 64) * stride + x / 64] = rrev[x];
    }
    slack = vopt_kernel::SquaredCostSlack(csq[m], costs.domain_size());
    // The off-grid final cell is solved naively, never with the kernels.
    bound_end = positions[m] == m * grid ? m + 1 : m;
  }

  std::size_t m;
  std::size_t stride;
  std::vector<double> csum, csq, rrev, end_rr;
  double slack = 0.0;
  std::size_t bound_end = 0;
};

// Replays the solver's block bounds over a finished naive table and checks
// vopt_kernel::SquaredBlockBounds directly: for every row k and cell i it
// computes the cell's bounds in one pass over the full 64-candidate blocks
// (anchored at k-1, with the block-end prefix tables and the dealt
// reciprocals the solver uses) and one call for a partial last block, and
// no bound may exceed its block's minimum of prev[j] + CostBetween(j, i).
// The prev floor passed in is the exact minimum over the candidates the
// block covers — the largest floor the solver can ever pass (it may use a
// minimum over a superset), so this is the strictest form of the check.
// The bitwise battery only notices a too-small slack when a skipped block
// held the argmin; this catches any violation.
void CheckBlockBoundCertified(const CappedInput& input) {
  ThreadPool sequential(1);
  const IntervalCostTable costs = SquaredCosts(input.counts, input.grid_step);
  const VOptSolver naive = SolveWith(costs, VOptStrategy::kNaive, &sequential,
                                     input.max_buckets);
  const SquaredReplay r(costs);
  const std::size_t m = r.m;

  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::vector<double> prev(m + 1);
  std::vector<double> pmin(r.stride), end_sum(r.stride), end_sq(r.stride);
  std::vector<double> cand_min(r.stride), bounds(r.stride);
  for (std::size_t k = 2; k <= naive.max_buckets(); ++k) {
    const std::size_t base = k - 1;
    for (std::size_t j = 0; j <= m; ++j) {
      prev[j] = naive.PrefixCost(k - 1, j);
    }
    for (std::size_t i = k; i < r.bound_end; ++i) {
      const double* rr = r.rrev.data() + (m - i);
      const std::size_t full = (i - base) / 64;
      const std::size_t blocks = (i - base + 63) / 64;
      for (std::size_t q = 0; q < blocks; ++q) {
        const std::size_t b0 = base + 64 * q;
        const std::size_t e = std::min(i, b0 + 64);
        pmin[q] = kInf;
        cand_min[q] = kInf;
        for (std::size_t j = b0; j < e; ++j) {
          pmin[q] = std::min(pmin[q], prev[j]);
          cand_min[q] =
              std::min(cand_min[q], prev[j] + costs.CostBetween(j, i));
        }
        if (q < full) {
          end_sum[q] = r.csum[e - 1];
          end_sq[q] = r.csq[e - 1];
        }
      }
      if (full > 0) {
        const std::size_t x = m - i + base + 63;
        vopt_kernel::SquaredBlockBounds(
            pmin.data(), end_sum.data(), end_sq.data(),
            r.end_rr.data() + (x % 64) * r.stride + x / 64, r.csum[i],
            r.csq[i], r.slack, full, bounds.data());
      }
      if (blocks > full) {
        vopt_kernel::SquaredBlockBounds(
            pmin.data() + full, r.csum.data() + (i - 1),
            r.csq.data() + (i - 1), rr + (i - 1), r.csum[i], r.csq[i],
            r.slack, 1, bounds.data() + full);
      }
      for (std::size_t q = 0; q < blocks; ++q) {
        ++checks;
        if (bounds[q] > cand_min[q] && violations++ == 0) {
          first_violation = "k=" + std::to_string(k) + " i=" +
                            std::to_string(i) + " block " + std::to_string(q) +
                            ": bound " + std::to_string(bounds[q]) + " > " +
                            std::to_string(cand_min[q]);
        }
      }
    }
  }
  EXPECT_GT(checks, 0u) << input.label;
  EXPECT_EQ(violations, 0u) << input.label << ": " << violations << " of "
                            << checks << " block bounds exceed their block "
                            << "minimum; first at " << first_violation;
}

// Replays the solver's candidate masks over a finished naive table: for
// every row k, cell i and 64-candidate block anchored at k-1 (the cell's
// last block partial), vopt_kernel::SquaredCandidateMask runs at three
// thresholds — the cell's optimum T[k][i], where the solver's ub ends, and
// the block's smallest and largest exact candidates. Every bound it writes
// must be at most its exact candidate prev[j] + CostBetween(j, i), every
// candidate whose exact value is at most the threshold must have its bit,
// and no bit may lie past the block's end.
void CheckCandidateMaskCertified(const CappedInput& input) {
  ThreadPool sequential(1);
  const IntervalCostTable costs = SquaredCosts(input.counts, input.grid_step);
  const VOptSolver naive = SolveWith(costs, VOptStrategy::kNaive, &sequential,
                                     input.max_buckets);
  const SquaredReplay r(costs);
  const std::size_t m = r.m;

  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  auto fail = [&](std::size_t k, std::size_t i, std::size_t j,
                  const std::string& what) {
    if (violations++ == 0) {
      first_violation = "k=" + std::to_string(k) + " i=" + std::to_string(i) +
                        " j=" + std::to_string(j) + ": " + what;
    }
  };
  std::vector<double> prev(m + 1);
  double exact[64];
  double lb[64];
  for (std::size_t k = 2; k <= naive.max_buckets(); ++k) {
    for (std::size_t j = 0; j <= m; ++j) {
      prev[j] = naive.PrefixCost(k - 1, j);
    }
    for (std::size_t i = k; i < r.bound_end; ++i) {
      const double* rr = r.rrev.data() + (m - i);
      for (std::size_t b0 = k - 1; b0 < i; b0 += 64) {
        const std::size_t e = std::min(i, b0 + 64);
        double lo = kInf;
        double hi = -kInf;
        for (std::size_t j = b0; j < e; ++j) {
          exact[j - b0] = prev[j] + costs.CostBetween(j, i);
          lo = std::min(lo, exact[j - b0]);
          hi = std::max(hi, exact[j - b0]);
        }
        for (const double ub : {naive.PrefixCost(k, i), lo, hi}) {
          const std::uint64_t mask = vopt_kernel::SquaredCandidateMask(
              prev.data(), r.csum.data(), r.csq.data(), rr, r.csum[i],
              r.csq[i], ub, b0, e, lb);
          ++checks;
          if (e - b0 < 64 && (mask >> (e - b0)) != 0) {
            fail(k, i, e, "mask bit past the block's end");
          }
          for (std::size_t j = b0; j < e; ++j) {
            const std::size_t o = j - b0;
            if (lb[o] > exact[o]) {
              fail(k, i, j,
                   "bound " + std::to_string(lb[o]) + " > exact " +
                       std::to_string(exact[o]));
            }
            if (exact[o] <= ub && ((mask >> o) & 1) == 0) {
              fail(k, i, j,
                   "exact " + std::to_string(exact[o]) + " <= ub " +
                       std::to_string(ub) + " but its bit is clear");
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 0u) << input.label;
  EXPECT_EQ(violations, 0u) << input.label << ": " << violations
                            << " mask violations in " << checks
                            << " kernel calls; first at " << first_violation;
}

// The absolute-cost analogue of CheckBlockBoundCertified: replays the
// aligned block walk over a finished naive table and checks, for every row
// k, cell i and aligned 64-candidate block, that the solver's bound — the
// previous row's minimum over the whole aligned block (clipped at k-1)
// plus the column's minimum from vopt_kernel::AbsoluteColumnBlockMinima —
// never exceeds the minimum of prev[j] + CostBetween(j, i) over the block's
// candidates in the cell's range.
void CheckAbsoluteBlockBoundCertified(const CappedInput& input) {
  constexpr std::size_t kBlock = 64;
  ThreadPool sequential(1);
  const IntervalCostTable costs = AbsoluteCosts(input.counts, input.grid_step);
  const VOptSolver naive = SolveWith(costs, VOptStrategy::kNaive, &sequential,
                                     input.max_buckets);
  const std::size_t m = costs.num_candidates();
  const std::size_t stride = m / kBlock + 1;
  const std::vector<double> col_min =
      vopt_kernel::AbsoluteColumnBlockMinima(costs, kBlock);

  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::vector<double> prev(m + 1);
  for (std::size_t k = 2; k <= naive.max_buckets(); ++k) {
    for (std::size_t j = 0; j <= m; ++j) {
      prev[j] = naive.PrefixCost(k - 1, j);
    }
    for (std::size_t i = k; i <= m; ++i) {
      for (std::size_t q = (k - 1) / kBlock; q * kBlock < i; ++q) {
        // The aligned block, clipped at k-1; the candidates stop at i.
        const std::size_t b0 = std::max(k - 1, q * kBlock);
        const std::size_t b1 = std::min(m, (q + 1) * kBlock);
        double prev_min = kInf;
        double cand_min = kInf;
        for (std::size_t j = b0; j < b1; ++j) {
          prev_min = std::min(prev_min, prev[j]);
          if (j < i) {
            cand_min = std::min(cand_min, prev[j] + costs.CostBetween(j, i));
          }
        }
        const double bound = prev_min + col_min[i * stride + q];
        ++checks;
        if (bound > cand_min && violations++ == 0) {
          first_violation = "k=" + std::to_string(k) + " i=" +
                            std::to_string(i) + " q=" + std::to_string(q);
        }
      }
    }
  }
  EXPECT_GT(checks, 0u) << input.label;
  EXPECT_EQ(violations, 0u) << input.label << ": " << violations << " of "
                            << checks << " block bounds exceed their block "
                            << "minimum; first at " << first_violation;
}

TEST(VOptMonotoneTest, CappedAbsoluteInputsBitIdentical) {
  for (const CappedInput& input : CappedAbsoluteInputs()) {
    CheckEquivalent(AbsoluteCosts(input.counts, input.grid_step),
                    input.max_buckets, input.label);
  }
}

TEST(VOptMonotoneTest, AbsoluteFullTablesAroundBlockBoundaries) {
  // Full tables (every k up to m) whose rows start on both sides of a
  // 64-candidate block boundary, so the clipped first block, a row that
  // starts exactly on a boundary, and a cell whose range ends one past a
  // boundary all occur.
  for (const std::size_t m :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{127},
        std::size_t{128}, std::size_t{129}}) {
    CheckEquivalent(AbsoluteCosts(NoisyCounts(m, 5000 + m), 1), 0,
                    "noisy/m" + std::to_string(m));
    CheckEquivalent(AbsoluteCosts(PiecewiseConstantCounts(m, 6000 + m), 1), 0,
                    "piecewise/m" + std::to_string(m));
  }
}

TEST(VOptMonotoneTest, AbsoluteColumnBlockMinimaMatchBruteForce) {
  // Every column and every aligned block, including each column's
  // partial last block, against a direct scan of CostBetween.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{129}, std::size_t{300}}) {
    for (const std::size_t grid_step : {std::size_t{1}, std::size_t{3}}) {
      const IntervalCostTable costs =
          AbsoluteCosts(NoisyCounts(n, 7000 + n), grid_step);
      const std::size_t m = costs.num_candidates();
      for (const std::size_t block : {std::size_t{8}, std::size_t{64}}) {
        const std::string label = "noisy/n" + std::to_string(n) + "/grid" +
                                  std::to_string(grid_step) + "/block" +
                                  std::to_string(block);
        const std::size_t stride = m / block + 1;
        const std::vector<double> col_min =
            vopt_kernel::AbsoluteColumnBlockMinima(costs, block);
        ASSERT_EQ(col_min.size(), (m + 1) * stride) << label;
        for (std::size_t i = 1; i <= m; ++i) {
          for (std::size_t q = 0; q * block < i; ++q) {
            const std::size_t e = std::min(i, (q + 1) * block);
            double expected = kInf;
            for (std::size_t j = q * block; j < e; ++j) {
              expected = std::min(expected, costs.CostBetween(j, i));
            }
            EXPECT_EQ(col_min[i * stride + q], expected)
                << label << " column " << i << " block " << q;
          }
        }
      }
    }
  }
}

// The first-match kernel against a scalar scan, at every block length
// from 1 to 65 so each vector width's remainder loop runs: the leftmost of
// several tied sums (some tied through different operands), a match at b0
// only, at e - 1 only, and no match, which returns e.
TEST(VOptMonotoneTest, AbsoluteFirstMatchFindsLeftmostMatch) {
  constexpr std::size_t kB0 = 3;
  const double bmin = 1.5;
  for (std::size_t length = 1; length <= 65; ++length) {
    const std::size_t e = kB0 + length;
    // Every sum differs from bmin unless a case below plants a match.
    std::vector<double> prev(e + 2);
    std::vector<double> col(e + 2);
    for (std::size_t j = 0; j < prev.size(); ++j) {
      prev[j] = 2.0 + static_cast<double>(j) * 0.25;
      col[j] = 0.75;
    }
    auto scalar_first = [&](const std::vector<double>& p,
                            const std::vector<double>& c) {
      std::size_t j = kB0;
      while (j < e && p[j] + c[j] != bmin) {
        ++j;
      }
      return j;
    };
    const std::string label = "length " + std::to_string(length);
    EXPECT_EQ(vopt_kernel::AbsoluteFirstMatch(prev.data(), col.data(), kB0,
                                              e, bmin),
              e)
        << label << ": no match";
    // Matches outside [b0, e) must be ignored.
    std::vector<double> outside_prev = prev;
    outside_prev[kB0 - 1] = 0.75;
    outside_prev[e] = 0.75;
    EXPECT_EQ(vopt_kernel::AbsoluteFirstMatch(outside_prev.data(), col.data(),
                                              kB0, e, bmin),
              e)
        << label << ": matches outside the block";
    for (const std::size_t at : {kB0, e - 1}) {
      std::vector<double> p = prev;
      p[at] = 0.75;
      EXPECT_EQ(
          vopt_kernel::AbsoluteFirstMatch(p.data(), col.data(), kB0, e, bmin),
          at)
          << label << ": single match at " << at;
    }
    // Ties at several positions; the leftmost is planted at each offset in
    // turn, with later ties reached through swapped operands.
    for (std::size_t lead = kB0; lead < e; ++lead) {
      std::vector<double> p = prev;
      std::vector<double> c = col;
      p[lead] = 0.75;
      for (std::size_t j = lead + 1; j < e; j += 3) {
        p[j] = 1.0;
        c[j] = 0.5;
      }
      if (e - 1 > lead) {
        p[e - 1] = 0.5;
        c[e - 1] = 1.0;
      }
      const std::size_t got =
          vopt_kernel::AbsoluteFirstMatch(p.data(), c.data(), kB0, e, bmin);
      EXPECT_EQ(got, lead) << label << ": ties led at " << lead;
      EXPECT_EQ(got, scalar_first(p, c)) << label;
    }
  }
}

TEST(VOptMonotoneTest, AbsoluteBlockBoundNeverExceedsBlockMinimum) {
  for (const CappedInput& input : CappedAbsoluteInputs()) {
    CheckAbsoluteBlockBoundCertified(input);
  }
}

TEST(VOptMonotoneTest, HerdShapeSkipsMostBoundScans) {
  // On the herd solve the aligned block bound must dismiss most
  // candidates before the SIMD kernel reads them: kernel scans stay below
  // a quarter of the naive path's exact lookups. Without the block bound
  // the kernel reads nearly all of them.
  ThreadPool sequential(1);
  const IntervalCostTable costs = AbsoluteCosts(HerdShapeCounts(), 1);
  const VOptSolver naive =
      SolveWith(costs, VOptStrategy::kNaive, &sequential, 128);
  const VOptSolver mono =
      SolveWith(costs, VOptStrategy::kMonotone, &sequential, 128);
  EXPECT_LT(mono.stats().bound_scans, naive.stats().cost_lookups / 4);
}

TEST(VOptMonotoneTest, CappedSquaredInputsBitIdentical) {
  for (const CappedInput& input : CappedInputs()) {
    CheckEquivalent(SquaredCosts(input.counts, input.grid_step),
                    input.max_buckets, input.label);
  }
}

TEST(VOptMonotoneTest, BlockBoundNeverExceedsBlockMinimum) {
  for (const CappedInput& input : CappedInputs()) {
    CheckBlockBoundCertified(input);
  }
}

TEST(VOptMonotoneTest, CandidateMaskKeepsEveryCandidateAtOrBelowUb) {
  for (const CappedInput& input : CappedInputs()) {
    CheckCandidateMaskCertified(input);
  }
}

TEST(VOptMonotoneTest, ColdShapeBatteryBitIdentical) {
  // NoiseFirst's 256-bucket solve over the noisy network trace at every
  // epsilon the 36-CSV parent-vs-change set publishes, three noise seeds
  // each, on the unit grid and on grid step 3 (n = 1024 is not a multiple
  // of 3, so the final cell of every row takes the naive scan).
  for (const double epsilon : {0.01, 0.1, 1.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<double> counts = ColdShapeCounts(1024, epsilon, seed);
      for (const std::size_t grid_step : {std::size_t{1}, std::size_t{3}}) {
        CheckEquivalent(SquaredCosts(counts, grid_step), 256,
                        "cold/eps" + std::to_string(epsilon) + "/seed" +
                            std::to_string(seed) + "/grid" +
                            std::to_string(grid_step));
      }
    }
  }
  // A domain four times the cold one: 64 blocks per row.
  CheckEquivalent(SquaredCosts(ColdShapeCounts(4096, 0.1, 4), 1), 256,
                  "cold/n4096", /*parallel_naive=*/true);
}

TEST(VOptMonotoneTest, ColdShapeSkipsMostBoundScans) {
  // The block bound must dismiss most candidates before the SIMD kernel
  // reads them: on the cold_publish solve, kernel scans stay below a third
  // of the naive path's exact lookups. A per-candidate bound without block
  // skipping scans nearly all of them.
  ThreadPool sequential(1);
  const IntervalCostTable costs = SquaredCosts(ColdShapeCounts(), 1);
  const VOptSolver naive =
      SolveWith(costs, VOptStrategy::kNaive, &sequential, 256);
  const VOptSolver mono =
      SolveWith(costs, VOptStrategy::kMonotone, &sequential, 256);
  EXPECT_LT(mono.stats().bound_scans, naive.stats().cost_lookups / 3);
  EXPECT_LT(mono.stats().cost_lookups, naive.stats().cost_lookups / 10);
}

TEST(VOptMonotoneTest, UniformRandomCounts) {
  for (const std::size_t n :
       {std::size_t{31}, std::size_t{64}, std::size_t{65}, std::size_t{127},
        std::size_t{200}, std::size_t{300}}) {
    CheckAllConfigs(UniformCounts(n, 1000 + n), "uniform/n" +
                                                    std::to_string(n));
  }
}

TEST(VOptMonotoneTest, LaplaceNoisedCounts) {
  for (const std::size_t n :
       {std::size_t{33}, std::size_t{96}, std::size_t{129},
        std::size_t{257}}) {
    CheckAllConfigs(NoisyCounts(n, 2000 + n),
                    "noisy/n" + std::to_string(n));
  }
}

TEST(VOptMonotoneTest, TinyDomains) {
  // Below every tile/block/auto threshold: exercises the single-candidate
  // cells and the i = k edges.
  for (std::size_t n = 1; n <= 9; ++n) {
    CheckAllConfigs(UniformCounts(n, 3000 + n),
                    "tiny/n" + std::to_string(n));
  }
}

TEST(VOptMonotoneTest, ConstantCountsAdversarialTies) {
  // Every interval has zero cost: every candidate of every cell ties at
  // the row minimum, so any tie-unsafe skip rule changes parent_ here.
  CheckAllConfigs(std::vector<double>(150, 4.0), "constant/n150");
  CheckAllConfigs(std::vector<double>(64, 0.0), "zeros/n64");
}

TEST(VOptMonotoneTest, PiecewiseConstantAdversarialTies) {
  for (const std::size_t n : {std::size_t{80}, std::size_t{150},
                              std::size_t{288}}) {
    CheckAllConfigs(PiecewiseConstantCounts(n, 4000 + n),
                    "piecewise/n" + std::to_string(n));
  }
}

TEST(VOptMonotoneTest, MonotonePrunesLookups) {
  // Not just correct but *working*: on a sizable solve the monotone path
  // must evaluate a small fraction of the naive path's cost lookups.
  auto costs = IntervalCostTable::Create(UniformCounts(300, 7),
                                         IntervalCostTable::Options{});
  ASSERT_TRUE(costs.ok());
  ThreadPool sequential(1);
  const VOptSolver naive =
      SolveWith(costs.value(), VOptStrategy::kNaive, &sequential);
  const VOptSolver mono =
      SolveWith(costs.value(), VOptStrategy::kMonotone, &sequential);
  EXPECT_LT(mono.stats().cost_lookups, naive.stats().cost_lookups / 10);
  EXPECT_GT(mono.stats().bound_scans, 0u);
  EXPECT_EQ(naive.stats().cells, mono.stats().cells);
}

TEST(VOptMonotoneTest, AutoResolvesBySize) {
  auto large = IntervalCostTable::Create(UniformCounts(100, 8),
                                         IntervalCostTable::Options{});
  auto small = IntervalCostTable::Create(UniformCounts(8, 9),
                                         IntervalCostTable::Options{});
  ASSERT_TRUE(large.ok());
  ASSERT_TRUE(small.ok());
  auto resolved = [](const Result<VOptSolver>& solver) {
    return solver.value().stats().strategy;
  };
  // kAuto: monotone once rows are long enough to prune, naive below...
  EXPECT_EQ(resolved(VOptSolver::Solve(large.value(), 0)),
            VOptStrategy::kMonotone);
  EXPECT_EQ(resolved(VOptSolver::Solve(small.value(), 0)),
            VOptStrategy::kNaive);
  // ...and an explicit SolveOptions strategy is taken as given.
  VOptSolver::SolveOptions explicit_naive;
  explicit_naive.strategy = VOptStrategy::kNaive;
  EXPECT_EQ(
      resolved(VOptSolver::Solve(large.value(), 0, explicit_naive)),
      VOptStrategy::kNaive);
}

TEST(VOptMonotoneTest, StrategyNames) {
  EXPECT_STREQ(VOptStrategyName(VOptStrategy::kAuto), "auto");
  EXPECT_STREQ(VOptStrategyName(VOptStrategy::kNaive), "naive");
  EXPECT_STREQ(VOptStrategyName(VOptStrategy::kMonotone), "monotone");
}

}  // namespace
}  // namespace dphist
