// Experiment M1 — microbenchmarks of the mechanisms and transforms
// (google-benchmark). These are throughput sanity checks for the
// substrates, not paper figures.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dphist/common/binary_io.h"
#include "dphist/data/generators.h"
#include "dphist/hist/fenwick.h"
#include "dphist/obs/export.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/net/wire_codec.h"
#include "dphist/privacy/budget.h"
#include "dphist/privacy/exponential_mechanism.h"
#include "dphist/random/distributions.h"
#include "dphist/random/noise_batch.h"
#include "dphist/random/rng.h"
#include "dphist/sparse/sparse_histogram.h"
#include "dphist/transform/haar_wavelet.h"
#include "dphist/transform/interval_tree.h"

namespace {

std::vector<double> RandomCounts(std::size_t n) {
  dphist::Rng rng(1);
  std::vector<double> counts(n);
  for (double& c : counts) {
    c = static_cast<double>(dphist::SampleUniformInt(rng, 0, 1000));
  }
  return counts;
}

void BM_SampleLaplace(benchmark::State& state) {
  dphist::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dphist::SampleLaplace(rng, 1.0));
  }
}
BENCHMARK(BM_SampleLaplace);

void BM_SampleTwoSidedGeometric(benchmark::State& state) {
  dphist::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dphist::SampleTwoSidedGeometric(rng, 0.9));
  }
}
BENCHMARK(BM_SampleTwoSidedGeometric);

void BM_ExponentialMechanismSelect(benchmark::State& state) {
  const std::size_t candidates = static_cast<std::size_t>(state.range(0));
  auto em = dphist::ExponentialMechanism::Create(0.1, 2.0);
  dphist::Rng rng(4);
  std::vector<double> utilities(candidates);
  for (std::size_t i = 0; i < candidates; ++i) {
    utilities[i] = -static_cast<double>(i % 97);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.value().Select(utilities, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_ExponentialMechanismSelect)->Arg(64)->Arg(1024)->Arg(8192);

void BM_HaarForwardInverse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomCounts(n);
  for (auto _ : state) {
    auto c = dphist::HaarWavelet::Forward(x);
    auto back = dphist::HaarWavelet::Inverse(c.value());
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HaarForwardInverse)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_TreeConstrainedInference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto tree = dphist::IntervalTree::Create(n, 2);
  auto sums = tree.value().NodeSums(RandomCounts(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.value().ConstrainedInference(sums.value()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TreeConstrainedInference)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FenwickInsertQuery(benchmark::State& state) {
  const std::size_t ranks = 4096;
  dphist::RankedFenwick tree(ranks);
  dphist::Rng rng(5);
  std::size_t i = 0;
  for (auto _ : state) {
    tree.Insert(i % ranks, 1.0);
    benchmark::DoNotOptimize(tree.SumUpTo((i * 7) % ranks));
    ++i;
  }
}
BENCHMARK(BM_FenwickInsertQuery);

void BM_BudgetChargeSequential(benchmark::State& state) {
  // Per-charge cost must stay flat as the ledger grows: spent_epsilon is
  // maintained incrementally, not recomputed over all prior charges (the
  // historical O(n) per charge made long-lived accountants quadratic).
  const std::size_t charges = static_cast<std::size_t>(state.range(0));
  const double total = static_cast<double>(charges);
  for (auto _ : state) {
    dphist::BudgetAccountant budget(total);
    for (std::size_t i = 0; i < charges; ++i) {
      benchmark::DoNotOptimize(budget.ChargeSequential(0.5, "q"));
    }
    benchmark::DoNotOptimize(budget.spent_epsilon());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(charges));
}
BENCHMARK(BM_BudgetChargeSequential)->Arg(256)->Arg(4096)->Arg(65536);

void BM_IntervalCostBuildAbsolute(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> counts = RandomCounts(n);
  dphist::IntervalCostTable::Options options;
  options.kind = dphist::CostKind::kAbsolute;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dphist::IntervalCostTable::Create(counts, options));
  }
}
BENCHMARK(BM_IntervalCostBuildAbsolute)->Arg(256)->Arg(1024);

// Arg 0: domain size; arg 1: row strategy (0 = naive, 1 = monotone). The
// strategy is set explicitly so both row fills are measured at every size.
void BM_VOptSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> counts = RandomCounts(n);
  dphist::IntervalCostTable::Options options;
  auto table = dphist::IntervalCostTable::Create(counts, options);
  dphist::VOptSolver::SolveOptions solve_options;
  solve_options.strategy = state.range(1) == 0
                               ? dphist::VOptStrategy::kNaive
                               : dphist::VOptStrategy::kMonotone;
  state.SetLabel(dphist::VOptStrategyName(solve_options.strategy));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dphist::VOptSolver::Solve(table.value(), 64, solve_options));
  }
}
BENCHMARK(BM_VOptSolve)->ArgsProduct({{256, 1024, 4096}, {0, 1}});

// Arg 0: vector length; arg 1: noise model (0 = textbook, 1 = batched,
// 2 = snapped, 3 = discrete). The model is set explicitly so a
// DPHIST_NOISE_MODEL override cannot collapse the comparison.
constexpr dphist::NoiseModel kBenchNoiseModels[] = {
    dphist::NoiseModel::kTextbook, dphist::NoiseModel::kBatched,
    dphist::NoiseModel::kSnapped, dphist::NoiseModel::kDiscrete};

void BM_NoiseBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const dphist::NoiseModel model = kBenchNoiseModels[state.range(1)];
  state.SetLabel(dphist::NoiseModelName(model));
  const std::vector<double> values = RandomCounts(n);
  std::vector<double> out(n);
  dphist::Rng rng(6);
  for (auto _ : state) {
    dphist::noise_batch::AddContinuousNoise(model, 1.0, values.data(),
                                            out.data(), n, rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NoiseBatch)
    ->ArgsProduct({{4096, 65536, 1048576}, {0, 1, 2, 3}});

// The M1 noise-model table: per (model, n), the median wall time of one
// full-vector perturbation, with each non-textbook model's speedup over
// the textbook scalar per-draw sampler at the same n. The noise_model
// column is a regression-gate identity field, so rows never cross-match
// between models.
void RunNoiseBatchTable(dphist_bench::BenchJsonWriter& json) {
  const std::size_t reps = dphist_bench::Repetitions();
  for (const std::size_t n : {std::size_t{4096}, std::size_t{65536},
                              std::size_t{1048576}}) {
    const std::vector<double> values = RandomCounts(n);
    std::vector<double> out(n);
    double textbook_ms = 0.0;
    for (const dphist::NoiseModel model : kBenchNoiseModels) {
      dphist::Rng rng(6);
      std::vector<double> wall_ms;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        dphist::noise_batch::AddContinuousNoise(model, 1.0, values.data(),
                                                out.data(), n, rng);
        wall_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
      std::sort(wall_ms.begin(), wall_ms.end());
      const double median = wall_ms[wall_ms.size() / 2];
      auto row = json.Row()
                     .Str("fig", "m1_noise")
                     .Str("algo", "noise_batch")
                     .Str("noise_model", dphist::NoiseModelName(model))
                     .Num("n", static_cast<double>(n))
                     .Num("sample_ms", median);
      if (model == dphist::NoiseModel::kTextbook) {
        textbook_ms = median;
      } else {
        row.Num("speedup", textbook_ms / median);
      }
      json.AddRow(row);
    }
  }
}

// The M1 strategy table: per (shape, strategy), the median wall time of a
// solve plus the solver's deterministic work counters. The shapes are the
// 64-bucket squared-cost solve over uniform worst-case counts at three
// domain sizes, the cold_publish solve — NoiseFirst's 256-bucket
// squared-cost search over the network trace plus epsilon = 0.1 Laplace
// noise at n = 1024 — and the herd solve, StructureFirst's 128-bucket
// absolute-cost search over the true network trace at n = 1024. Emitted
// as bench JSON so the regression gate holds both the timing ratio and —
// tightly — the pruning behavior (a jump in cost_lookups or bound_scans
// means the bounds or the skip rules changed).
void RunVOptStrategyTable(dphist_bench::BenchJsonWriter& json) {
  struct Shape {
    const char* dataset;
    std::vector<double> counts;
    std::size_t k;
    double epsilon;  // 0 = noiseless
    dphist::CostKind cost = dphist::CostKind::kSquared;
  };
  std::vector<double> cold = dphist::MakeNetTrace(1024, 42).histogram.counts();
  dphist::Rng noise_rng(5);
  for (double& c : cold) {
    c += dphist::SampleLaplace(noise_rng, 10.0);
  }
  std::vector<Shape> shapes;
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    shapes.push_back({"uniform", RandomCounts(n), 64, 0.0});
  }
  shapes.push_back({"nettrace", std::move(cold), 256, 0.1});
  std::vector<double> herd = dphist::MakeNetTrace(1024, 42).histogram.counts();
  shapes.push_back(
      {"nettrace", std::move(herd), 128, 0.0, dphist::CostKind::kAbsolute});

  const std::size_t reps = dphist_bench::Repetitions();
  for (const Shape& shape : shapes) {
    dphist::IntervalCostTable::Options options;
    options.kind = shape.cost;
    auto table = dphist::IntervalCostTable::Create(shape.counts, options);
    double naive_ms = 0.0;
    for (const dphist::VOptStrategy strategy :
         {dphist::VOptStrategy::kNaive, dphist::VOptStrategy::kMonotone}) {
      dphist::VOptSolver::SolveOptions solve_options;
      solve_options.strategy = strategy;
      dphist::VOptSolver::SolveStats stats;
      std::vector<double> wall_ms;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        auto solver =
            dphist::VOptSolver::Solve(table.value(), shape.k, solve_options);
        wall_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
        stats = solver.value().stats();
      }
      std::sort(wall_ms.begin(), wall_ms.end());
      const double median = wall_ms[wall_ms.size() / 2];
      auto row = json.Row()
                     .Str("fig", "m1_vopt")
                     .Str("algo", "vopt_solve")
                     .Str("dataset", shape.dataset)
                     .Str("cost", dphist::CostKindName(shape.cost))
                     .Str("strategy", dphist::VOptStrategyName(strategy))
                     .Num("n", static_cast<double>(shape.counts.size()))
                     .Num("k", static_cast<double>(shape.k))
                     .Num("solve_ms", median)
                     .Num("cost_lookups",
                          static_cast<double>(stats.cost_lookups))
                     .Num("bound_scans",
                          static_cast<double>(stats.bound_scans));
      if (shape.epsilon > 0.0) {
        row.Num("epsilon", shape.epsilon);
      }
      if (strategy == dphist::VOptStrategy::kNaive) {
        naive_ms = median;
      } else {
        row.Num("speedup", naive_ms / median);
      }
      json.AddRow(row);
    }
  }
}

// The M1 cost-build table: the median wall time of the absolute-cost
// triangle build (IntervalCostTable::Create, kAbsolute, grid step 1, the
// global pool) over the herd solve's input — the true network trace at
// n = 1024, few distinct values — and over the cold_publish counts, the
// same trace plus epsilon = 0.1 Laplace noise, where every count is a
// distinct value and the build's rank cursor has the most to walk.
void RunCostBuildTable(dphist_bench::BenchJsonWriter& json) {
  struct Shape {
    std::vector<double> counts;
    double epsilon;  // 0 = noiseless
  };
  std::vector<Shape> shapes;
  shapes.push_back({dphist::MakeNetTrace(1024, 42).histogram.counts(), 0.0});
  std::vector<double> cold = dphist::MakeNetTrace(1024, 42).histogram.counts();
  dphist::Rng noise_rng(5);
  for (double& c : cold) {
    c += dphist::SampleLaplace(noise_rng, 10.0);
  }
  shapes.push_back({std::move(cold), 0.1});

  const std::size_t reps = dphist_bench::Repetitions();
  for (const Shape& shape : shapes) {
    dphist::IntervalCostTable::Options options;
    options.kind = dphist::CostKind::kAbsolute;
    std::vector<double> wall_ms;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto table = dphist::IntervalCostTable::Create(shape.counts, options);
      wall_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
      benchmark::DoNotOptimize(table);
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    std::vector<double> distinct = shape.counts;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    auto row = json.Row()
                   .Str("fig", "m1_cost_build")
                   .Str("algo", "interval_cost_build")
                   .Str("dataset", "nettrace")
                   .Str("cost", dphist::CostKindName(options.kind))
                   .Num("n", static_cast<double>(shape.counts.size()))
                   .Num("build_ms", wall_ms[wall_ms.size() / 2])
                   .Num("distinct_values",
                        static_cast<double>(distinct.size()));
    if (shape.epsilon > 0.0) {
      row.Num("epsilon", shape.epsilon);
    }
    json.AddRow(row);
  }
}

// Median of `reps` timed runs of `run`, in milliseconds.
template <typename Run>
double MedianMs(std::size_t reps, Run run) {
  std::vector<double> wall_ms;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run();
    wall_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(wall_ms.begin(), wall_ms.end());
  return wall_ms[wall_ms.size() / 2];
}

// The M1 CRC-32 table: per frame size, the median wall time of CRC-32 over
// 16 MiB of frames cut from a 64 KiB buffer that stays in cache, as the
// event loop's frames do — `binio::Crc32` (the PCLMULQDQ fold where the
// CPU has one) against the portable slicing-by-8 tables, with its speedup.
void RunCrc32Table(dphist_bench::BenchJsonWriter& json) {
  constexpr std::size_t kBufferBytes = std::size_t{64} << 10;
  constexpr std::size_t kSweepBytes = std::size_t{16} << 20;
  std::string buffer(kBufferBytes, '\0');
  dphist::Rng rng(7);
  for (char& c : buffer) {
    c = static_cast<char>(rng.NextUint64());
  }
  const std::size_t reps = dphist_bench::Repetitions();
  std::printf("\n-- m1_crc32: ns per frame --\n");
  for (const std::size_t bytes :
       {std::size_t{64}, std::size_t{1024}, std::size_t{16384}}) {
    const std::size_t frames = kSweepBytes / bytes;
    double portable_ms = 0.0;
    for (const bool portable : {true, false}) {
      const double median = MedianMs(reps, [&] {
        std::uint32_t sink = 0;
        for (std::size_t i = 0; i < frames; ++i) {
          const std::string_view frame(
              buffer.data() + (i * bytes) % kBufferBytes, bytes);
          sink ^= portable ? dphist::binio::Crc32Portable(frame)
                           : dphist::binio::Crc32(frame);
        }
        benchmark::DoNotOptimize(sink);
      });
      const char* algo = portable ? "crc32_portable" : "crc32";
      std::printf("%-15s %6zu B  %8.1f ns\n", algo, bytes,
                  median * 1e6 / static_cast<double>(frames));
      auto row = json.Row()
                     .Str("fig", "m1_crc32")
                     .Str("algo", algo)
                     .Num("bytes", static_cast<double>(bytes))
                     .Num("n", static_cast<double>(frames))
                     .Num("crc_ms", median);
      if (portable) {
        portable_ms = median;
      } else {
        row.Num("speedup", portable_ms / median);
      }
      json.AddRow(row);
    }
  }
}

// The M1 sparse range-sum table: the median wall time of 65 536 fresh
// random queries (each endpoint drawn uniformly, none repeated within a
// sweep) against a 1025-key release over a 2^40 domain, the shape of
// perfbench's sparse release. "spread" draws keys and endpoints over the
// whole domain. "clustered" packs the keys into one 2^29-key span — one
// bucket of the range-sum index — and draws the endpoints there too, so
// every endpoint searches all 1025 keys: the index's worst case.
void RunSparseRangeSumTable(dphist_bench::BenchJsonWriter& json) {
  constexpr std::uint64_t kDomain = std::uint64_t{1} << 40;
  constexpr std::size_t kKeys = 1025;
  constexpr std::size_t kQueries = 65536;
  struct Shape {
    const char* dataset;
    std::uint64_t low;
    std::uint64_t span;
  };
  const Shape shapes[] = {{"spread", 0, kDomain},
                          {"clustered", kDomain / 2, std::uint64_t{1} << 29}};
  const std::size_t reps = dphist_bench::Repetitions();
  std::printf("\n-- m1_sparse_range_sum: ns per query --\n");
  for (const Shape& shape : shapes) {
    dphist::Rng rng(11);
    std::set<std::uint64_t> keys;
    while (keys.size() < kKeys) {
      keys.insert(shape.low + rng.NextUint64() % shape.span);
    }
    std::vector<dphist::sparse::SparseEntry> entries;
    for (const std::uint64_t key : keys) {
      entries.push_back(
          {key, static_cast<double>(rng.NextUint64() % 1000) + 0.5});
    }
    const auto histogram =
        dphist::sparse::SparseHistogram::Create(kDomain, std::move(entries))
            .value();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> queries(kQueries);
    for (auto& [begin, end] : queries) {
      begin = shape.low + rng.NextUint64() % (shape.span + 1);
      end = shape.low + rng.NextUint64() % (shape.span + 1);
      if (begin > end) {
        std::swap(begin, end);
      }
    }
    const double median = MedianMs(reps, [&] {
      double sum = 0.0;
      for (const auto& [begin, end] : queries) {
        sum += histogram.RangeSumUnchecked(begin, end);
      }
      benchmark::DoNotOptimize(sum);
    });
    std::printf("%-10s %8.1f ns\n", shape.dataset,
                median * 1e6 / static_cast<double>(kQueries));
    json.AddRow(json.Row()
                    .Str("fig", "m1_sparse_range_sum")
                    .Str("algo", "sparse_range_sum")
                    .Str("dataset", shape.dataset)
                    .Num("domain", static_cast<double>(kDomain))
                    .Num("keys", static_cast<double>(kKeys))
                    .Num("n", static_cast<double>(kQueries))
                    .Num("sweep_ms", median));
  }
}

// The M1 JSON table: the median wall time of the JSON lane's kernels on
// noisy counts (a count in [0, 2000) plus Laplace noise of scale 10, the
// shape of NoiseFirst's answers) — ns per number for the digits writer
// and for std::to_chars(general, 17), the reference it matches byte for
// byte; and us per 64-answer JSON batch-answer body written in place, and
// per 64-query JSON query request decoded into a reused view, as the
// event loop does both.
void RunJsonTable(dphist_bench::BenchJsonWriter& json) {
  constexpr std::size_t kNumbers = 65536;
  constexpr std::size_t kBodies = 4096;
  constexpr std::size_t kBatch = 64;
  dphist::Rng rng(17);
  std::vector<double> values(kNumbers);
  for (double& value : values) {
    value = static_cast<double>(rng.NextUint64() % 2000) +
            dphist::SampleLaplace(rng, 10.0);
  }
  const std::size_t reps = dphist_bench::Repetitions();
  std::printf("\n-- m1_json: ns per number, us per 64-entry body --\n");
  const auto add_row = [&json](const char* algo, std::size_t n,
                               double median, double unit_ns) {
    std::printf("%-20s %8.1f %s\n", algo,
                median * 1e6 / static_cast<double>(n) / unit_ns,
                unit_ns == 1.0 ? "ns" : "us");
    json.AddRow(json.Row()
                    .Str("fig", "m1_json")
                    .Str("algo", algo)
                    .Num("n", static_cast<double>(n))
                    .Num("sweep_ms", median));
  };
  char buffer[64];
  for (const bool reference : {false, true}) {
    const double median = MedianMs(reps, [&] {
      std::size_t bytes = 0;
      for (const double value : values) {
        bytes += static_cast<std::size_t>(
            (reference ? std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::general, 17)
                             .ptr
                       : dphist::obs::WriteJsonDouble(buffer, value)) -
            buffer);
        benchmark::DoNotOptimize(buffer);
        benchmark::ClobberMemory();
      }
      benchmark::DoNotOptimize(bytes);
    });
    add_row(reference ? "to_chars_general17" : "json_digits", kNumbers,
            median, 1.0);
  }

  const dphist::serve::ReleaseKey served{"bench", "nettrace", 1234567890123,
                                         "noise_first", 0.1, 42};
  std::string body;
  const double encode_median = MedianMs(reps, [&] {
    for (std::size_t b = 0; b < kBodies; ++b) {
      body.clear();
      dphist::net::AppendBatchAnswerJson(
          body,
          std::span<const double>(values).subspan((b * kBatch) % kNumbers,
                                                  kBatch),
          false, true, served);
      benchmark::DoNotOptimize(body.data());
      benchmark::ClobberMemory();
    }
  });
  add_row("encode_answer_json_64", kBodies, encode_median, 1e3);

  std::vector<std::string> requests;
  for (std::size_t r = 0; r < 64; ++r) {
    dphist::net::WireQueryRequest request;
    request.tenant = "bench";
    request.dataset = "nettrace";
    request.request = {"noise_first", 0.1, r};
    for (std::size_t q = 0; q < kBatch; ++q) {
      const std::size_t begin = rng.NextUint64() % 1024;
      request.queries.push_back(
          {begin, begin + 1 + rng.NextUint64() % (1024 - begin)});
    }
    requests.push_back(dphist::net::EncodeQueryRequestJson(request));
  }
  dphist::net::QueryRequestView view;
  const double decode_median = MedianMs(reps, [&] {
    for (std::size_t b = 0; b < kBodies; ++b) {
      auto decoded = dphist::net::DecodeQueryRequestJson(
          requests[b % requests.size()], &view);
      benchmark::DoNotOptimize(decoded.ok());
    }
  });
  add_row("decode_request_json_64", kBodies, decode_median, 1e3);
}

}  // namespace

// Custom main (instead of benchmark_main) so the strategy, cost-build,
// noise, CRC-32, sparse range-sum and JSON tables run and the obs registry
// snapshot — solver counters, interval-cost build stats, draw counts — is
// exported after the benchmarks (BenchJsonWriter::Finish handles the
// DPHIST_OBS_OUT export).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dphist_bench::BenchJsonWriter json("micro");
  RunVOptStrategyTable(json);
  RunCostBuildTable(json);
  RunNoiseBatchTable(json);
  RunCrc32Table(json);
  RunSparseRangeSumTable(json);
  RunJsonTable(json);
  json.Finish();
  return 0;
}
