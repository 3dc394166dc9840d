// perfbench: the dphist repository benchmark.
//
//   perfbench --workload hot_read|cold_publish|herd --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--inject flip_bit|double_charge]
//
// Stands up an in-process NetServer over a journaled ReleaseServer (set up
// kSetups times; set-up time is the median), drives one workload over
// loopback from a single closed-loop generator thread, verifies every
// answer, and prints the end-to-end metrics. With --trace 1 it measures
// the workload untraced and then traced, replays each layer's public calls
// on the workload's recorded inputs, writes the spans to DIR, and prints
// the per-layer metrics instead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. perfbench/README.md has
// the workloads, the metrics and how they map to layers.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "dphist/algorithms/registry.h"
#include "dphist/common/env.h"
#include "dphist/common/thread_pool.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/export.h"
#include "dphist/obs/obs.h"
#include "dphist/query/range_query.h"
#include "dphist/query/sparse_query.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/sparse/sparse_publisher.h"
#include "fixture.h"
#include "layers.h"
#include "loadgen.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using dphist::Status;

// Settings that change the measured program; a run refuses them.
constexpr const char* kForbiddenEnv[] = {
    "DPHIST_ENCODED_CACHE", "DPHIST_VOPT_STRATEGY", "DPHIST_NOISE_MODEL",
    "DPHIST_SERVE_SHARDS",  "DPHIST_PUBLISHER",     "DPHIST_JOURNAL_DIR"};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr double kHotWarmupSeconds = 0.5;
// rss_mb on the cold workloads is the peak resident set when the timed
// phase has answered this many requests, so it does not grow with the
// number of fresh releases a faster program seals in --seconds.
constexpr std::size_t kRssColdAnswers = 64;
// Fresh keys republished at once by the cold verifier.
constexpr std::size_t kVerifyChunk = 64;
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kHotConnections = 2;
// Pipelined bursts each hot_read connection keeps outstanding.
constexpr std::size_t kHotRoundsInFlight = 2;
constexpr std::size_t kGeneratorThreads = 1;
constexpr std::size_t kEventLoopThreads = 1;
// hot_read request spans written to the trace file (all stay in memory).
constexpr std::size_t kMaxWrittenRequestSpans = 100000;
// The measured response an injected one-bit corruption hits.
constexpr std::size_t kInjectAt = 100;

struct Args {
  Workload workload = Workload::kHotRead;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string inject;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot_read|cold_publish|herd "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--inject flip_bit|double_charge]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "hot_read") {
        args->workload = Workload::kHotRead;
      } else if (value == "cold_publish") {
        args->workload = Workload::kColdPublish;
      } else if (value == "herd") {
        args->workload = Workload::kHerd;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--inject") {
      if (value != "flip_bit" && value != "double_charge") {
        return false;
      }
      args->inject = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0 && !args->work_dir.empty();
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double Quantile(std::vector<float> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// End-to-end metrics of one timed phase.
struct EndToEnd {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  /// p90 latency.
  double tail_ms = 0.0;
  /// hot_read: p99 latency.
  double p99_ms = 0.0;
  double cpu_us_per_op = 0.0;
  /// Peak resident set: at the end of the phase on hot_read, after
  /// kRssColdAnswers answers on the cold workloads.
  double rss_mb = 0.0;
  std::size_t requests = 0;
  std::size_t windows = 0;
  /// cold workloads: (cold request index, latency in ms) per answer.
  std::vector<std::pair<std::size_t, double>> cold_samples;
};

// The tail percentile printed for every workload: ~200 cold samples per
// run still leave 10 or more beyond it. hot_read also prints p99.
constexpr double kTailQuantile = 0.90;

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// One /statsz snapshot: every counter, and every distribution's sample
// count and mean.
struct Stats {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> distributions;
};

// How much counter `name` grew between two snapshots.
double Delta(const Stats& before, const Stats& after,
             const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  return (a == after.counters.end() ? 0.0 : a->second) -
         (b == before.counters.end() ? 0.0 : b->second);
}

// The mean of the samples distribution `name` took between two snapshots.
double DeltaMean(const Stats& before, const Stats& after,
                 const std::string& name) {
  auto sum = [&name](const Stats& stats) {
    const auto it = stats.distributions.find(name);
    return it == stats.distributions.end()
               ? std::pair<double, double>{0.0, 0.0}
               : std::pair<double, double>{
                     it->second.first, it->second.first * it->second.second};
  };
  const auto [count_before, sum_before] = sum(before);
  const auto [count_after, sum_after] = sum(after);
  return Ratio(sum_after - sum_before, count_after - count_before);
}

// A release published directly with the publisher registry, off the serve
// path: the reference that served answers are compared with.
dphist::Result<dphist::Histogram> PublishDense(
    const dphist::Histogram& truth,
    const dphist::serve::ServeRequest& request) {
  DPHIST_ASSIGN_OR_RETURN(auto publisher,
                          dphist::PublisherRegistry::Make(request.publisher));
  dphist::Rng rng(request.seed);
  return publisher->Publish(truth, request.epsilon, rng);
}

dphist::Result<dphist::sparse::SparseHistogram> PublishSparse(
    const dphist::sparse::SparseHistogram& truth,
    const dphist::serve::ServeRequest& request) {
  DPHIST_ASSIGN_OR_RETURN(
      auto publisher, dphist::PublisherRegistry::MakeSparse(request.publisher));
  dphist::Rng rng(request.seed);
  return publisher->Publish(truth, request.epsilon, rng);
}

class Runner {
 public:
  Runner(const Args& args, const Inputs& inputs, Fixture* fixture)
      : args_(args),
        inputs_(inputs),
        fixture_(fixture),
        inject_flip_(args.inject == "flip_bit") {}

  Status Start() {
    const std::size_t connections =
        args_.workload == Workload::kHotRead
            ? kHotConnections
            : (args_.workload == Workload::kHerd ? kHerdConnections : 1);
    DPHIST_ASSIGN_OR_RETURN(generator_,
                            LoadGenerator::Connect(fixture_->port(),
                                                   connections));
    if (args_.workload == Workload::kHotRead) {
      DPHIST_RETURN_IF_ERROR(ComputeReferences());
    }
    cold_status_.assign(inputs_.cold.size(), 0);
    cold_body_.assign(inputs_.cold.size(), std::string());
    cold_bytes_.assign(connections, std::string());
    return Status::Ok();
  }

  // Unmeasured traffic before the first timed phase.
  Status WarmUp() {
    if (args_.workload == Workload::kHotRead) {
      return Drive(NowNs() + static_cast<std::int64_t>(kHotWarmupSeconds * 1e9),
                   nullptr, nullptr);
    }
    const std::size_t count = args_.workload == Workload::kHerd
                                  ? kColdWarmup * kHerdConnections
                                  : kColdWarmup;
    cold_limit_ = std::min(next_cold_ + count, inputs_.cold.size());
    const Status status = Drive(INT64_MAX, nullptr, nullptr);
    cold_limit_ = inputs_.cold.size();
    return status;
  }

  // One timed phase of `seconds`; spans go to `trace` when non-null.
  dphist::Result<EndToEnd> Measure(double seconds, Trace* trace) {
    const bool hot = args_.workload == Workload::kHotRead;
    std::size_t windows = 0;
    std::int64_t window_ns = 0;
    if (hot) {
      windows = std::max<std::size_t>(
          1, static_cast<std::size_t>(seconds / kWindowSeconds));
      window_ns = static_cast<std::int64_t>(seconds / windows * 1e9);
    }
    Phase phase;
    phase.start_ns = NowNs();
    phase.cpu_start = CpuMicros();
    phase.windows = windows;
    phase.window_ns = window_ns;
    phase.window_start = phase.start_ns;
    phase.window_cpu = phase.cpu_start;
    const std::int64_t deadline =
        phase.start_ns + (hot ? static_cast<std::int64_t>(windows) * window_ns
                              : static_cast<std::int64_t>(seconds * 1e9));
    DPHIST_RETURN_IF_ERROR(Drive(deadline, &phase, trace));
    const double cpu_end = CpuMicros();
    if (ran_out_) {
      return Status::ResourceExhausted(
          "the " + std::to_string(inputs_.cold.size()) +
          " pre-generated cold requests ran out " +
          std::to_string(static_cast<double>(NowNs() - phase.start_ns) *
                         1e-9) +
          " s into a " + std::to_string(seconds) +
          " s phase; raise kMaxColdPerSecond or kMaxHerdsPerSecond in "
          "perfbench/src/inputs.cc");
    }

    EndToEnd e2e;
    if (hot) {
      if (phase.closed.size() < windows && !phase.current.empty()) {
        CloseWindow(&phase, phase.last_done_ns);
      }
      // Each statistic per window, then its median over the windows.
      std::vector<double> rate, p50, tail, p99, cpu;
      std::string rates;
      for (const Window& window : phase.closed) {
        if (window.latencies_ms.empty()) {
          continue;
        }
        const double count = static_cast<double>(window.latencies_ms.size());
        rate.push_back(count / window.seconds);
        p50.push_back(Quantile(window.latencies_ms, 0.5));
        tail.push_back(Quantile(window.latencies_ms, kTailQuantile));
        p99.push_back(Quantile(window.latencies_ms, 0.99));
        cpu.push_back(window.cpu_us / count);
        e2e.requests += window.latencies_ms.size();
        rates += " " + std::to_string(static_cast<long>(rate.back()));
      }
      std::printf("perfbench window_rates req/s:%s\n", rates.c_str());
      e2e.windows = rate.size();
      e2e.ops_per_s = Median(rate);
      e2e.p50_ms = Median(p50);
      e2e.tail_ms = Median(tail);
      e2e.p99_ms = Median(p99);
      e2e.cpu_us_per_op = Median(cpu);
      e2e.rss_mb = PeakRssMb();
    } else {
      e2e.requests = phase.cold_latencies_ms.size();
      const double seconds =
          static_cast<double>(phase.last_done_ns - phase.start_ns) * 1e-9;
      e2e.ops_per_s = Ratio(static_cast<double>(e2e.requests), seconds);
      e2e.p50_ms = Quantile(phase.cold_latencies_ms, 0.5);
      e2e.tail_ms = Quantile(phase.cold_latencies_ms, kTailQuantile);
      e2e.cpu_us_per_op = Ratio(cpu_end - phase.cpu_start,
                                static_cast<double>(e2e.requests));
      e2e.rss_mb = phase.rss_mb > 0.0 ? phase.rss_mb : PeakRssMb();
      e2e.cold_samples = std::move(phase.cold_samples);
    }
    if (e2e.requests == 0) {
      return Status::Internal("the timed phase completed no request");
    }
    return e2e;
  }

  // The obs counters the server reports on /statsz, fetched over the
  // first generator connection.
  dphist::Result<Stats> Statsz() {
    static const std::string kGet = "GET /statsz HTTP/1.1\r\n\r\n";
    bool sent = false;
    std::string body;
    int status = 0;
    DPHIST_RETURN_IF_ERROR(generator_->Run(
        INT64_MAX, LoadGenerator::Pacing{true, 1},
        [&](std::size_t conn, LoadGenerator::Round* round) {
          if (conn != 0 || sent) {
            return false;
          }
          sent = true;
          round->bytes = kGet;
          round->ids = {0};
          return true;
        },
        [&](const Response& response) {
          status = response.status;
          body.assign(response.body);
        }));
    if (status != 200) {
      return Status::Internal("/statsz answered " + std::to_string(status));
    }
    Stats stats;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
      auto parsed = dphist::obs::ParseFlatJson(line);
      if (!parsed.ok()) {
        return parsed.status();
      }
      const auto& object = parsed.value();
      const auto type = object.find("type");
      const auto name = object.find("name");
      if (type == object.end() || name == object.end()) {
        continue;
      }
      const auto value = object.find("value");
      const auto count = object.find("count");
      const auto mean = object.find("mean");
      if (type->second.string_value == "counter" && value != object.end()) {
        stats.counters[name->second.string_value] = value->second.number_value;
      } else if (type->second.string_value == "distribution" &&
                 count != object.end() && mean != object.end()) {
        stats.distributions[name->second.string_value] = {
            count->second.number_value, mean->second.number_value};
      }
    }
    return stats;
  }

  // Republishes every fresh key directly, kVerifyChunk at a time, and
  // compares every cold answer with AnswerQueries over that release;
  // counts mismatches as failures.
  Status VerifyColdAnswers() {
    std::map<std::uint64_t, std::vector<std::size_t>> by_seed;
    for (const std::size_t i : answered_) {
      by_seed[inputs_.cold[i].seed].push_back(i);
    }
    const std::uint64_t fingerprint =
        dphist::serve::FingerprintHistogram(inputs_.dense_truth);
    bool injected = false;
    auto next = by_seed.begin();
    while (next != by_seed.end()) {
      std::vector<std::uint64_t> seeds;
      for (; next != by_seed.end() && seeds.size() < kVerifyChunk; ++next) {
        seeds.push_back(next->first);
      }
      std::vector<dphist::Result<dphist::Histogram>> published(
          seeds.size(), Status::Internal("not published"));
      RunOnPool(seeds.size(), [&](std::size_t k) {
        published[k] = PublishDense(
            inputs_.dense_truth,
            {inputs_.cold_publisher, kDenseEpsilon, seeds[k]});
      });
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        DPHIST_RETURN_IF_ERROR(published[k].status());
        for (const std::size_t i : by_seed[seeds[k]]) {
          const auto& queries = inputs_.cold_batches[inputs_.cold[i].batch];
          auto expected = dphist::AnswerQueries(published[k].value(), queries);
          DPHIST_RETURN_IF_ERROR(expected.status());
          auto decoded = dphist::net::DecodeFrame(cold_body_[i]);
          bool ok = cold_status_[i] == 200 && decoded.ok() &&
                    decoded.value().type ==
                        dphist::net::WireType::kBatchAnswer;
          if (ok) {
            dphist::net::WireBatchAnswer answer =
                std::move(decoded).value().batch_answer;
            if (inject_flip_ && !injected && !answer.answers.empty()) {
              std::uint64_t bits = 0;
              std::memcpy(&bits, &answer.answers[0], sizeof(bits));
              bits ^= 1;
              std::memcpy(&answer.answers[0], &bits, sizeof(bits));
              injected = true;
            }
            const dphist::serve::ReleaseKey& served = answer.served;
            const dphist::serve::TenantKey ns = DenseNamespace();
            ok = !answer.stale && served.tenant == ns.tenant &&
                 served.dataset == ns.dataset &&
                 served.dataset_fingerprint == fingerprint &&
                 served.publisher == inputs_.cold_publisher &&
                 served.epsilon == kDenseEpsilon &&
                 served.seed == seeds[k] &&
                 answer.answers.size() == expected.value().size() &&
                 std::memcmp(answer.answers.data(), expected.value().data(),
                             answer.answers.size() * sizeof(double)) == 0;
          }
          if (!ok) {
            ++failed_;
          }
        }
      }
    }
    return Status::Ok();
  }

  // Distinct fresh keys the workload sent (each must be charged once).
  std::size_t FreshKeysSent() const {
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < next_cold_; ++i) {
      seeds.insert(inputs_.cold[i].seed);
    }
    return seeds.size();
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  void AddFailure() { ++failed_; }

 private:
  struct Window {
    double seconds = 0.0;
    double cpu_us = 0.0;
    std::vector<float> latencies_ms;
  };
  struct Phase {
    std::int64_t start_ns = 0;
    std::int64_t last_done_ns = 0;
    double cpu_start = 0.0;
    // hot_read: fixed windows of `window_ns`.
    std::size_t windows = 0;
    std::int64_t window_ns = 0;
    std::int64_t window_start = 0;
    double window_cpu = 0.0;
    std::vector<float> current;
    std::vector<Window> closed;
    // cold workloads: every answered request.
    std::vector<float> cold_latencies_ms;
    std::vector<std::pair<std::size_t, double>> cold_samples;
    double rss_mb = 0.0;
  };

  static void CloseWindow(Phase* phase, std::int64_t now) {
    const double cpu = CpuMicros();
    Window window;
    window.seconds = static_cast<double>(now - phase->window_start) * 1e-9;
    window.cpu_us = cpu - phase->window_cpu;
    window.latencies_ms.swap(phase->current);
    phase->closed.push_back(std::move(window));
    phase->window_start = now;
    phase->window_cpu = cpu;
  }

  // hot_read: the expected body of every stream position, before any
  // timing and without the serve path. Each hot key is published directly
  // with the publisher registry, as the cold verifier does for fresh keys;
  // its queries are answered with AnswerQueries or AnswerQueriesSparse, or
  // its counts encoded whole for /v1/release, in the request's codec.
  Status ComputeReferences() {
    const std::vector<HotKey>& keys = inputs_.hot_keys;
    std::vector<std::optional<dphist::Histogram>> dense(keys.size());
    std::vector<std::optional<dphist::sparse::SparseHistogram>> sparse(
        keys.size());
    std::vector<Status> published(keys.size());
    RunOnPool(keys.size(), [&](std::size_t k) {
      if (keys[k].ns == SparseNamespace()) {
        auto release = PublishSparse(inputs_.sparse_truth, keys[k].request);
        published[k] = release.status();
        if (release.ok()) {
          sparse[k] = std::move(release).value();
        }
      } else {
        auto release = PublishDense(inputs_.dense_truth, keys[k].request);
        published[k] = release.status();
        if (release.ok()) {
          dense[k] = std::move(release).value();
        }
      }
    });
    std::map<std::uint64_t, std::size_t> by_seed;
    std::vector<dphist::serve::ReleaseKey> served(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      DPHIST_RETURN_IF_ERROR(published[k]);
      by_seed[keys[k].request.seed] = k;
      served[k] = {keys[k].ns.tenant,
                   keys[k].ns.dataset,
                   sparse[k].has_value()
                       ? dphist::sparse::FingerprintSparseHistogram(
                             inputs_.sparse_truth)
                       : dphist::serve::FingerprintHistogram(
                             inputs_.dense_truth),
                   keys[k].request.publisher,
                   keys[k].request.epsilon,
                   keys[k].request.seed};
    }
    references_.reserve(inputs_.hot_stream.size());
    for (const Request& request : inputs_.hot_stream) {
      const std::size_t k = by_seed.at(request.query.request.seed);
      if (request.release) {
        references_.push_back(
            sparse[k].has_value()
                ? EncodeReleaseFrame(served[k], *sparse[k], request.binary)
                : EncodeReleaseFrame(served[k], *dense[k], request.binary));
        continue;
      }
      auto answers =
          sparse[k].has_value()
              ? dphist::AnswerQueriesSparse(*sparse[k], request.query.queries)
              : dphist::AnswerQueries(*dense[k], request.query.queries);
      DPHIST_RETURN_IF_ERROR(answers.status());
      dphist::net::WireBatchAnswer answer;
      answer.answers = std::move(answers).value();
      answer.cache_hit = true;
      answer.served = served[k];
      references_.push_back(request.binary
                                ? dphist::net::EncodeBatchAnswer(answer)
                                : dphist::net::EncodeBatchAnswerJson(answer));
    }
    // Pre-built bursts: kBurst consecutive stream requests, back to back.
    for (std::size_t start = 0; start < inputs_.hot_stream.size();
         start += kBurst) {
      std::string bytes;
      std::vector<std::uint32_t> ids;
      for (std::size_t p = start; p < start + kBurst; ++p) {
        bytes += inputs_.hot_stream[p].bytes;
        ids.push_back(static_cast<std::uint32_t>(p));
      }
      burst_bytes_.push_back(std::move(bytes));
      burst_ids_.push_back(std::move(ids));
    }
    burst_span_.assign(burst_bytes_.size(), 0);
    burst_seq_.assign(burst_bytes_.size(), 0);
    return Status::Ok();
  }

  // Runs the workload's traffic until `deadline`, recording into `phase`
  // (null during warm-up) and spans into `trace` (null when untraced).
  Status Drive(std::int64_t deadline, Phase* phase, Trace* trace) {
    if (args_.workload == Workload::kHotRead) {
      return generator_->Run(
          deadline, LoadGenerator::Pacing{false, kHotRoundsInFlight},
          [&](std::size_t, LoadGenerator::Round* round) {
            const std::size_t b = next_burst_ % burst_bytes_.size();
            round->bytes = burst_bytes_[b];
            round->ids = burst_ids_[b];
            if (trace != nullptr) {
              burst_span_[b] = trace->Begin("burst", 0, Trace::kNoRequest);
              burst_seq_[b] = next_burst_;
            }
            ++next_burst_;
            attempted_ += kBurst;
            return true;
          },
          [&](const Response& response) {
            OnHotResponse(response, phase, trace);
          });
    }
    const bool herd = args_.workload == Workload::kHerd;
    return generator_->Run(
        deadline, LoadGenerator::Pacing{true, 1},
        [&](std::size_t conn, LoadGenerator::Round* round) {
          if (next_cold_ >= inputs_.cold.size()) {
            ran_out_ = true;
            return false;
          }
          if (next_cold_ >= cold_limit_) {
            return false;
          }
          const std::size_t i = next_cold_++;
          // Serialized as it is sent, before its clock starts; a
          // connection has one request in flight, so its buffer is free.
          cold_bytes_[conn] = MakeColdRequest(inputs_, i).bytes;
          round->bytes = cold_bytes_[conn];
          round->ids = {static_cast<std::uint32_t>(i)};
          if (trace != nullptr && herd && conn == 0) {
            herd_span_ = trace->Begin("herd", 0, Trace::kNoRequest);
            herd_pending_ = 0;
          }
          if (herd) {
            ++herd_pending_;
          }
          ++attempted_;
          return true;
        },
        [&](const Response& response) {
          const std::size_t i = response.request;
          cold_status_[i] = response.status;
          cold_body_[i].assign(response.body);
          answered_.push_back(i);
          if (phase != nullptr) {
            const double latency_ms =
                static_cast<double>(response.done_ns - response.sent_ns) *
                1e-6;
            phase->last_done_ns = response.done_ns;
            phase->cold_latencies_ms.push_back(
                static_cast<float>(latency_ms));
            phase->cold_samples.emplace_back(i, latency_ms);
            if (phase->cold_latencies_ms.size() == kRssColdAnswers) {
              phase->rss_mb = PeakRssMb();
            }
          }
          if (trace != nullptr) {
            trace->Add("request", herd ? herd_span_ : 0, i, response.sent_ns,
                       response.done_ns);
            if (herd && --herd_pending_ == 0) {
              trace->End(herd_span_);
            }
          }
        });
  }

  void OnHotResponse(const Response& response, Phase* phase, Trace* trace) {
    const std::string& expected = references_[response.request];
    bool ok = response.status == 200 && response.body == expected;
    if (inject_flip_ && phase != nullptr &&
        ++measured_responses_ == kInjectAt) {
      std::string corrupted(response.body);
      corrupted[corrupted.size() / 2] ^= 1;
      ok = ok && corrupted == expected;
    }
    if (!ok) {
      ++failed_;
    }
    if (phase != nullptr) {
      phase->last_done_ns = response.done_ns;
      if (phase->closed.size() < phase->windows) {
        if (response.done_ns >= phase->window_start + phase->window_ns) {
          CloseWindow(phase, response.done_ns);
        }
        if (phase->closed.size() < phase->windows) {
          phase->current.push_back(static_cast<float>(
              static_cast<double>(response.done_ns - response.sent_ns) *
              1e-6));
        }
      }
    }
    if (trace != nullptr) {
      const std::size_t b = response.request / kBurst;
      const std::size_t slot = response.request % kBurst;
      trace->Add("request", burst_span_[b], burst_seq_[b] * kBurst + slot,
                 response.sent_ns, response.done_ns);
      if (slot == kBurst - 1) {
        trace->End(burst_span_[b]);
      }
    }
  }

  const Args& args_;
  const Inputs& inputs_;
  Fixture* fixture_;
  const bool inject_flip_;
  std::unique_ptr<LoadGenerator> generator_;

  // hot_read
  std::vector<std::string> references_;
  std::vector<std::string> burst_bytes_;
  std::vector<std::vector<std::uint32_t>> burst_ids_;
  std::vector<std::uint32_t> burst_span_;
  std::vector<std::uint64_t> burst_seq_;
  std::uint64_t next_burst_ = 0;
  std::size_t measured_responses_ = 0;

  // cold workloads
  std::size_t next_cold_ = 0;
  std::size_t cold_limit_ = ~std::size_t{0};
  // Set when the cold list runs out before a deadline.
  bool ran_out_ = false;
  // One serialized request per connection.
  std::vector<std::string> cold_bytes_;
  std::vector<int> cold_status_;
  std::vector<std::string> cold_body_;
  std::vector<std::size_t> answered_;
  std::uint32_t herd_span_ = 0;
  std::size_t herd_pending_ = 0;

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct LedgerState {
  std::size_t charges = 0;
  double spent = 0.0;
};

dphist::Result<LedgerState> ReadLedger(dphist::serve::ReleaseServer& server,
                                       const dphist::serve::TenantKey& ns) {
  DPHIST_ASSIGN_OR_RETURN(const dphist::serve::BudgetLedger* ledger,
                          server.LedgerFor(ns));
  return LedgerState{ledger->charge_count(), ledger->spent_epsilon()};
}

std::string EnvSummary() {
  return "nproc=" + std::to_string(Nproc()) +
         " pool_width=" +
         std::to_string(dphist::ThreadPool::Global().thread_count()) +
         " build_type=" PERFBENCH_BUILD_TYPE
         " obs=" +
         (dphist::obs::Enabled() ? "on" : "off") +
         " fsync=every_record transport=loopback";
}

// The end-to-end metrics under their per-workload names, each with its
// unit and sample count.
void PrintE2e(Workload workload, const EndToEnd& e2e) {
  const bool hot = workload == Workload::kHotRead;
  char samples[96];
  if (hot) {
    std::snprintf(samples, sizeof(samples),
                  "%zu requests, median of %zu %.1f s windows", e2e.requests,
                  e2e.windows, kWindowSeconds);
  } else {
    std::snprintf(samples, sizeof(samples), "%zu requests", e2e.requests);
  }
  const char* prefix = hot ? "read" : "cold";
  std::printf("perfbench metric %s = %.6g req/s (%s)\n",
              hot ? "read_rps" : "cold_per_s", e2e.ops_per_s, samples);
  std::printf("perfbench metric %s_p50_ms = %.6g ms (%s)\n", prefix,
              e2e.p50_ms, samples);
  std::printf("perfbench metric %s_p90_ms = %.6g ms (%s)\n", prefix,
              e2e.tail_ms, samples);
  if (hot) {
    std::printf("perfbench metric read_p99_ms = %.6g ms (%s)\n", e2e.p99_ms,
                samples);
  }
  std::printf("perfbench metric cpu_us_per_op = %.6g us (%s)\n",
              e2e.cpu_us_per_op, samples);
}

int Run(const Args& args) {
  for (const char* name : kForbiddenEnv) {
    if (dphist::GetEnv(name).has_value()) {
      std::fprintf(stderr,
                   "perfbench: %s is set; it changes the measured program, "
                   "unset it\n",
                   name);
      return 2;
    }
  }
  const auto threads = dphist::GetEnv("DPHIST_THREADS");
  if (!threads.has_value() || *threads != std::to_string(kPoolWidth) ||
      dphist::ThreadPool::Global().thread_count() != kPoolWidth) {
    std::fprintf(stderr, "perfbench: pin the pool with DPHIST_THREADS=%zu\n",
                 kPoolWidth);
    return 2;
  }
  const std::size_t connections =
      args.workload == Workload::kHerd ? kHerdConnections : kHotConnections;
  if (kGeneratorThreads + kEventLoopThreads + kPoolWidth > Nproc() ||
      connections > Nproc()) {
    std::fprintf(stderr,
                 "perfbench: needs %zu cores for the generator, the event "
                 "loop and the pool; this machine has %zu\n",
                 kGeneratorThreads + kEventLoopThreads + kPoolWidth, Nproc());
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  dphist::obs::Registry::Global().set_enabled(true);

  const Inputs inputs = MakeInputs(args.workload, args.seed, args.seconds);
  std::printf("perfbench env %s workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              EnvSummary().c_str(), WorkloadName(args.workload), args.seed,
              args.seconds, args.trace ? 1 : 0);

  // Set up several times; the last stack serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int k = 0; k < kSetups; ++k) {
    fixture.reset();
    auto created = Fixture::Create(inputs, args.work_dir);
    if (!created.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    fixture = std::move(created).value();
    setup_s.push_back(fixture->setup_seconds());
  }

  Runner runner(args, inputs, fixture.get());
  dphist::serve::ReleaseServer& server = fixture->server();
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };
  Status status = runner.Start();
  if (!status.ok()) {
    return fail(status);
  }
  auto dense_before = ReadLedger(server, DenseNamespace());
  auto sparse_before = ReadLedger(server, SparseNamespace());
  if (!dense_before.ok() || !sparse_before.ok()) {
    return fail(!dense_before.ok() ? dense_before.status()
                                   : sparse_before.status());
  }
  status = runner.WarmUp();
  if (!status.ok()) {
    return fail(status);
  }
  auto stats_before = runner.Statsz();
  if (!stats_before.ok()) {
    return fail(stats_before.status());
  }
  // A traced run splits its measuring time between the untraced and the
  // traced phase, so every run measures for --seconds in total.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  auto untraced = runner.Measure(phase_seconds, nullptr);
  if (!untraced.ok()) {
    return fail(untraced.status());
  }
  auto stats_after = runner.Statsz();
  if (!stats_after.ok()) {
    return fail(stats_after.status());
  }
  Trace trace;
  dphist::Result<EndToEnd> traced = EndToEnd{};
  if (args.trace) {
    trace.Reserve(untraced.value().requests * 3 / 2 + 4096);
    traced = runner.Measure(phase_seconds, &trace);
    if (!traced.ok()) {
      return fail(traced.status());
    }
  }

  // Verification gate, outside every timed phase.
  if (args.inject == "double_charge") {
    dphist::serve::JournalRecord charge;
    charge.type = dphist::serve::JournalRecord::Type::kCharge;
    charge.key = DenseNamespace();
    charge.epsilon = kDenseEpsilon;
    charge.label = "injected";
    dphist::serve::ReplayResult replay;
    replay.records.push_back(charge);
    auto recovered = server.Recover(replay);
    if (!recovered.ok()) {
      return fail(recovered.status());
    }
  }
  auto dense_after = ReadLedger(server, DenseNamespace());
  auto sparse_after = ReadLedger(server, SparseNamespace());
  if (!dense_after.ok() || !sparse_after.ok()) {
    return fail(!dense_after.ok() ? dense_after.status()
                                  : sparse_after.status());
  }
  const std::size_t fresh = runner.FreshKeysSent();
  const double spent = dense_after.value().spent - dense_before.value().spent;
  const double expected_spent = static_cast<double>(fresh) * kDenseEpsilon;
  const bool ledger_ok =
      dense_after.value().charges - dense_before.value().charges == fresh &&
      std::fabs(spent - expected_spent) <= 1e-9 * (1.0 + expected_spent) &&
      sparse_after.value().charges == sparse_before.value().charges;
  std::printf("perfbench ledger fresh_keys=%zu charges=%zu spent=%.6f %s\n",
              fresh,
              dense_after.value().charges - dense_before.value().charges,
              spent, ledger_ok ? "ok" : "MISMATCH");
  if (!ledger_ok) {
    runner.AddFailure();
  }
  if (args.workload != Workload::kHotRead) {
    status = runner.VerifyColdAnswers();
    if (!status.ok()) {
      return fail(status);
    }
  }

  for (const auto& [name, value] : stats_after.value().counters) {
    const double delta = Delta(stats_before.value(), stats_after.value(), name);
    if (delta != 0.0) {
      std::printf("perfbench statsz_delta %s %.17g\n", name.c_str(), delta);
    }
  }
  for (const auto& [name, value] : stats_after.value().distributions) {
    const auto before = stats_before.value().distributions.find(name);
    const double count =
        value.first - (before == stats_before.value().distributions.end()
                           ? 0.0
                           : before->second.first);
    if (count != 0.0) {
      std::printf("perfbench statsz_delta %s count=%.17g mean=%.17g\n",
                  name.c_str(), count,
                  DeltaMean(stats_before.value(), stats_after.value(), name));
    }
  }
  const double setup_median = Median(setup_s);
  std::string setup_list;
  for (const double s : setup_s) {
    setup_list += (setup_list.empty() ? "" : " ") + Num(s);
  }
  PrintE2e(args.workload, untraced.value());
  if (args.workload == Workload::kHotRead) {
    std::printf("perfbench metric rss_mb = %.6g MB (peak resident set at the "
                "end of the timed phase)\n",
                untraced.value().rss_mb);
  } else {
    std::printf("perfbench metric rss_mb = %.6g MB (peak resident set after "
                "%zu timed answers; %.6g MB at the end of the run)\n",
                untraced.value().rss_mb,
                std::min(untraced.value().requests, kRssColdAnswers),
                PeakRssMb());
  }
  std::printf("perfbench metric setup_s = %.6g s (median of %zu set-ups: %s)\n",
              setup_median, setup_s.size(), setup_list.c_str());

  std::vector<LayerMetric> layer_metrics;
  bool correct = runner.failed() == 0;
  if (args.trace) {
    PrintE2e(args.workload, traced.value());
    LayerContext context;
    context.workload = args.workload;
    context.inputs = &inputs;
    context.fixture = fixture.get();
    double latency_sum_ms = 0.0;
    for (const auto& [i, latency_ms] : untraced.value().cold_samples) {
      context.cold_timed.push_back(i);
      latency_sum_ms += latency_ms;
    }
    context.e2e_us =
        args.workload == Workload::kHotRead
            ? 1e6 / untraced.value().ops_per_s
            : latency_sum_ms * 1e3 /
                  static_cast<double>(untraced.value().cold_samples.size());
    context.server_us =
        DeltaMean(stats_before.value(), stats_after.value(), "net/request_ms") *
        1e3;
    auto replayed = ReplayLayers(context, &trace);
    if (!replayed.ok()) {
      return fail(replayed.status());
    }
    const LayerReport report = std::move(replayed).value();
    layer_metrics = report.metrics;
    const Stats& before = stats_before.value();
    const Stats& after = stats_after.value();
    const double requests = static_cast<double>(untraced.value().requests);
    const double cold_requests =
        args.workload == Workload::kHotRead ? 0.0 : requests;
    layer_metrics.push_back(
        {"net.zero_copy_bytes_per_read",
         Ratio(Delta(before, after, "net/bytes_zero_copy"), requests),
         "B/req"});
    layer_metrics.push_back(
        {"net.coalesced_share",
         Ratio(Delta(before, after, "net/coalesced_requests") -
                   Delta(before, after, "net/coalesced_batches"),
               cold_requests),
         "ratio"});
    const double frame_hits = Delta(before, after, "serve/frame_cache_hits");
    layer_metrics.push_back(
        {"serve.frame_hit_ratio",
         Ratio(frame_hits,
               frame_hits + Delta(before, after, "serve/frame_cache_misses")),
         "ratio"});
    const double cache_hits = Delta(before, after, "serve/cache/hits");
    layer_metrics.push_back(
        {"serve.cache_hit_ratio",
         Ratio(cache_hits,
               cache_hits + Delta(before, after, "serve/cache/misses")),
         "ratio"});
    // In-phase stage means from the server's own obs distributions, over
    // exactly the untraced phase's requests.
    const std::string publisher = args.workload == Workload::kHerd
                                      ? "structure_first"
                                      : "noise_first";
    layer_metrics.push_back(
        {"net.request_ms.in_phase",
         DeltaMean(before, after, "net/request_ms"), "ms"});
    layer_metrics.push_back({"serve.batch_ms.in_phase",
                             DeltaMean(before, after, "serve/batch"), "ms"});
    layer_metrics.push_back(
        {"publish.ms.in_phase",
         DeltaMean(before, after, "publisher/" + publisher), "ms"});
    layer_metrics.push_back(
        {"vopt.solve_ms.in_phase",
         DeltaMean(before, after, "serve/batch/vopt/solve"), "ms"});
    const EndToEnd& u = untraced.value();
    const EndToEnd& t = traced.value();
    // Tracing overhead: the share by which the traced phase is worse than
    // the untraced one (negative when it happened to be better).
    for (const auto& [name, base, with, higher_is_better] :
         {std::tuple{"ops_per_s", u.ops_per_s, t.ops_per_s, true},
          std::tuple{"p50_ms", u.p50_ms, t.p50_ms, false},
          std::tuple{"tail_ms", u.tail_ms, t.tail_ms, false},
          std::tuple{"cpu_us_per_op", u.cpu_us_per_op, t.cpu_us_per_op,
                     false}}) {
      layer_metrics.push_back(
          {std::string("trace.overhead.") + name,
           Ratio(higher_is_better ? base - with : with - base, base),
           "ratio"});
    }

    // Trace file: header, spans, then the per-layer summary.
    std::vector<std::string> head;
    dphist::obs::JsonObjectWriter header;
    header.Str("type", "header")
        .Str("workload", WorkloadName(args.workload))
        .Int("seed", args.seed)
        .Num("seconds", args.seconds)
        .Int("nproc", Nproc())
        .Int("pool_width", dphist::ThreadPool::Global().thread_count())
        .Str("build_type", PERFBENCH_BUILD_TYPE)
        .Str("obs", dphist::obs::Enabled() ? "on" : "off")
        .Str("fsync", "every_record")
        .Str("transport", "loopback")
        .Int("spans", trace.size())
        .Int("request_spans", trace.Count("request"))
        .Int("request_spans_written",
             std::min(trace.Count("request"), kMaxWrittenRequestSpans));
    head.push_back(header.Finish());
    std::vector<std::string> tail;
    for (const LayerMetric& metric : layer_metrics) {
      dphist::obs::JsonObjectWriter line;
      line.Str("type", "metric")
          .Str("name", metric.name)
          .Num("value", metric.value)
          .Str("unit", metric.unit);
      tail.push_back(line.Finish());
    }
    dphist::obs::JsonObjectWriter residual_line;
    residual_line.Str("type", "residual")
        .Str("workload", WorkloadName(args.workload))
        .Num("e2e_us", report.e2e_us)
        .Num("stages_us", report.stages_us)
        .Num("residual_us", report.e2e_us - report.stages_us);
    tail.push_back(residual_line.Finish());
    const std::string path = args.work_dir + "/trace-" +
                             WorkloadName(args.workload) + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    status = trace.Write(path, head, tail, "request",
                         kMaxWrittenRequestSpans);
    if (!status.ok()) {
      return fail(status);
    }
    std::printf("perfbench trace %s (%zu spans)\n", path.c_str(),
                trace.size());
    for (const LayerMetric& metric : layer_metrics) {
      std::printf("perfbench layer %s = %.6g %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    }
  }

  // The result line.
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (args.trace) {
    for (const LayerMetric& metric : layer_metrics) {
      metrics.emplace_back(metric.name, metric.value, metric.unit);
    }
  } else {
    // The gated end-to-end metrics. Throughput and latency are printed
    // above but not gated: across ten runs of identical code on a shared
    // VM their interquartile range reached 25-31% of the median
    // (README.md).
    const EndToEnd& e2e = untraced.value();
    metrics = {{"cpu_us_per_op", e2e.cpu_us_per_op, "us"},
               {"rss_mb", e2e.rss_mb, "MB"},
               {"setup_s", setup_median, "s"}};
  }
  std::string json = "{\"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (!std::isfinite(value)) {
      correct = false;
    }
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            Num(std::isfinite(value) ? value : 0.0) + ", \"unit\": \"" + unit +
            "\"}";
  }
  json += "}}";
  const std::size_t attempted = runner.attempted();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, %s\n",
              correct ? "true" : "false", attempted, runner.failed(),
              json.substr(1).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage();
  }
  return perfbench::Run(args);
}
