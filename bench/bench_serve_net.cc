// Network front-end benchmark: end-to-end loopback latency and throughput
// of the HTTP/1.1 query server at 1/4/16/64 concurrent keep-alive
// clients, plus a JSON-codec row to price the fallback against the binary
// wire format and a pipelined row to measure server-side capacity. The
// cache is warmed first, so every request is a cached-release answer on
// the inline fast lane — the bench measures the wire path (framing,
// parse, fast lane, codec) rather than the publisher.
//
// Expected shape: single-client binary QPS well above 10k on loopback
// (one round trip is a frame decode plus a handful of prefix-sum
// subtractions); p99 a small multiple of p50; JSON slower than binary by
// the number-formatting cost; QPS rising with client count until the
// single event loop saturates, and the pipelined row well above every
// ping-pong row. qps is reported for the human table and the JSON rows
// but excluded from the regression gate (IGNORED_FIELDS) — absolute
// throughput is a machine property, the gated *_ms latencies already
// catch regressions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dphist/bench_util/table.h"
#include "dphist/common/thread_pool.h"
#include "dphist/net/client.h"
#include "dphist/net/server.h"
#include "dphist/net/wire_codec.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/release_server.h"

namespace {

double Percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[index];
}

}  // namespace

int main() {
  const std::size_t reps = dphist_bench::Repetitions(3);
  const dphist::Dataset dataset = dphist_bench::Suite()[1];  // nettrace
  const std::size_t n = dataset.histogram.size();
  constexpr std::size_t kBatchSize = 64;
  const std::size_t requests_per_client = 500 * reps;
  dphist_bench::BenchJsonWriter json("serve_net");

  std::printf("== Serve/net: loopback HTTP query latency on %s "
              "(n=%zu, batch=%zu, reps=%zu, threads=%zu) ==\n\n",
              dataset.name.c_str(), n, kBatchSize, reps,
              dphist_bench::Threads());

  dphist::serve::ReleaseServer server(dataset.histogram,
                                      /*total_epsilon=*/1.0e9);
  dphist::net::NetServer net_server(&server);
  const dphist::Status started = net_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  dphist::Rng workload_rng(21);
  auto queries =
      dphist::RandomRangeWorkload(n, kBatchSize, workload_rng);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload failed\n");
    return 1;
  }
  dphist::net::WireQueryRequest query;
  query.request.publisher = "noise_first";
  query.request.epsilon = 0.1;
  query.request.seed = 7;
  query.queries = queries.value();

  // Publish once so the measured loop is pure cached serving.
  dphist::net::NetClient warm;
  if (!warm.Connect("127.0.0.1", net_server.port()).ok() ||
      !warm.Query(query, /*binary=*/true).ok()) {
    std::fprintf(stderr, "warm-up failed\n");
    return 1;
  }

  dphist::TablePrinter table({"clients", "codec", "pipeline", "requests",
                              "p50_ms", "p99_ms", "qps"});
  struct Cell {
    std::size_t clients;
    bool binary;
    /// Requests in flight per connection: 0 = synchronous ping-pong
    /// (measures round-trip latency), >0 = HTTP/1.1 pipelined bursts of
    /// that depth (amortizes the loopback syscall floor and measures
    /// server-side capacity, since a lone in-flight request is bounded by
    /// kernel wakeup latency).
    std::size_t pipeline;
  };
  constexpr std::size_t kPipelineDepth = 32;
  const Cell cells[] = {{1, true, 0},  {4, true, 0},
                        {16, true, 0}, {64, true, 0},
                        {1, false, 0}, {4, true, kPipelineDepth}};
  for (const Cell& cell : cells) {
    std::vector<std::vector<double>> latencies(cell.clients);
    std::vector<std::thread> clients;
    clients.reserve(cell.clients);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < cell.clients; ++c) {
      clients.emplace_back([&, c]() {
        dphist::net::NetClient client;
        if (!client.Connect("127.0.0.1", net_server.port()).ok()) {
          std::fprintf(stderr, "connect failed\n");
          std::abort();
        }
        latencies[c].reserve(requests_per_client);
        if (cell.pipeline > 0) {
          // Pipelined bursts; per-request latency is burst wall time
          // divided by depth (the gateable per-request cost).
          const std::size_t bursts =
              (requests_per_client + cell.pipeline - 1) / cell.pipeline;
          for (std::size_t b = 0; b < bursts; ++b) {
            const auto before = std::chrono::steady_clock::now();
            auto burst =
                client.QueryPipelined(query, cell.binary, cell.pipeline);
            const auto after = std::chrono::steady_clock::now();
            if (!burst.ok() || burst.value().size() != cell.pipeline) {
              std::fprintf(stderr, "pipelined query failed: %s\n",
                           burst.status().ToString().c_str());
              std::abort();
            }
            const double per_request_ms =
                std::chrono::duration<double, std::milli>(after - before)
                    .count() /
                static_cast<double>(cell.pipeline);
            for (std::size_t i = 0; i < cell.pipeline; ++i) {
              latencies[c].push_back(per_request_ms);
            }
          }
          return;
        }
        for (std::size_t i = 0; i < requests_per_client; ++i) {
          const auto before = std::chrono::steady_clock::now();
          auto answer = client.Query(query, cell.binary);
          const auto after = std::chrono::steady_clock::now();
          if (!answer.ok() ||
              answer.value().answers.size() != kBatchSize) {
            std::fprintf(stderr, "query failed: %s\n",
                         answer.status().ToString().c_str());
            std::abort();
          }
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(after - before)
                  .count());
        }
      });
    }
    for (std::thread& thread : clients) {
      thread.join();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    std::vector<double> merged;
    merged.reserve(cell.clients * requests_per_client);
    for (const std::vector<double>& per_client : latencies) {
      merged.insert(merged.end(), per_client.begin(), per_client.end());
    }
    std::sort(merged.begin(), merged.end());
    const double p50 = Percentile(merged, 0.50);
    const double p99 = Percentile(merged, 0.99);
    const double qps =
        static_cast<double>(merged.size()) / (elapsed_ms / 1000.0);
    const char* codec = cell.binary ? "binary" : "json";
    const char* mode =
        cell.pipeline > 0 ? "loopback_pipelined" : "loopback_latency";
    table.AddRow({std::to_string(cell.clients), codec,
                  std::to_string(cell.pipeline),
                  std::to_string(merged.size()),
                  dphist::TablePrinter::FormatDouble(p50, 4),
                  dphist::TablePrinter::FormatDouble(p99, 4),
                  std::to_string(static_cast<long long>(qps))});
    json.AddRow(json.Row()
                    .Str("dataset", dataset.name)
                    .Str("mode", mode)
                    .Str("codec", codec)
                    .Int("pipeline", cell.pipeline)
                    .Int("clients", cell.clients)
                    .Int("n", n)
                    .Int("batch_size", kBatchSize)
                    .Int("reps", reps)
                    .Num("p50_ms", p50)
                    .Num("p99_ms", p99)
                    .Num("qps", qps));
  }
  table.Print();
  net_server.Stop();
  json.Finish();
  return 0;
}
