#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/registry.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/net/http.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/obs.h"
#include "dphist/privacy/laplace_mechanism.h"
#include "dphist/query/range_query.h"
#include "dphist/random/noise_batch.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"

namespace perfbench {
namespace {

using dphist::Status;

// Repetitions of one call inside one span for the microsecond-scale hot
// path stages, so two clock reads stay a small share of the span.
constexpr std::uint32_t kHotReps = 8;
// Recorded cold requests replayed through the hot-path stages.
constexpr std::size_t kMaxColdReplays = 512;
// Publishes (and their stage decompositions) replayed per publisher, each
// seed kPublishRepeats times; a seed's time is its fastest repeat, since
// interference only ever adds time.
constexpr std::size_t kPublishReplays = 4;
constexpr std::size_t kPublishRepeats = 2;
constexpr std::size_t kSparseReplays = 4;
constexpr std::size_t kJournalAppends = 16;
// obs: spans x records per span, per thread.
constexpr std::size_t kRecordSpans = 20;
constexpr std::uint32_t kRecordsPerSpan = 10000;
// pool: fork/join spans x calls per span, and Submit samples.
constexpr std::size_t kForkJoinSpans = 20;
constexpr std::uint32_t kForkJoinCalls = 50;
constexpr std::size_t kForkJoinItems = 1024;
constexpr std::size_t kSubmitSamples = 200;

std::atomic<double> g_sink{0.0};

void Keep(double value) { g_sink.store(value, std::memory_order_relaxed); }

// Total time and call count of one replayed call site.
struct Tally {
  double ns = 0.0;
  double calls = 0.0;
  double PerCall() const { return calls > 0.0 ? ns / calls : 0.0; }
};
using Tallies = std::map<std::string, Tally, std::less<>>;

// Times `calls` repetitions of `fn` as one span and adds it to `tallies`
// (the span is a leaf, so its self time is its duration).
template <typename Fn>
void Timed(Trace* trace, Tallies* tallies, std::string_view name,
           std::uint32_t parent, std::uint64_t request, std::uint32_t calls,
           double units_per_call, Fn&& fn) {
  const std::int64_t start = NowNs();
  for (std::uint32_t i = 0; i < calls; ++i) {
    fn();
  }
  const std::int64_t end = NowNs();
  trace->Add(name, parent, request, start, end, calls);
  Tally& tally = (*tallies)[std::string(name)];
  tally.ns += static_cast<double>(end - start);
  tally.calls += calls * units_per_call;
}

// Runs `fn` on a pool worker and waits for it.
template <typename Fn>
void OnWorker(Fn&& fn) {
  RunOnPool(1, [&](std::size_t) { fn(); });
}

dphist::net::HttpMessage ResponseHead(bool binary) {
  dphist::net::HttpMessage response;
  response.status = 200;
  response.headers["content-type"] = binary ? dphist::net::kContentTypeBinary
                                            : dphist::net::kContentTypeJson;
  response.headers["x-dphist-status"] =
      std::string(dphist::StatusCodeName(dphist::StatusCode::kOk));
  return response;
}

std::string_view AnswerSpanName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kDense1024:
      return "serve.answer.b1024";
    case RequestClass::kSparse64:
      return "serve.answer.sparse64";
    default:
      return "serve.answer.b64";
  }
}

// Replays each request through the fast lane's stages, in order, on this
// (non-worker) thread as the event loop runs them: parse, decode, the
// serve call, encode. Off the stage sum, it also times the bare cache
// lookup and the query / sparse layer under the serve call.
dphist::Result<Tallies> ReplayRequests(
    const std::vector<const Request*>& requests,
    dphist::serve::ReleaseServer& server, std::string_view root_name,
    Trace* trace) {
  Tallies tallies;
  const std::uint32_t root = trace->Begin(root_name, 0, Trace::kNoRequest);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Request& request = *requests[r];
    const std::uint32_t parent = trace->Begin("replay.request", root, r);

    dphist::net::HttpParser parser(dphist::net::HttpParser::Kind::kRequest);
    bool parsed = true;
    Timed(trace, &tallies, "net.parse", parent, r, kHotReps, 1.0, [&] {
      parser.Reset();
      std::size_t consumed = 0;
      parsed = parser.Feed(request.bytes, &consumed) ==
                   dphist::net::HttpParser::State::kComplete &&
               consumed == request.bytes.size() && parsed;
    });
    if (!parsed) {
      return Status::Internal("replayed request did not parse");
    }

    bool decoded = true;
    Timed(trace, &tallies, "net.decode", parent, r, kHotReps, 1.0, [&] {
      auto message = request.binary
                         ? dphist::net::DecodeFrame(parser.message().body)
                         : dphist::net::DecodeJson(parser.message().body);
      decoded = decoded && message.ok() &&
                message.value().type ==
                    dphist::net::WireType::kQueryRequest;
    });
    if (!decoded) {
      return Status::Internal("replayed request did not decode");
    }

    const dphist::serve::TenantKey ns = request.tenant_key();
    const dphist::serve::ServeRequest& serve_request = request.query.request;
    const auto release = server.TryGetCached(ns, serve_request);
    if (release == nullptr) {
      return Status::Internal("replayed request's release is not sealed");
    }
    const auto codec = request.binary
                           ? dphist::serve::SealedRelease::FrameCodec::kBinary
                           : dphist::serve::SealedRelease::FrameCodec::kJson;
    dphist::net::WireBatchAnswer answer;
    std::shared_ptr<const std::string> frame;
    bool served = true;
    if (request.release) {
      Timed(trace, &tallies, "serve.release", parent, r, kHotReps, 1.0, [&] {
        auto sealed = server.TryGetCached(ns, serve_request);
        frame = sealed->EncodedFrame(codec, [&] {
          return EncodeReleaseFrame(*sealed, request.binary);
        });
      });
    } else {
      Timed(trace, &tallies, AnswerSpanName(request.cls), parent, r,
            kHotReps, 1.0, [&] {
              dphist::serve::BatchAnswer batch;
              auto hit = server.TryAnswerCached(ns, request.query.queries,
                                                serve_request, &batch);
              served = served && hit.ok() && hit.value();
              answer.answers = std::move(batch.answers);
              answer.stale = batch.stale;
              answer.cache_hit = batch.cache_hit;
              answer.served = batch.served;
            });
    }
    if (!served || (request.release && (frame == nullptr || frame->empty()))) {
      return Status::Internal("replayed request missed the fast lane");
    }
    Timed(trace, &tallies, "serve.lookup", parent, r, kHotReps, 1.0, [&] {
      Keep(server.TryGetCached(ns, serve_request) != nullptr ? 1.0 : 0.0);
    });

    Timed(trace, &tallies, "net.encode", parent, r, kHotReps, 1.0, [&] {
      dphist::net::HttpMessage response = ResponseHead(request.binary);
      std::string bytes;
      if (request.release) {
        bytes = dphist::net::SerializeResponseHead(response, frame->size());
      } else {
        response.body = request.binary
                            ? dphist::net::EncodeBatchAnswer(answer)
                            : dphist::net::EncodeBatchAnswerJson(answer);
        bytes = dphist::net::SerializeResponse(response);
      }
      Keep(static_cast<double>(bytes.size()));
    });

    const auto& queries = request.query.queries;
    if (!request.release && request.cls != RequestClass::kSparse64) {
      const std::string_view name = request.cls == RequestClass::kDense1024
                                        ? "query.answer.b1024"
                                        : "query.answer.b64";
      Timed(trace, &tallies, name, parent, r, kHotReps,
            static_cast<double>(queries.size()), [&] {
              auto answers =
                  dphist::AnswerQueries(release->histogram(), queries);
              Keep(answers.value().back());
            });
    }
    if (request.cls == RequestClass::kSparse64) {
      const auto& sparse = release->sparse_histogram();
      Timed(trace, &tallies, "sparse.range_sum", parent, r, kHotReps,
            static_cast<double>(queries.size()), [&] {
              double sum = 0.0;
              for (const dphist::RangeQuery& q : queries) {
                sum += sparse.RangeSumUnchecked(q.begin, q.end);
              }
              Keep(sum);
            });
    }
    trace->End(parent);
  }
  trace->End(root);
  return tallies;
}

// Mean per-request time of the fast lane's blocking stages, in us.
double StageSumUs(const Tallies& tallies, std::size_t requests) {
  double ns = 0.0;
  for (const char* name :
       {"net.parse", "net.decode", "net.encode", "serve.answer.b64",
        "serve.answer.b1024", "serve.answer.sparse64", "serve.release"}) {
    const auto it = tallies.find(name);
    if (it != tallies.end()) {
      ns += it->second.ns / kHotReps;
    }
  }
  return requests == 0 ? 0.0 : ns / static_cast<double>(requests) * 1e-3;
}

double PerCall(const Tallies& tallies, std::string_view name) {
  const auto it = tallies.find(name);
  return it == tallies.end() ? 0.0 : it->second.PerCall();
}

// Times `publisher` on each seed on a pool worker; per seed, the fastest
// of kPublishRepeats calls, in ms.
dphist::Result<std::vector<double>> ReplayPublishes(
    std::string_view publisher, const std::vector<std::uint64_t>& seeds,
    const dphist::Histogram& truth, Trace* trace) {
  auto made = dphist::PublisherRegistry::Make(publisher);
  if (!made.ok()) {
    return made.status();
  }
  const std::string name = "publish." + std::string(publisher);
  std::vector<double> ms(seeds.size(), 0.0);
  Status status = Status::Ok();
  OnWorker([&] {
    for (std::size_t i = 0; i < seeds.size() && status.ok(); ++i) {
      for (std::size_t r = 0; r < kPublishRepeats && status.ok(); ++r) {
        dphist::Rng rng(seeds[i]);
        const std::int64_t start = NowNs();
        auto published = made.value()->Publish(truth, kDenseEpsilon, rng);
        const std::int64_t end = NowNs();
        status = published.status();
        trace->Add(name, 0, i, start, end);
        const double call_ms = static_cast<double>(end - start) * 1e-6;
        ms[i] = r == 0 ? call_ms : std::min(ms[i], call_ms);
      }
    }
  });
  DPHIST_RETURN_IF_ERROR(status);
  return ms;
}

struct NoiseFirstTimes {
  // Per seed, the fastest repeat of each call, in ms.
  std::vector<double> publish_ms;
  std::vector<double> noise_ms;
  std::vector<double> cost_table_ms;
  std::vector<double> solve_ms;
  // VOptSolver::stats() per solve, averaged over the seeds.
  double bound_scans = 0.0;
  double cost_lookups = 0.0;
};

// NoiseFirst on each seed, on a pool worker: the whole publish, then its
// stages each timed on its own — the noise draw, the interval-cost table
// over the noisy counts, and the v-opt solve at NoiseFirst's max_k. The
// publish and its stages alternate, so a seed's "rest" (k-select, expand)
// compares calls made moments apart.
dphist::Result<NoiseFirstTimes> ReplayNoiseFirst(
    const std::vector<std::uint64_t>& seeds, const dphist::Histogram& truth,
    Trace* trace) {
  auto publisher = dphist::PublisherRegistry::Make("noise_first");
  if (!publisher.ok()) {
    return publisher.status();
  }
  NoiseFirstTimes out;
  for (auto* times :
       {&out.publish_ms, &out.noise_ms, &out.cost_table_ms, &out.solve_ms}) {
    times->assign(seeds.size(), 0.0);
  }
  Status status = Status::Ok();
  // Records one call and keeps the seed's fastest.
  auto record = [&](std::string_view name, std::uint32_t parent,
                    std::size_t i, std::size_t repeat, std::int64_t start,
                    std::vector<double>* fastest) {
    const std::int64_t end = NowNs();
    trace->Add(name, parent, i, start, end);
    const double call_ms = static_cast<double>(end - start) * 1e-6;
    (*fastest)[i] = repeat == 0 ? call_ms : std::min((*fastest)[i], call_ms);
  };
  OnWorker([&] {
    const std::size_t n = truth.size();
    auto mechanism = dphist::LaplaceMechanism::Create(
        kDenseEpsilon, 1.0, dphist::NoiseModel::kAuto);
    if (!mechanism.ok()) {
      status = mechanism.status();
      return;
    }
    const dphist::NoiseModel model =
        dphist::ResolveNoiseModel(dphist::NoiseModel::kAuto);
    for (std::size_t i = 0; i < seeds.size() && status.ok(); ++i) {
      // The noisy counts the real publish computes, for the cost table.
      dphist::NoiseFirst::Details details;
      dphist::Rng details_rng(seeds[i]);
      status = dphist::NoiseFirst()
                   .PublishWithDetails(truth, kDenseEpsilon, details_rng,
                                       &details)
                   .status();
      for (std::size_t r = 0; r < kPublishRepeats && status.ok(); ++r) {
        dphist::Rng publish_rng(seeds[i]);
        std::int64_t start = NowNs();
        status = publisher.value()
                     ->Publish(truth, kDenseEpsilon, publish_rng)
                     .status();
        record("publish.noise_first", 0, i, r, start, &out.publish_ms);

        const std::uint32_t parent =
            trace->Begin("noise_first.stages", 0, i);
        std::vector<double> noisy(n);
        dphist::Rng rng(seeds[i]);
        start = NowNs();
        dphist::noise_batch::AddContinuousNoise(
            model, mechanism.value().scale(), truth.counts().data(),
            noisy.data(), n, rng);
        record("noise.draw", parent, i, r, start, &out.noise_ms);
        if (noisy != details.noisy_counts) {
          status = Status::Internal(
              "replayed noise draw differs from NoiseFirst's noisy counts");
          break;
        }

        dphist::IntervalCostTable::Options cost_options;
        cost_options.kind = dphist::CostKind::kSquared;
        cost_options.grid_step = dphist::NoiseFirst::AutoGridStep(n);
        start = NowNs();
        auto costs = dphist::IntervalCostTable::Create(details.noisy_counts,
                                                       cost_options);
        record("vopt.cost_table", parent, i, r, start, &out.cost_table_ms);
        if (!costs.ok()) {
          status = costs.status();
          break;
        }

        const std::size_t max_k =
            std::min<std::size_t>(costs.value().num_candidates(), 256);
        start = NowNs();
        auto solver = dphist::VOptSolver::Solve(costs.value(), max_k);
        record("vopt.solve", parent, i, r, start, &out.solve_ms);
        if (!solver.ok()) {
          status = solver.status();
          break;
        }
        if (r == 0) {
          out.bound_scans +=
              static_cast<double>(solver.value().stats().bound_scans);
          out.cost_lookups +=
              static_cast<double>(solver.value().stats().cost_lookups);
        }
        trace->End(parent);
      }
    }
  });
  DPHIST_RETURN_IF_ERROR(status);
  out.bound_scans /= static_cast<double>(seeds.size());
  out.cost_lookups /= static_cast<double>(seeds.size());
  return out;
}

std::vector<std::uint64_t> HotSeeds(const Inputs& inputs,
                                    std::string_view publisher,
                                    std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (const HotKey& key : inputs.hot_keys) {
    if (key.request.publisher == publisher && seeds.size() < count) {
      seeds.push_back(key.request.seed);
    }
  }
  return seeds;
}

// The first `count` distinct seeds of the untraced phase's cold requests.
std::vector<std::uint64_t> TimedSeeds(const LayerContext& context,
                                      std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (const std::size_t i : context.cold_timed) {
    const std::uint64_t seed = context.inputs->cold[i].seed;
    if (seeds.size() < count &&
        std::find(seeds.begin(), seeds.end(), seed) == seeds.end()) {
      seeds.push_back(seed);
    }
  }
  return seeds;
}

// obs::Distribution::Record from `threads` threads at once, ns per record.
std::vector<double> ReplayObsRecord(std::size_t threads, Trace* trace) {
  dphist::obs::Distribution& distribution =
      dphist::obs::Registry::Global().GetDistribution(
          "perfbench/record_probe");
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> spans(
      threads);
  std::atomic<std::size_t> ready{0};
  auto record = [&](std::size_t t) {
    ready.fetch_add(1);
    while (ready.load() < threads) {
    }
    for (std::size_t s = 0; s < kRecordSpans; ++s) {
      const std::int64_t start = NowNs();
      for (std::uint32_t i = 0; i < kRecordsPerSpan; ++i) {
        distribution.Record(static_cast<double>(i) * 1e-3);
      }
      spans[t].emplace_back(start, NowNs());
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) {
    helpers.emplace_back(record, t);
  }
  record(0);
  for (std::thread& helper : helpers) {
    helper.join();
  }
  const std::string name = "obs.record.t" + std::to_string(threads);
  std::vector<double> per_record;
  for (std::size_t t = 0; t < threads; ++t) {
    for (const auto& [start, end] : spans[t]) {
      trace->Add(name, 0, t, start, end, kRecordsPerSpan);
      per_record.push_back(static_cast<double>(end - start) /
                           kRecordsPerSpan);
    }
  }
  return per_record;
}

}  // namespace

dphist::Result<LayerReport> ReplayLayers(const LayerContext& context,
                                         Trace* trace) {
  const Inputs& inputs = *context.inputs;
  dphist::serve::ReleaseServer& server = context.fixture->server();
  const bool cold = context.workload != Workload::kHotRead;
  std::vector<LayerMetric> metrics;
  auto emit = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };

  // --- hot path: net, serve, query, sparse ---
  std::vector<const Request*> hot;
  for (const Request& request : inputs.hot_stream) {
    hot.push_back(&request);
  }
  DPHIST_ASSIGN_OR_RETURN(Tallies hot_tallies,
                          ReplayRequests(hot, server, "replay.hot", trace));
  // Cold workloads replay their own requests; classes they never send
  // (1024-query batches, sparse ranges) come from the hot stream.
  Tallies own = hot_tallies;
  std::size_t own_requests = hot.size();
  if (cold) {
    std::vector<Request> requests;
    for (std::size_t r = 0;
         r < std::min(kMaxColdReplays, context.cold_timed.size()); ++r) {
      requests.push_back(MakeColdRequest(inputs, context.cold_timed[r]));
    }
    std::vector<const Request*> sent;
    for (const Request& request : requests) {
      sent.push_back(&request);
    }
    DPHIST_ASSIGN_OR_RETURN(own,
                            ReplayRequests(sent, server, "replay.cold", trace));
    own_requests = sent.size();
  }
  emit("net.parse_us", PerCall(own, "net.parse") * 1e-3, "us");
  emit("net.decode_us", PerCall(own, "net.decode") * 1e-3, "us");
  emit("net.encode_us", PerCall(own, "net.encode") * 1e-3, "us");
  emit("serve.lookup_us", PerCall(own, "serve.lookup") * 1e-3, "us");
  emit("serve.answer_us.b64", PerCall(own, "serve.answer.b64") * 1e-3, "us");
  emit("serve.answer_us.b1024",
       PerCall(hot_tallies, "serve.answer.b1024") * 1e-3, "us");
  emit("query.answer_ns.b64", PerCall(own, "query.answer.b64"), "ns");
  emit("query.answer_ns.b1024", PerCall(hot_tallies, "query.answer.b1024"),
       "ns");
  emit("sparse.range_sum_ns", PerCall(hot_tallies, "sparse.range_sum"),
       "ns");

  // --- cold path: serve, journal, algorithms, random, hist ---
  const char* cold_publisher =
      context.workload == Workload::kHerd ? "structure_first" : "noise_first";
  std::vector<double> get_release_ms;
  Status status = Status::Ok();
  OnWorker([&] {
    for (std::size_t i = 0;
         i < std::min(kPublishReplays, inputs.replay_seeds.size()) &&
         status.ok();
         ++i) {
      dphist::serve::ServeRequest request;
      request.publisher = cold_publisher;
      request.epsilon = kDenseEpsilon;
      request.seed = inputs.replay_seeds[i];
      const std::int64_t start = NowNs();
      status = server.GetRelease(DenseNamespace(), request).status();
      const std::int64_t end = NowNs();
      trace->Add("serve.get_release", 0, i, start, end);
      get_release_ms.push_back(static_cast<double>(end - start) * 1e-6);
    }
  });
  DPHIST_RETURN_IF_ERROR(status);
  emit("serve.get_release_ms", Median(get_release_ms), "ms");

  {
    auto journal =
        dphist::serve::Journal::Open(context.fixture->dir() + "/replay.jnl");
    if (!journal.ok()) {
      return journal.status();
    }
    dphist::serve::JournalRecord charge;
    charge.type = dphist::serve::JournalRecord::Type::kCharge;
    charge.key = DenseNamespace();
    charge.epsilon = kDenseEpsilon;
    charge.label = "noise_first:seed=0";
    dphist::serve::JournalRecord publish;
    publish.type = dphist::serve::JournalRecord::Type::kPublish;
    publish.key = DenseNamespace();
    publish.publisher = "noise_first";
    publish.epsilon = kDenseEpsilon;
    publish.counts = inputs.dense_truth.counts();
    std::vector<double> charge_ms;
    std::vector<double> publish_ms;
    for (std::size_t i = 0; i < kJournalAppends; ++i) {
      for (auto* record : {&charge, &publish}) {
        const std::int64_t start = NowNs();
        DPHIST_RETURN_IF_ERROR(journal.value()->Append(*record));
        const std::int64_t end = NowNs();
        const bool is_charge = record == &charge;
        trace->Add(is_charge ? "serve.journal_charge" : "serve.journal_publish",
                   0, i, start, end);
        (is_charge ? charge_ms : publish_ms)
            .push_back(static_cast<double>(end - start) * 1e-6);
      }
    }
    emit("serve.journal_charge_ms", Median(charge_ms), "ms");
    emit("serve.journal_publish_ms", Median(publish_ms), "ms");
  }

  // Publishes replay the seeds of the untraced phase where the workload
  // published with that publisher, and the hot set's seeds otherwise.
  const std::vector<std::uint64_t> noise_first_seeds =
      context.workload == Workload::kColdPublish
          ? TimedSeeds(context, kPublishReplays)
          : HotSeeds(inputs, "noise_first", kPublishReplays);
  const std::vector<std::uint64_t> structure_first_seeds =
      context.workload == Workload::kHerd
          ? TimedSeeds(context, kPublishReplays)
          : HotSeeds(inputs, "structure_first", kPublishReplays);
  DPHIST_ASSIGN_OR_RETURN(
      NoiseFirstTimes noise_first,
      ReplayNoiseFirst(noise_first_seeds, inputs.dense_truth, trace));
  DPHIST_ASSIGN_OR_RETURN(
      std::vector<double> structure_first_ms,
      ReplayPublishes("structure_first", structure_first_seeds,
                      inputs.dense_truth, trace));
  std::vector<double> rest_ms;
  for (std::size_t i = 0; i < noise_first_seeds.size(); ++i) {
    rest_ms.push_back(noise_first.publish_ms[i] - noise_first.noise_ms[i] -
                      noise_first.cost_table_ms[i] -
                      noise_first.solve_ms[i]);
  }

  std::vector<std::uint64_t> sparse_seeds =
      HotSeeds(inputs, "sparse_pure", kSparseReplays);
  for (std::size_t i = 0; sparse_seeds.size() < kSparseReplays; ++i) {
    sparse_seeds.push_back(inputs.replay_seeds[inputs.replay_seeds.size() -
                                               1 - i]);
  }
  auto sparse_publisher = dphist::PublisherRegistry::MakeSparse("sparse_pure");
  if (!sparse_publisher.ok()) {
    return sparse_publisher.status();
  }
  std::vector<double> sparse_ms;
  OnWorker([&] {
    for (std::size_t i = 0; i < sparse_seeds.size() && status.ok(); ++i) {
      dphist::Rng rng(sparse_seeds[i]);
      const std::int64_t start = NowNs();
      status = sparse_publisher.value()
                   ->Publish(inputs.sparse_truth, kSparseEpsilon, rng)
                   .status();
      const std::int64_t end = NowNs();
      trace->Add("publish.sparse_pure", 0, i, start, end);
      sparse_ms.push_back(static_cast<double>(end - start) * 1e-6);
    }
  });
  DPHIST_RETURN_IF_ERROR(status);

  emit("publish.sparse_pure_ms", Median(sparse_ms), "ms");
  emit("publish.noise_first_ms", Median(noise_first.publish_ms), "ms");
  emit("publish.structure_first_ms", Median(structure_first_ms), "ms");
  emit("publish.noise_first_rest_ms", Median(rest_ms), "ms");
  emit("noise.draw_ms", Median(noise_first.noise_ms), "ms");
  emit("vopt.cost_table_ms", Median(noise_first.cost_table_ms), "ms");
  emit("vopt.solve_ms", Median(noise_first.solve_ms), "ms");
  emit("vopt.bound_scans", noise_first.bound_scans, "count");
  emit("vopt.cost_lookups", noise_first.cost_lookups, "count");

  // --- obs and the thread pool ---
  emit("obs.record_ns.t1", Median(ReplayObsRecord(1, trace)), "ns");
  emit("obs.record_ns.t2", Median(ReplayObsRecord(2, trace)), "ns");

  dphist::ThreadPool& pool = dphist::ThreadPool::Global();
  std::vector<double> slots(kForkJoinItems);
  std::vector<double> fork_join_us;
  for (std::size_t s = 0; s < kForkJoinSpans; ++s) {
    const std::int64_t start = NowNs();
    for (std::uint32_t c = 0; c < kForkJoinCalls; ++c) {
      pool.ParallelForChunks(0, kForkJoinItems, /*min_chunk=*/64,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 slots[i] = static_cast<double>(i + c);
                               }
                             });
    }
    const std::int64_t end = NowNs();
    trace->Add("pool.fork_join", 0, s, start, end, kForkJoinCalls);
    fork_join_us.push_back(static_cast<double>(end - start) * 1e-3 /
                           kForkJoinCalls);
  }
  Keep(slots.back());
  emit("pool.fork_join_us", Median(fork_join_us), "us");

  std::vector<double> submit_us;
  for (std::size_t s = 0; s < kSubmitSamples; ++s) {
    // The task's store is its last touch of `started`, so spinning until
    // it lands keeps the atomic alive for as long as the task uses it.
    std::atomic<std::int64_t> started{0};
    const std::int64_t submitted = NowNs();
    pool.Submit([&started] {
      started.store(NowNs(), std::memory_order_release);
    });
    std::int64_t start = 0;
    while ((start = started.load(std::memory_order_acquire)) == 0) {
    }
    trace->Add("pool.submit_start", 0, s, submitted, start);
    submit_us.push_back(static_cast<double>(start - submitted) * 1e-3);
  }
  emit("pool.submit_start_us", Median(submit_us), "us");

  // --- the residual: end-to-end time not covered by the stages ---
  LayerReport report;
  report.e2e_us = context.e2e_us;
  if (!cold) {
    // Loop time per request minus the fast lane's stages.
    report.stages_us = StageSumUs(own, own_requests);
  } else {
    // Mean latency minus the server's own time per request (dispatch to
    // answer built: pool queue, coalescing, charge, journal, publish,
    // seal, encode) and the parse and decode ahead of it.
    report.stages_us = context.server_us +
                       (PerCall(own, "net.parse") +
                        PerCall(own, "net.decode")) * 1e-3;
  }
  emit("net.unaccounted_us", report.e2e_us - report.stages_us, "us");
  report.metrics = std::move(metrics);
  return report;
}

}  // namespace perfbench
