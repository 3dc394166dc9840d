// The sealed-snapshot serving fast path, end to end: encoded frames are
// memoized per release and byte-identical to a fresh encode in both
// codecs, republishing under a different epsilon/seed or recovering from
// the journal never serves a stale frame (a frame lives and dies with its
// SealedRelease), stale-degraded batches are answered from the degraded
// release itself, and the inline fast lane returns bit-identical answers
// to the dispatched path. Runs under TSan at DPHIST_THREADS 1/4 in CI
// (label `servefast`).

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/algorithms/registry.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/histogram.h"
#include "dphist/net/client.h"
#include "dphist/net/http.h"
#include "dphist/net/server.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/obs.h"
#include "dphist/query/range_query.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_cache.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace net {
namespace {

using serve::ReleaseKey;
using serve::ReleaseServer;
using serve::SealedRelease;
using serve::ServeRequest;

Histogram TestTruth(std::size_t bins = 64) {
  std::vector<double> counts(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    counts[i] = static_cast<double>((i * 13 + 5) % 31);
  }
  return Histogram(std::move(counts));
}

WireQueryRequest TestQuery(double epsilon = 0.5, std::uint64_t seed = 42) {
  WireQueryRequest query;
  query.request.publisher = "noise_first";
  query.request.epsilon = epsilon;
  query.request.seed = seed;
  query.queries = {{0, 8}, {3, 5}, {10, 64}, {0, 64}, {63, 64}};
  return query;
}

// A running NetServer over a fresh single-tenant ReleaseServer.
struct TestStack {
  explicit TestStack(std::size_t threads, NetServerOptions options = {},
                     double total_epsilon = 100.0,
                     serve::Journal* journal = nullptr)
      : pool(threads) {
    serve::ReleaseServerOptions serve_options;
    serve_options.pool = &pool;
    serve_options.journal = journal;
    release_server = std::make_unique<ReleaseServer>(serve_options);
    EXPECT_TRUE(release_server
                    ->AddDataset(serve::DefaultTenantKey(), TestTruth(),
                                 total_epsilon)
                    .ok());
    options.pool = &pool;
    server = std::make_unique<NetServer>(release_server.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestStack() { server->Stop(); }

  // Raw /v1/release round trip: the undecoded response body, so frames
  // can be compared byte for byte.
  Result<std::string> ReleaseBody(const WireQueryRequest& query,
                                  bool binary) {
    NetClient client;
    DPHIST_RETURN_IF_ERROR(client.Connect("127.0.0.1", server->port()));
    HttpMessage request;
    request.method = "POST";
    request.target = "/v1/release";
    request.headers["content-type"] =
        binary ? kContentTypeBinary : kContentTypeJson;
    request.body =
        binary ? EncodeQueryRequest(query) : EncodeQueryRequestJson(query);
    DPHIST_ASSIGN_OR_RETURN(HttpMessage response,
                            client.RoundTrip(request));
    if (response.status != 200) {
      return Status::Internal("release failed: HTTP " +
                              std::to_string(response.status) + " " +
                              response.body);
    }
    return response.body;
  }

  Result<WireBatchAnswer> Query(const WireQueryRequest& query, bool binary) {
    NetClient client;
    DPHIST_RETURN_IF_ERROR(client.Connect("127.0.0.1", server->port()));
    return client.Query(query, binary);
  }

  ThreadPool pool;
  std::unique_ptr<ReleaseServer> release_server;
  std::unique_ptr<NetServer> server;
};

// --- SealedRelease frame memo ---

TEST(SealedReleaseTest, EncodedFrameEncodesOnceAndShares) {
  SealedRelease release(ReleaseKey{"t", "d", 1, "noise_first", 0.5, 7},
                        TestTruth());
  std::atomic<int> encodes{0};
  auto encode = [&encodes] {
    encodes.fetch_add(1);
    return std::string("frame-bytes");
  };
  const auto first =
      release.EncodedFrame(SealedRelease::FrameCodec::kBinary, encode);
  const auto second =
      release.EncodedFrame(SealedRelease::FrameCodec::kBinary, encode);
  EXPECT_EQ(encodes.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // the same shared bytes
  EXPECT_EQ(*first, "frame-bytes");
  // A different codec is a different slot.
  const auto json = release.EncodedFrame(SealedRelease::FrameCodec::kJson,
                                         [] { return std::string("{}"); });
  EXPECT_EQ(*json, "{}");
  EXPECT_EQ(encodes.load(), 1);
}

TEST(SealedReleaseTest, ConcurrentEncodedFrameCallersShareOneEncode) {
  SealedRelease release(ReleaseKey{"t", "d", 1, "noise_first", 0.5, 7},
                        TestTruth());
  std::atomic<int> encodes{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const std::string>> frames(8);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    threads.emplace_back([&, i] {
      frames[i] = release.EncodedFrame(
          SealedRelease::FrameCodec::kBinary, [&encodes] {
            encodes.fetch_add(1);
            return std::string("once");
          });
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(encodes.load(), 1);
  for (const auto& frame : frames) {
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(*frame, "once");
  }
}

TEST(SealedReleaseTest, RangeSumMatchesHistogramAfterSealing) {
  const Histogram truth = TestTruth();
  SealedRelease release(ReleaseKey{}, truth);
  EXPECT_EQ(release.size(), truth.size());
  for (std::size_t begin = 0; begin < truth.size(); begin += 7) {
    for (std::size_t end = begin + 1; end <= truth.size(); end += 5) {
      EXPECT_DOUBLE_EQ(release.RangeSum(begin, end),
                       truth.RangeSumUnchecked(begin, end));
    }
  }
}

// --- http head/body split invariant ---

TEST(HttpSerializeTest, ResponseHeadPlusBodyEqualsSerializeResponse) {
  HttpMessage message;
  message.status = 200;
  message.headers["content-type"] = kContentTypeBinary;
  message.headers["x-dphist-status"] = "OK";
  message.body = std::string("\x01\x02zero\x00copy", 11);
  EXPECT_EQ(SerializeResponseHead(message, message.body.size()) +
                message.body,
            SerializeResponse(message));
  message.body.clear();
  EXPECT_EQ(SerializeResponseHead(message, 0), SerializeResponse(message));
}

TEST(HttpSerializeTest, ResponseHeadAppendsSerializeResponseHead) {
  for (const bool close : {false, true}) {
    HttpMessage message;
    message.status = 200;
    message.headers["content-type"] = kContentTypeBinary;
    message.headers["x-dphist-status"] = "OK";
    if (close) {
      message.headers["connection"] = "close";
    }
    const ResponseHead head(message);
    const std::size_t lengths[] = {0, 9, 10, 65536, std::size_t{1} << 40};
    for (const std::size_t body_len : lengths) {
      std::string out = "before";
      head.Append(out, body_len);
      EXPECT_EQ(out, "before" + SerializeResponseHead(message, body_len))
          << body_len;
    }
  }
}

// --- frame identity and invalidation over the wire ---

TEST(ServeFastTest, CachedFrameBytesIdenticalToFreshEncodeBothCodecs) {
  // The same release requested cold (published and encoded by a worker),
  // hot (the memoized frame off the fast lane) and from a handler_hook
  // server (every request dispatched) must be byte-identical, in both
  // codecs, to a direct publish encoded here with the wire codec —
  // publishers are deterministic in (histogram, epsilon, seed).
  const WireQueryRequest query = TestQuery();
  auto publisher = PublisherRegistry::Make(query.request.publisher);
  ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
  Rng rng(query.request.seed);
  auto direct =
      publisher.value()->Publish(TestTruth(), query.request.epsilon, rng);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  WireHistogram reference;
  reference.key = {"default", "default", FingerprintHistogram(TestTruth()),
                   query.request.publisher, query.request.epsilon,
                   query.request.seed};
  reference.counts = direct.value().counts();

  TestStack cached(2);
  NetServerOptions dispatch_options;
  dispatch_options.handler_hook = [] {};
  TestStack dispatched(2, dispatch_options);
  for (const bool binary : {true, false}) {
    auto cold = cached.ReleaseBody(query, binary);
    auto hot = cached.ReleaseBody(query, binary);
    auto dispatched_cold = dispatched.ReleaseBody(query, binary);
    auto dispatched_hot = dispatched.ReleaseBody(query, binary);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_TRUE(hot.ok()) << hot.status().ToString();
    ASSERT_TRUE(dispatched_cold.ok()) << dispatched_cold.status().ToString();
    ASSERT_TRUE(dispatched_hot.ok()) << dispatched_hot.status().ToString();
    const std::string fresh = binary ? EncodeHistogram(reference)
                                     : EncodeHistogramJson(reference);
    EXPECT_EQ(cold.value(), fresh);
    EXPECT_EQ(hot.value(), fresh);
    EXPECT_EQ(dispatched_cold.value(), fresh);
    EXPECT_EQ(dispatched_hot.value(), fresh);
  }
}

TEST(ServeFastTest, RepublishUnderDifferentEpsilonOrSeedGetsFreshFrame) {
  // Frames are keyed to their sealed release: a different epsilon or seed
  // is a different release and must never surface another key's cached
  // bytes, in either codec.
  TestStack stack(2);
  for (const bool binary : {true, false}) {
    auto base = stack.ReleaseBody(TestQuery(0.5, 42), binary);
    auto other_epsilon = stack.ReleaseBody(TestQuery(0.9, 42), binary);
    auto other_seed = stack.ReleaseBody(TestQuery(0.5, 43), binary);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(other_epsilon.ok());
    ASSERT_TRUE(other_seed.ok());
    EXPECT_NE(base.value(), other_epsilon.value());
    EXPECT_NE(base.value(), other_seed.value());
    EXPECT_NE(other_epsilon.value(), other_seed.value());
    // And each key re-served hot still returns its own bytes.
    auto base_again = stack.ReleaseBody(TestQuery(0.5, 42), binary);
    ASSERT_TRUE(base_again.ok());
    EXPECT_EQ(base.value(), base_again.value());
  }
}

TEST(ServeFastTest, StaleDegradeAnswersFromDegradedReleaseNotStaleFrame) {
  // Budget allows exactly one publication. A later query at a different
  // epsilon degrades (stale=true, served = the old release's key), and
  // /v1/release for the refused key must fail typed — never hand back
  // the old release's cached frame under the new key. Both codecs.
  NetServerOptions options;
  TestStack stack(2, options, /*total_epsilon=*/1.0);
  const WireQueryRequest first = TestQuery(1.0, 42);
  const WireQueryRequest refused = TestQuery(3.0, 99);
  for (const bool binary : {true, false}) {
    auto seeded = stack.Query(first, binary);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    EXPECT_FALSE(seeded.value().stale);

    auto degraded = stack.Query(refused, binary);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded.value().stale);
    EXPECT_EQ(degraded.value().served.epsilon, 1.0);
    EXPECT_EQ(degraded.value().served.seed, 42u);
    // The stale answers are the OLD release's answers, not garbage from a
    // mismatched frame.
    EXPECT_EQ(degraded.value().answers, seeded.value().answers);

    auto release = stack.ReleaseBody(refused, binary);
    EXPECT_FALSE(release.ok());  // typed refusal, no stale frame
  }
}

TEST(ServeFastTest, RecoveredReleaseServesIdenticalFrameBytes) {
  char tmpl[] = "/tmp/dphist_servefast_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir(tmpl);
  const std::string path = dir + "/events.jnl";
  const WireQueryRequest query = TestQuery();

  std::string binary_before;
  std::string json_before;
  {
    auto journal = serve::Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    TestStack stack(2, {}, 100.0, journal.value().get());
    auto binary_body = stack.ReleaseBody(query, true);
    auto json_body = stack.ReleaseBody(query, false);
    ASSERT_TRUE(binary_body.ok());
    ASSERT_TRUE(json_body.ok());
    binary_before = std::move(binary_body).value();
    json_before = std::move(json_body).value();
  }

  // Crash-restart: a new server recovers the journal; the replayed
  // release gets a fresh SealedRelease whose lazily rebuilt frames must
  // be byte-identical to the pre-crash ones, and hot re-requests must
  // serve the memoized frame (hit counter moves).
  auto replayed = serve::ReplayJournalFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  TestStack stack(2);
  auto recovered = stack.release_server->Recover(replayed.value());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().releases_replayed, 1u);

  obs::Registry::Global().set_enabled(true);
  obs::Counter& frame_hits =
      obs::Registry::Global().GetCounter("serve/frame_cache_hits");
  obs::Counter& frame_misses =
      obs::Registry::Global().GetCounter("serve/frame_cache_misses");
  const std::uint64_t hits_before = frame_hits.value();
  const std::uint64_t misses_before = frame_misses.value();

  auto binary_after = stack.ReleaseBody(query, true);
  auto json_after = stack.ReleaseBody(query, false);
  auto binary_hot = stack.ReleaseBody(query, true);
  ASSERT_TRUE(binary_after.ok()) << binary_after.status().ToString();
  ASSERT_TRUE(json_after.ok()) << json_after.status().ToString();
  ASSERT_TRUE(binary_hot.ok()) << binary_hot.status().ToString();
  EXPECT_EQ(binary_before, binary_after.value());
  EXPECT_EQ(json_before, json_after.value());
  EXPECT_EQ(binary_before, binary_hot.value());
  EXPECT_EQ(frame_misses.value(), misses_before + 2);  // one per codec
  EXPECT_GE(frame_hits.value(), hits_before + 1);      // the hot re-request
  obs::Registry::Global().set_enabled(false);

  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

// --- fast lane vs dispatched path ---

TEST(ServeFastTest, FastLaneAnswersBitIdenticalToDispatchedPath) {
  // The reference server's handler_hook sends every request, hot ones
  // included, to a worker.
  NetServerOptions dispatch_options;
  dispatch_options.handler_hook = [] {};
  TestStack cached(4);
  TestStack dispatched(4, dispatch_options);
  const WireQueryRequest query = TestQuery();
  for (const bool binary : {true, false}) {
    auto cold = cached.Query(query, binary);     // publishes, dispatched
    auto hot = cached.Query(query, binary);      // inline fast lane
    auto reference_cold = dispatched.Query(query, binary);
    auto reference_hot = dispatched.Query(query, binary);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_TRUE(hot.ok()) << hot.status().ToString();
    ASSERT_TRUE(reference_cold.ok()) << reference_cold.status().ToString();
    ASSERT_TRUE(reference_hot.ok()) << reference_hot.status().ToString();
    EXPECT_EQ(cold.value().answers, hot.value().answers);
    EXPECT_EQ(cold.value().answers, reference_cold.value().answers);
    EXPECT_EQ(hot.value().answers, reference_hot.value().answers);
    EXPECT_TRUE(hot.value().cache_hit);
    EXPECT_TRUE(reference_hot.value().cache_hit);
  }
}

TEST(ServeFastTest, FastLaneReportsOutOfDomainQueriesTyped) {
  TestStack stack(2);
  WireQueryRequest query = TestQuery();
  ASSERT_TRUE(stack.Query(query, true).ok());  // seal the release
  query.queries.push_back({0, 100000});        // beyond the 64-bin domain
  auto bad = stack.Query(query, true);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --- serve-layer fast lane primitives ---

TEST(ServeFastTest, TryAnswerCachedMatchesAnswerBatchAfterSealing) {
  ReleaseServer server(TestTruth(), 100.0);
  const ServeRequest request{"noise_first", 0.5, 7};
  const std::vector<RangeQuery> queries = {{0, 8}, {3, 5}, {10, 64}};

  serve::BatchAnswer fast;
  auto miss = server.TryAnswerCached(serve::DefaultTenantKey(), queries,
                                     request, &fast);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value());  // nothing sealed yet — no publish, no charge
  EXPECT_DOUBLE_EQ(server.ledger().spent_epsilon(), 0.0);

  auto full = server.AnswerBatch(queries, request);
  ASSERT_TRUE(full.ok());
  auto hit = server.TryAnswerCached(serve::DefaultTenantKey(), queries,
                                    request, &fast);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.value());
  EXPECT_TRUE(fast.cache_hit);
  EXPECT_FALSE(fast.stale);
  EXPECT_EQ(fast.answers, full.value().answers);
  EXPECT_EQ(fast.served, full.value().served);
}

TEST(ServeFastTest, TryGetCachedNeverPublishes) {
  ReleaseServer server(TestTruth(), 100.0);
  const ServeRequest request{"noise_first", 0.5, 7};
  EXPECT_EQ(server.TryGetCached(serve::DefaultTenantKey(), request),
            nullptr);
  EXPECT_EQ(server.cache().size(), 0u);
  ASSERT_TRUE(server.GetRelease(request).ok());
  const auto cached =
      server.TryGetCached(serve::DefaultTenantKey(), request);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->key().seed, 7u);
}

TEST(ServeFastTest, LookupServingCountsHitsButNeverMisses) {
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  serve::ReleaseCache cache;
  const ReleaseKey key{"t", "d", 1, "noise_first", 0.5, 7};
  obs::Counter& hits = obs::Registry::Global().GetCounter("serve/cache/hits");
  obs::Counter& misses =
      obs::Registry::Global().GetCounter("serve/cache/misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  EXPECT_EQ(cache.LookupServing(key), nullptr);
  EXPECT_EQ(hits.value(), hits0);    // a null lookup is not a hit
  EXPECT_EQ(misses.value(), misses0);  // ... and not a miss either
  auto published = cache.GetOrPublish(key, [&key] {
    return Result<std::shared_ptr<SealedRelease>>(
        std::make_shared<SealedRelease>(key, TestTruth()));
  });
  ASSERT_TRUE(published.ok());
  const std::uint64_t misses1 = misses.value();
  EXPECT_NE(cache.LookupServing(key), nullptr);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(misses.value(), misses1);
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

// --- parallel AnswerQueries determinism ---

TEST(ServeFastTest, ParallelAnswerQueriesBitIdenticalAtAnyWidth) {
  const Histogram truth = TestTruth(4096);
  std::vector<RangeQuery> queries;
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::size_t begin = (i * 37) % 4000;
    queries.push_back({begin, begin + 1 + (i % 91)});
  }
  auto serial = AnswerQueries(truth, queries,
                              AnswerQueriesOptions{nullptr, SIZE_MAX});
  ASSERT_TRUE(serial.ok());
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(width);
    auto parallel =
        AnswerQueries(truth, queries, AnswerQueriesOptions{&pool, 1});
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.value(), parallel.value()) << "width " << width;
  }
}

// --- loopback zero-copy accounting ---

TEST(ServeFastTest, ZeroCopyBytesAndFrameHitsRecordOnHotReleases) {
  obs::Registry::Global().set_enabled(true);
  obs::Counter& zero_copy =
      obs::Registry::Global().GetCounter("net/bytes_zero_copy");
  obs::Counter& frame_hits =
      obs::Registry::Global().GetCounter("serve/frame_cache_hits");
  const std::uint64_t zero_copy0 = zero_copy.value();
  const std::uint64_t frame_hits0 = frame_hits.value();
  TestStack stack(2);
  const WireQueryRequest query = TestQuery();
  ASSERT_TRUE(stack.ReleaseBody(query, true).ok());
  auto hot = stack.ReleaseBody(query, true);
  ASSERT_TRUE(hot.ok());
  EXPECT_GT(zero_copy.value(), zero_copy0);
  EXPECT_GT(frame_hits.value(), frame_hits0);
  obs::Registry::Global().set_enabled(false);
}

}  // namespace
}  // namespace net
}  // namespace dphist
