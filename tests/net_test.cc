// The network front-end's contracts, driven over real loopback sockets:
// answers served over the wire are bit-identical to in-process
// AnswerBatch calls in either codec and at any worker-pool size, a
// saturated admission queue refuses with a typed kResourceExhausted (no
// hang, no drop — the refused client retries and succeeds), a request for
// a release another request is publishing waits on the event loop rather
// than on a worker and gets exactly the answer or error it would get
// alone, the event loop answers a sealed release without forking onto the
// pool, and protocol errors come back typed. These tests also run under
// ASan/UBSan and TSan in CI (label `net`).

#include "dphist/net/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/thread_pool.h"
#include "dphist/hist/histogram.h"
#include "dphist/net/client.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/obs.h"
#include "dphist/query/range_query.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace net {
namespace {

Histogram TestTruth(std::size_t bins = 64) {
  std::vector<double> counts(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    counts[i] = static_cast<double>((i * 7 + 3) % 23);
  }
  return Histogram(std::move(counts));
}

WireQueryRequest TestQuery(std::uint64_t seed = 42) {
  WireQueryRequest query;
  query.request.publisher = "noise_first";
  query.request.epsilon = 0.5;
  query.request.seed = seed;
  query.queries = {{0, 8}, {3, 5}, {10, 64}, {0, 64}, {63, 64}};
  return query;
}

// A running server over a fresh single-tenant ReleaseServer.
struct TestStack {
  explicit TestStack(std::size_t threads, NetServerOptions options = {},
                     double total_epsilon = 100.0)
      : pool(threads),
        release_server(TestTruth(), total_epsilon) {
    options.pool = &pool;
    server = std::make_unique<NetServer>(&release_server, options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestStack() { server->Stop(); }

  Result<WireBatchAnswer> Query(const WireQueryRequest& query, bool binary) {
    NetClient client;
    const Status connected = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return client.Query(query, binary);
  }

  ThreadPool pool;
  serve::ReleaseServer release_server;
  std::unique_ptr<NetServer> server;
};

TEST(NetTest, HealthzResponds) {
  TestStack stack(2);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  HttpMessage request;
  request.method = "GET";
  request.target = "/healthz";
  auto response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "ok\n");
}

TEST(NetTest, MetaReportsDomain) {
  TestStack stack(2);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  HttpMessage request;
  request.method = "GET";
  request.target = "/v1/meta";
  auto response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().body.find("\"domain_size\":64"),
            std::string::npos)
      << response.value().body;
}

TEST(NetTest, WireAnswersMatchInProcessBitForBit) {
  // The core correctness contract, at several pool sizes (the
  // "any DPHIST_THREADS" criterion): answers over the wire — binary AND
  // JSON codec — are bit-identical to calling AnswerBatch in-process.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    TestStack stack(threads);
    const WireQueryRequest query = TestQuery();
    auto expected = stack.release_server.AnswerBatch(
        query.queries, query.request);
    ASSERT_TRUE(expected.ok());
    for (const bool binary : {true, false}) {
      auto answer = stack.Query(query, binary);
      ASSERT_TRUE(answer.ok())
          << answer.status().ToString() << " threads=" << threads;
      ASSERT_EQ(answer.value().answers.size(),
                expected.value().answers.size());
      for (std::size_t i = 0; i < expected.value().answers.size(); ++i) {
        // Bit-level equality, not EXPECT_DOUBLE_EQ: the wire carries raw
        // IEEE-754 bits (binary) / round-trip decimals (JSON).
        EXPECT_EQ(std::memcmp(&answer.value().answers[i],
                              &expected.value().answers[i], sizeof(double)),
                  0)
            << "answer " << i << " binary=" << binary
            << " threads=" << threads;
      }
      EXPECT_EQ(answer.value().served, expected.value().served);
      EXPECT_FALSE(answer.value().stale);
    }
  }
}

TEST(NetTest, LargeBatchCrossesReadBoundaries) {
  // ~160 KB request body and ~80 KB response: exercises partial reads,
  // partial writes, and Content-Length framing across poll rounds.
  TestStack stack(2);
  WireQueryRequest query = TestQuery();
  query.queries.clear();
  for (std::size_t i = 0; i < 10000; ++i) {
    query.queries.push_back({i % 60, i % 60 + 1 + i % 4});
  }
  auto expected =
      stack.release_server.AnswerBatch(query.queries, query.request);
  ASSERT_TRUE(expected.ok());
  auto answer = stack.Query(query, /*binary=*/true);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().answers, expected.value().answers);
}

TEST(NetTest, ReleaseEndpointShipsFullHistogram) {
  TestStack stack(2);
  const WireQueryRequest query = TestQuery();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  auto released = client.Release(query, /*binary=*/true);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  auto expected = stack.release_server.GetRelease(query.request);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(released.value().counts, expected.value()->histogram().counts());
  EXPECT_EQ(released.value().key, expected.value()->key());
  // JSON path ships the identical bits.
  auto json = client.Release(query, /*binary=*/false);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().counts, released.value().counts);
}

TEST(NetTest, ErrorsAreTyped) {
  TestStack stack(2);
  // Unknown dataset -> kNotFound over the wire.
  WireQueryRequest query = TestQuery();
  query.dataset = "nope";
  auto missing = stack.Query(query, /*binary=*/true);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Same over JSON.
  auto missing_json = stack.Query(query, /*binary=*/false);
  ASSERT_FALSE(missing_json.ok());
  EXPECT_EQ(missing_json.status().code(), StatusCode::kNotFound);
  // A corrupt binary frame -> kDataLoss (HTTP 400), connection survives.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  HttpMessage corrupt;
  corrupt.method = "POST";
  corrupt.target = "/v1/query";
  corrupt.headers["content-type"] = kContentTypeBinary;
  corrupt.body = "definitely not a frame";
  auto response = client.RoundTrip(corrupt);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
  EXPECT_EQ(response.value().Header("x-dphist-status"), "DataLoss");
  // Unknown endpoint -> 404 typed.
  HttpMessage wrong;
  wrong.method = "GET";
  wrong.target = "/v2/everything";
  auto nf = client.RoundTrip(wrong);
  ASSERT_TRUE(nf.ok());
  EXPECT_EQ(nf.value().status, 404);
}

TEST(NetTest, NonFiniteEpsilonOverTheWireIsBadRequestAndChargesNothing) {
  // The binary codec carries any epsilon bits. A NaN or infinite one is a
  // typed 400 before any lookup, in both lanes, with nothing charged, and
  // the next valid request on the connection is charged once.
  TestStack stack(2);
  ASSERT_TRUE(stack.Query(TestQuery(/*seed=*/3), /*binary=*/true).ok());
  const serve::BudgetLedger& ledger = stack.release_server.ledger();
  const std::size_t charges = ledger.charge_count();
  const double spent = ledger.spent_epsilon();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    WireQueryRequest query = TestQuery(/*seed=*/3);
    query.request.epsilon = epsilon;
    for (const char* target : {"/v1/query", "/v1/release"}) {
      HttpMessage request;
      request.method = "POST";
      request.target = target;
      request.headers["content-type"] = kContentTypeBinary;
      request.body = EncodeQueryRequest(query);
      auto response = client.RoundTrip(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.value().status, 400) << target << " " << epsilon;
      EXPECT_EQ(response.value().Header("x-dphist-status"), "InvalidArgument")
          << target << " " << epsilon;
    }
  }
  EXPECT_EQ(ledger.charge_count(), charges);
  EXPECT_EQ(ledger.spent_epsilon(), spent);
  auto next = client.Query(TestQuery(/*seed=*/4), /*binary=*/true);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().served.seed, 4u);
  EXPECT_EQ(ledger.charge_count(), charges + 1);
}

TEST(NetTest, JsonSeedPastExactIntegersIsBadRequest) {
  // A JSON number that no u64 can hold is a typed 400, never a cast, and
  // the connection keeps serving.
  TestStack stack(2);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  std::string body = EncodeQueryRequestJson(TestQuery());
  const std::string seed = "\"seed\":\"42\"";
  ASSERT_NE(body.find(seed), std::string::npos) << body;
  body.replace(body.find(seed), seed.size(), "\"seed\":1e30");
  HttpMessage request;
  request.method = "POST";
  request.target = "/v1/query";
  request.headers["content-type"] = kContentTypeJson;
  request.body = body;
  auto response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_EQ(response.value().Header("x-dphist-status"), "ParseError");
  auto answer = client.Query(TestQuery(), /*binary=*/false);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
}

TEST(NetTest, BudgetExhaustionDegradesToStaleOverTheWire) {
  // Budget for exactly one publication: the second (different seed) is
  // refused by the ledger and AnswerBatch degrades to the cached release
  // — the stale flag must survive the wire.
  TestStack stack(2, {}, /*total_epsilon=*/0.5);
  auto fresh = stack.Query(TestQuery(/*seed=*/1), /*binary=*/true);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh.value().stale);
  auto degraded = stack.Query(TestQuery(/*seed=*/2), /*binary=*/true);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().stale);
  EXPECT_EQ(degraded.value().served.seed, 1u);
}

TEST(NetTest, KeepAliveServesManyRequests) {
  TestStack stack(2);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  for (int i = 0; i < 20; ++i) {
    auto answer = client.Query(TestQuery(), i % 2 == 0);
    ASSERT_TRUE(answer.ok()) << "request " << i;
  }
  EXPECT_TRUE(client.connected());
}

// Blocks the first `blocked` handler invocations until released; later
// invocations pass straight through.
class HandlerGate {
 public:
  explicit HandlerGate(int blocked) : remaining_(blocked) {}

  void Enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (remaining_ <= 0) {
      return;
    }
    --remaining_;
    ++waiting_;
    entered_.notify_all();
    released_.wait(lock, [this] { return open_; });
    --waiting_;
  }

  void AwaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_.wait(lock, [this, count] { return waiting_ >= count; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    released_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable released_;
  int remaining_;
  int waiting_ = 0;
  bool open_ = false;
};

TEST(NetTest, SaturatedAdmissionRefusesTypedThenRecovers) {
  HandlerGate gate(/*blocked=*/1);
  NetServerOptions options;
  options.max_inflight = 1;
  options.handler_hook = [&gate] { gate.Enter(); };
  TestStack stack(/*threads=*/2, options);

  // Connect the probing client FIRST: once admission saturates, accept()
  // pauses (backpressure), so only an already-accepted connection can
  // observe the typed refusal.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  // Request 1 occupies the only admission slot, parked inside its handler.
  std::thread first([&stack] {
    auto answer = stack.Query(TestQuery(/*seed=*/1), /*binary=*/true);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  });
  gate.AwaitEntered(1);

  // Request 2 (a different release) must be refused NOW — typed, no hang.
  auto refused = client.Query(TestQuery(/*seed=*/2), /*binary=*/true);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // The JSON path gets the same typed refusal.
  auto refused_json = client.Query(TestQuery(/*seed=*/2), /*binary=*/false);
  ASSERT_FALSE(refused_json.ok());
  EXPECT_EQ(refused_json.status().code(), StatusCode::kResourceExhausted);

  // No drop: once the queue drains, the refused client's retry succeeds
  // on the same connection.
  gate.Release();
  first.join();
  auto retry = client.Query(TestQuery(/*seed=*/2), /*binary=*/true);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(NetTest, SameReleaseQueriesWaitOnTheLoop) {
  HandlerGate gate(/*blocked=*/1);
  NetServerOptions options;
  options.max_inflight = 16;
  options.handler_hook = [&gate] { gate.Enter(); };
  TestStack stack(/*threads=*/4, options);

  // Counters are recording no-ops while obs is disabled.
  obs::Registry::Global().set_enabled(true);
  obs::Counter& batches =
      obs::Registry::Global().GetCounter("net/coalesced_batches");
  obs::Counter& coalesced =
      obs::Registry::Global().GetCounter("net/coalesced_requests");
  const std::uint64_t batches_before = batches.value();
  const std::uint64_t coalesced_before = coalesced.value();

  // Request A blocks inside its handler; B and C for the SAME release
  // arrive meanwhile and wait on the event loop for A to complete. The
  // handler_hook turns the fast lane off, so they are then dispatched in
  // turn, each as its own serve-layer batch.
  std::vector<std::thread> clients;
  std::vector<Result<WireBatchAnswer>> answers(3, Status::Internal("unset"));
  clients.emplace_back([&stack, &answers] {
    answers[0] = stack.Query(TestQuery(), /*binary=*/true);
  });
  gate.AwaitEntered(1);
  for (int i = 1; i < 3; ++i) {
    clients.emplace_back([&stack, &answers, i] {
      answers[i] = stack.Query(TestQuery(), /*binary=*/true);
    });
  }
  // B and C wait on the loop (not refused — admission has room); give
  // them a moment to arrive, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  for (std::thread& t : clients) {
    t.join();
  }

  const auto expected = stack.release_server.AnswerBatch(
      TestQuery().queries, TestQuery().request);
  ASSERT_TRUE(expected.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(answers[i].ok()) << i << ": " << answers[i].status().ToString();
    EXPECT_EQ(answers[i].value().answers, expected.value().answers) << i;
  }
  // All three requests were counted once on the dispatched path, in at
  // most one pool dispatch each.
  EXPECT_EQ(coalesced.value() - coalesced_before, 3u);
  EXPECT_LE(batches.value() - batches_before, 3u);
  EXPECT_GE(batches.value() - batches_before, 1u);
}

TEST(NetTest, OneBadQueryFailsOnlyItsOwnWaitingRequest) {
  HandlerGate gate(/*blocked=*/1);
  NetServerOptions options;
  options.max_inflight = 16;
  options.handler_hook = [&gate] { gate.Enter(); };
  TestStack stack(/*threads=*/4, options);

  const WireQueryRequest good = TestQuery();
  WireQueryRequest bad = TestQuery();
  bad.queries = {{0, 4}, {2, 9}, {5, 1000}};  // query 2 leaves the domain

  // The first request is held inside its handler; the good and the bad
  // request for the same release wait behind it on the loop, in that
  // order, and are each answered on their own once it completes.
  Result<WireBatchAnswer> first = Status::Internal("unset");
  Result<WireBatchAnswer> good_answer = Status::Internal("unset");
  Result<WireBatchAnswer> bad_answer = Status::Internal("unset");
  std::thread leader([&] { first = stack.Query(good, /*binary=*/true); });
  gate.AwaitEntered(1);
  std::thread good_client([&] {
    good_answer = stack.Query(good, /*binary=*/true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread bad_client([&] {
    bad_answer = stack.Query(bad, /*binary=*/false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  leader.join();
  good_client.join();
  bad_client.join();

  auto release = stack.release_server.GetRelease(good.request);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  auto expected = AnswerQueries(release.value()->histogram(), good.queries);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().answers, expected.value());
  ASSERT_TRUE(good_answer.ok()) << good_answer.status().ToString();
  EXPECT_EQ(good_answer.value().answers, expected.value());
  // The bad request's 400 names its own query index.
  ASSERT_FALSE(bad_answer.ok());
  EXPECT_EQ(bad_answer.status().code(), StatusCode::kInvalidArgument);
  const std::string message = bad_answer.status().message();
  EXPECT_NE(message.find("range query 2 "), std::string::npos) << message;
  // One publication paid for everything.
  EXPECT_EQ(stack.release_server.ledger().charge_count(), 1u);
}

TEST(NetTest, WaitingRequestsForOneReleaseReachNoWorker) {
  // While a worker holds the request that will publish a cold release, a
  // /v1/release and a second /v1/query for the same release wait on the
  // event loop: neither takes a worker to block on the cache's publish
  // slot. Once the first completes, all three agree, for one charge.
  HandlerGate gate(/*blocked=*/1);
  std::atomic<int> entries{0};
  NetServerOptions options;
  options.max_inflight = 16;
  options.handler_hook = [&gate, &entries] {
    entries.fetch_add(1);
    gate.Enter();
  };
  TestStack stack(/*threads=*/4, options);

  const WireQueryRequest query = TestQuery();
  Result<WireBatchAnswer> first = Status::Internal("unset");
  Result<WireHistogram> released = Status::Internal("unset");
  Result<WireBatchAnswer> second = Status::Internal("unset");
  std::thread first_client([&] { first = stack.Query(query, true); });
  gate.AwaitEntered(1);
  std::thread release_client([&] {
    NetClient client;
    const Status connected = client.Connect("127.0.0.1", stack.server->port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    released = client.Release(query, /*binary=*/true);
  });
  std::thread second_client([&] { second = stack.Query(query, false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(entries.load(), 1);
  gate.Release();
  first_client.join();
  release_client.join();
  second_client.join();

  auto release = stack.release_server.GetRelease(query.request);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  auto expected = AnswerQueries(release.value()->histogram(), query.queries);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().answers, expected.value());
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(released.value().counts, release.value()->histogram().counts());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().answers, expected.value());
  EXPECT_EQ(stack.release_server.ledger().charge_count(), 1u);
}

TEST(NetTest, SingleThreadPoolAnswersConcurrentColdRequests) {
  // With one thread, Submit runs the dispatched request inline on the
  // loop. Six clients on one cold release, in both codecs, get identical
  // answers for one charge: with the fast lane on, and with a
  // handler_hook turning it off, so that each waiter is dispatched in
  // turn on the loop.
  for (const bool hooked : {false, true}) {
    NetServerOptions options;
    std::atomic<int> entries{0};
    if (hooked) {
      options.handler_hook = [&entries] { entries.fetch_add(1); };
    }
    TestStack stack(/*threads=*/1, options);
    const WireQueryRequest query = TestQuery(/*seed=*/7);
    std::vector<Result<WireBatchAnswer>> answers(6, Status::Internal("unset"));
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      clients.emplace_back([&stack, &answers, &query, i] {
        answers[i] = stack.Query(query, /*binary=*/i % 2 == 0);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    auto release = stack.release_server.GetRelease(query.request);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    auto expected = AnswerQueries(release.value()->histogram(), query.queries);
    ASSERT_TRUE(expected.ok());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_TRUE(answers[i].ok())
          << i << ": " << answers[i].status().ToString();
      EXPECT_EQ(answers[i].value().answers, expected.value()) << i;
      EXPECT_EQ(answers[i].value().served, release.value()->key()) << i;
      EXPECT_FALSE(answers[i].value().stale) << i;
    }
    EXPECT_EQ(stack.release_server.ledger().charge_count(), 1u) << hooked;
    if (hooked) {
      EXPECT_EQ(entries.load(), 6);
    }
  }
}

TEST(NetTest, WaitersOnAFailedDispatchAreDispatchedInTurn) {
  // The budget covers one release, spent in process. Three gated requests
  // for a second cold release: the first is refused by the ledger and
  // degrades to the cached release, which seals nothing for the second
  // key, so each waiter is dispatched in turn and degrades the same way,
  // with no extra charge.
  HandlerGate gate(/*blocked=*/1);
  NetServerOptions options;
  options.max_inflight = 16;
  options.handler_hook = [&gate] { gate.Enter(); };
  TestStack stack(/*threads=*/4, options, /*total_epsilon=*/0.5);
  auto spent = stack.release_server.GetRelease(TestQuery(/*seed=*/1).request);
  ASSERT_TRUE(spent.ok()) << spent.status().ToString();
  const serve::BudgetLedger& ledger = stack.release_server.ledger();
  ASSERT_EQ(ledger.charge_count(), 1u);

  const WireQueryRequest query = TestQuery(/*seed=*/2);
  std::vector<Result<WireBatchAnswer>> answers(3, Status::Internal("unset"));
  std::vector<std::thread> clients;
  clients.emplace_back([&] { answers[0] = stack.Query(query, true); });
  gate.AwaitEntered(1);
  for (std::size_t i = 1; i < answers.size(); ++i) {
    clients.emplace_back([&stack, &answers, &query, i] {
      answers[i] = stack.Query(query, /*binary=*/i % 2 == 0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  for (std::thread& t : clients) {
    t.join();
  }

  auto expected = AnswerQueries(spent.value()->histogram(), query.queries);
  ASSERT_TRUE(expected.ok());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << i << ": " << answers[i].status().ToString();
    EXPECT_TRUE(answers[i].value().stale) << i;
    EXPECT_EQ(answers[i].value().served.seed, 1u) << i;
    EXPECT_EQ(answers[i].value().answers, expected.value()) << i;
  }
  EXPECT_EQ(ledger.charge_count(), 1u);
}

TEST(NetTest, StopFinishesRequestsWaitingOnTheLoop) {
  // Stop() returns only after the held request and the request waiting
  // on it have both run, so no waiter outlives the drain.
  HandlerGate gate(/*blocked=*/1);
  std::atomic<int> entries{0};
  NetServerOptions options;
  options.handler_hook = [&gate, &entries] {
    entries.fetch_add(1);
    gate.Enter();
  };
  TestStack stack(/*threads=*/4, options);
  const WireQueryRequest query = TestQuery();
  std::thread first([&stack, &query] { (void)stack.Query(query, true); });
  gate.AwaitEntered(1);
  std::thread second([&stack, &query] { (void)stack.Query(query, false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread stopper([&stack] { stack.server->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Release();
  stopper.join();
  EXPECT_EQ(entries.load(), 2);
  first.join();
  second.join();
  EXPECT_EQ(stack.release_server.ledger().charge_count(), 1u);
}

TEST(NetTest, SealedLargeBatchIsAnsweredOnTheLoopWithoutForking) {
  // A pool wide enough that AnswerBatch would split a 1024-query batch.
  // The event loop must not: while it waits on a fork/join, every
  // connection it serves stalls.
  obs::Registry::Global().set_enabled(true);
  ThreadPool pool(4);
  serve::ReleaseServerOptions serve_options;
  serve_options.pool = &pool;
  serve::ReleaseServer release_server(TestTruth(), 100.0, serve_options);
  NetServerOptions options;
  options.pool = &pool;
  NetServer server(&release_server, options);
  ASSERT_TRUE(server.Start().ok());

  WireQueryRequest query = TestQuery();
  query.queries.clear();
  for (std::size_t i = 0; i < 1024; ++i) {
    query.queries.push_back({i % 61, i % 61 + 1 + i % 3});
  }
  auto release = release_server.GetRelease(query.request);  // seal it
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  auto expected = AnswerQueries(release.value()->histogram(), query.queries);
  ASSERT_TRUE(expected.ok());

  obs::Counter& dispatched =
      obs::Registry::Global().GetCounter("threadpool/tasks_dispatched");
  const std::uint64_t dispatched_before = dispatched.value();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const bool binary : {true, false}) {
    auto answer = client.Query(query, binary);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().answers, expected.value()) << binary;
    EXPECT_TRUE(answer.value().cache_hit);
  }
  EXPECT_EQ(dispatched.value(), dispatched_before);
  server.Stop();
  obs::Registry::Global().set_enabled(false);
}

}  // namespace
}  // namespace net
}  // namespace dphist
