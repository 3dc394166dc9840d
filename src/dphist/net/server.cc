#include "dphist/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dphist/net/http.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/export.h"
#include "dphist/obs/obs.h"

namespace dphist {
namespace net {

namespace {

int MapStatusToHttp(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kDataLoss:  // corrupt frame from the client
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kPermissionDenied:
      return 403;
    case StatusCode::kResourceExhausted:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kInternal:
    default:
      return 500;
  }
}

Status ErrnoStatus(std::string_view what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One response queued for write, as up to two scatter-gather segments:
/// `head` (serialized head, or the whole response when `body` is null) and
/// an optional shared immutable `body` — a pre-encoded release frame
/// written straight from the cache, never copied into per-connection
/// buffers.
struct Payload {
  std::string head;
  std::shared_ptr<const std::string> body;

  std::size_t size() const {
    return head.size() + (body != nullptr ? body->size() : 0);
  }
};

void FillResponseHeaders(HttpMessage& response, int http_status,
                         StatusCode code, bool binary, bool close) {
  response.status = http_status;
  response.headers["content-type"] =
      binary ? kContentTypeBinary : kContentTypeJson;
  response.headers["x-dphist-status"] = std::string(StatusCodeName(code));
  if (close) {
    response.headers["connection"] = "close";
  }
}

// Serializes an HTTP response carrying one codec-encoded message.
Payload BuildResponse(int http_status, StatusCode code, bool binary,
                      std::string body, bool close) {
  HttpMessage response;
  FillResponseHeaders(response, http_status, code, binary, close);
  response.body = std::move(body);
  return Payload{SerializeResponse(response), nullptr};
}

ResponseHead MakeAnswerHead(bool binary, bool close) {
  HttpMessage response;
  FillResponseHeaders(response, 200, StatusCode::kOk, binary, close);
  return ResponseHead(response);
}

// The head of a 200 batch-answer response for each (codec, close) pair,
// serialized once.
const ResponseHead& AnswerHead(bool binary, bool close) {
  static const ResponseHead json = MakeAnswerHead(false, false);
  static const ResponseHead json_close = MakeAnswerHead(false, true);
  static const ResponseHead wire = MakeAnswerHead(true, false);
  static const ResponseHead wire_close = MakeAnswerHead(true, true);
  if (binary) {
    return close ? wire_close : wire;
  }
  return close ? json_close : json;
}

// Appends one complete 200 response carrying a batch answer to `out`:
// the precomputed head with only content-length filled in, then the body
// written in place behind it — byte-identical to BuildResponse over the
// encoded answer. Both lanes write their answers through here.
void AppendAnswerResponse(std::string& out, bool binary, bool close,
                          std::span<const double> answers, bool stale,
                          bool cache_hit, const serve::ReleaseKey& served) {
  const ResponseHead& head = AnswerHead(binary, close);
  if (binary) {
    head.Append(out, BatchAnswerFrameSize(served, answers.size()));
    AppendBatchAnswer(out, answers, stale, cache_hit, served);
    return;
  }
  const ResponseHead::BodyMark mark =
      head.BeginBody(out, BatchAnswerJsonSizeBound(served, answers.size()));
  AppendBatchAnswerJson(out, answers, stale, cache_hit, served);
  head.EndBody(out, mark);
}

// Like BuildResponse, but the body stays a shared immutable frame: only
// the head is serialized, and the frame ships as the second writev
// segment. Byte-identical on the wire to BuildResponse with a copied
// body (the SerializeResponseHead invariant).
Payload BuildSharedResponse(int http_status, StatusCode code, bool binary,
                            std::shared_ptr<const std::string> body,
                            bool close) {
  HttpMessage response;
  FillResponseHeaders(response, http_status, code, binary, close);
  return Payload{SerializeResponseHead(response, body->size()),
                 std::move(body)};
}

Payload BuildErrorResponse(const Status& status, bool binary, bool close) {
  return BuildResponse(MapStatusToHttp(status.code()), status.code(), binary,
                       binary ? EncodeError(status) : EncodeErrorJson(status),
                       close);
}

Payload BuildTextResponse(int http_status, std::string body) {
  HttpMessage response;
  response.status = http_status;
  response.headers["content-type"] = "text/plain";
  response.body = std::move(body);
  return Payload{SerializeResponse(response), nullptr};
}

// The /v1/release response body for one sealed release, in one codec.
std::string EncodeReleaseBody(const serve::SealedRelease& release,
                              bool binary) {
  if (release.is_sparse()) {
    WireSparseHistogram sparse;
    sparse.key = release.key();
    const auto& histogram = release.sparse_histogram();
    sparse.domain_size = histogram.domain_size();
    sparse.keys.reserve(histogram.entries().size());
    sparse.counts.reserve(histogram.entries().size());
    for (const auto& entry : histogram.entries()) {
      sparse.keys.push_back(entry.key);
      sparse.counts.push_back(entry.count);
    }
    return binary ? EncodeSparseHistogram(sparse)
                  : EncodeSparseHistogramJson(sparse);
  }
  WireHistogram histogram;
  histogram.key = release.key();
  histogram.counts = release.histogram().counts();
  return binary ? EncodeHistogram(histogram) : EncodeHistogramJson(histogram);
}

// The release's encoded frame, memoized on the sealed release: the first
// caller encodes, everyone after shares the bytes.
std::shared_ptr<const std::string> ReleaseFrame(
    const serve::SealedRelease& release, bool binary) {
  const auto codec = binary ? serve::SealedRelease::FrameCodec::kBinary
                            : serve::SealedRelease::FrameCodec::kJson;
  return release.EncodedFrame(
      codec, [&release, binary] { return EncodeReleaseBody(release, binary); });
}

// Loop scratch vectors keep their capacity across requests up to this
// many entries (64 KiB of queries); one grown past it by an outsized batch
// is released after that request.
constexpr std::size_t kScratchEntries = 4096;

template <typename Container>
void TrimScratch(Container& scratch) {
  if (scratch.capacity() > kScratchEntries) {
    Container().swap(scratch);
  }
}

// Identity of the release a request resolves to: the key a request waits
// under while another request for the same release is on the pool.
// Epsilon joins by bit pattern, so only requests for exactly the same
// release wait on each other.
std::string ReleaseSignature(const serve::TenantKey& key,
                             const serve::ServeRequest& request) {
  std::uint64_t epsilon_bits = 0;
  std::memcpy(&epsilon_bits, &request.epsilon, sizeof(epsilon_bits));
  std::string sig = key.tenant;
  sig += '\0';
  sig += key.dataset;
  sig += '\0';
  sig += request.publisher;
  sig += '\0';
  sig += std::to_string(epsilon_bits);
  sig += '\0';
  sig += std::to_string(request.seed);
  return sig;
}

}  // namespace

struct NetServer::Impl {
  serve::ReleaseServer* server = nullptr;
  NetServerOptions options;
  ThreadPool* pool = nullptr;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::thread loop_thread;
  std::atomic<bool> stopping{false};

  // --- connections (event-loop thread only) ---
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    HttpParser parser{HttpParser::Kind::kRequest};
    std::string inbuf;  // read, but left unparsed by a dispatched request
    std::deque<Payload> outq;  // responses awaiting write, in order
    std::size_t out_pos = 0;   // bytes of outq.front() already written
    bool dispatched = false;   // a request is on the pool or waiting
    bool close_after_write = false;
  };
  std::map<std::uint64_t, Conn> conns;  // keyed by id, not fd (fds recycle)
  std::uint64_t next_conn_id = 1;

  // --- admission + worker bookkeeping ---
  std::atomic<std::size_t> inflight{0};       // admitted, not yet answered
  std::atomic<std::size_t> pending_tasks{0};  // submitted, not yet finished

  // A request on the dispatched path: admitted, with its decoded fields
  // copied out of the loop's scratch so it can wait or run on a worker.
  struct PendingQuery {
    std::uint64_t conn_id = 0;
    bool release = false;  // /v1/release; /v1/query otherwise
    serve::TenantKey key;
    serve::ServeRequest request;
    std::vector<RangeQuery> queries;
    std::string signature;  // ReleaseSignature(key, request)
    bool binary = true;
    bool close = false;
    std::chrono::steady_clock::time_point start;
  };

  // Completions: worker -> event loop, each with the request it answers.
  std::mutex done_mutex;
  std::vector<std::pair<PendingQuery, Payload>> done;

  // Requests waiting for the pool to finish a request for the same
  // release, by signature. A key is present exactly while one request
  // with that signature is on the pool (event-loop thread only).
  std::map<std::string, std::vector<PendingQuery>> waiting;

  // --- the loop's decode and answer scratch (event-loop thread only),
  // reused across requests so the fast lane allocates nothing once warm ---
  QueryRequestView query_view;        // a request, read in place
  serve::TenantKey query_key;         // the decoded request's namespace
  serve::ServeRequest query_request;  // ... and release
  serve::BatchAnswer fast_answer;     // fast-lane answers

  // Metrics, resolved once.
  obs::Counter& requests = obs::Registry::Global().GetCounter("net/requests");
  obs::Counter& refused =
      obs::Registry::Global().GetCounter("net/refused_admission");
  obs::Counter& errors = obs::Registry::Global().GetCounter("net/errors");
  obs::Counter& coalesced_batches =
      obs::Registry::Global().GetCounter("net/coalesced_batches");
  obs::Counter& coalesced_requests =
      obs::Registry::Global().GetCounter("net/coalesced_requests");
  obs::Counter& connections =
      obs::Registry::Global().GetCounter("net/connections");
  obs::Counter& bytes_zero_copy =
      obs::Registry::Global().GetCounter("net/bytes_zero_copy");
  obs::Distribution& request_ms =
      obs::Registry::Global().GetDistribution("net/request_ms");

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = write(wake_write, &byte, 1);
  }

  void RecordRequestMs(std::chrono::steady_clock::time_point start) {
    if (obs::Enabled()) {
      request_ms.Record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
  }

  // The one dispatched request handler, on a worker (or inline on the
  // loop thread for a single-threaded pool): publish or hit the cache,
  // answer, and hand the response back to the loop.
  void RunDispatched(PendingQuery pending) {
    if (options.handler_hook) {
      options.handler_hook();
    }
    Payload response;
    Status failed;
    if (pending.release) {
      auto release = server->GetRelease(pending.key, pending.request);
      if (release.ok()) {
        response = BuildSharedResponse(
            200, StatusCode::kOk, pending.binary,
            ReleaseFrame(*release.value(), pending.binary), pending.close);
      } else {
        failed = release.status();
      }
    } else {
      auto answered =
          server->AnswerBatch(pending.key, pending.queries, pending.request);
      if (answered.ok()) {
        const serve::BatchAnswer& batch = answered.value();
        AppendAnswerResponse(response.head, pending.binary, pending.close,
                             batch.answers, batch.stale, batch.cache_hit,
                             batch.served);
      } else {
        failed = answered.status();
      }
    }
    if (!failed.ok()) {
      errors.Increment();
      response = BuildErrorResponse(failed, pending.binary, pending.close);
    }
    RecordRequestMs(pending.start);
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      done.emplace_back(std::move(pending), std::move(response));
    }
    // Wake BEFORE the decrement: the drain check in EventLoop exits (and
    // Stop() then closes the wake pipe) as soon as pending_tasks reads 0,
    // and the release/acquire pair on the counter is what orders this
    // thread's pipe write before that close. A wakeup consumed ahead of
    // the decrement only costs the draining loop one short poll.
    Wake();
    pending_tasks.fetch_sub(1, std::memory_order_acq_rel);
  }

  // --- event-loop-side request handling ---

  void Respond(Conn& conn, Payload payload) {
    conn.outq.push_back(std::move(payload));
    requests.Increment();
  }

  // Where an inline response is written: the back of the out-queue when
  // it carries no shared body, so a pipelined burst's responses share one
  // buffer and leave as one writev segment.
  std::string& OutBuffer(Conn& conn) {
    if (conn.outq.empty() || conn.outq.back().body != nullptr) {
      conn.outq.emplace_back();
    }
    return conn.outq.back().head;
  }

  // Decodes a query endpoint's body in place into `query_view`, a binary
  // frame or a JSON body alike, and sets `query_key` and `query_request`
  // from it. Errors are the codec's, and a message of another type is
  // kInvalidArgument.
  Status DecodeQuery(const std::string& body, bool binary) {
    auto decoded = binary ? DecodeQueryRequest(body, &query_view)
                          : DecodeQueryRequestJson(body, &query_view);
    if (!decoded.ok()) {
      return decoded.status();
    }
    if (!decoded.value()) {
      // Another message type: a malformed one keeps the full decoder's
      // error, a well-formed one is the wrong message for this endpoint.
      const Status other =
          binary ? DecodeFrame(body).status() : DecodeJson(body).status();
      return other.ok() ? Status::InvalidArgument(
                              "endpoint expects a query_request message")
                        : other;
    }
    query_key.tenant.assign(query_view.tenant);
    query_key.dataset.assign(query_view.dataset);
    query_request.publisher.assign(query_view.publisher);
    query_request.epsilon = query_view.epsilon;
    query_request.seed = query_view.seed;
    return Status::Ok();
  }

  // The fast lane: a release already sealed in the cache involves no
  // publisher, no budget charge, and no journal write — nothing that can
  // block or queue — so a request for one is answered inline on the event
  // loop, into `conn`'s output queue, instead of paying the worker handoff
  // and the completion-queue round trip. The loop, not the pool, is what
  // saturates under pipelined load — it runs near fully busy while the
  // workers idle — so this lane copies nothing it can read in place: the
  // answers go into a reused vector and straight into the connection's
  // output buffer, and it never forks onto the pool, whatever the batch
  // size, since every connection waits while the loop does. A bad batch
  // gets the same typed error the dispatched path would give (bad
  // queries, cross-tenant probe); the fast lane never masks one. Returns
  // false, writing nothing, when the release is not sealed, or when a
  // handler_hook is set (tests that must observe every request on a
  // worker).
  bool TryAnswerSealed(Conn& conn, bool release, const serve::TenantKey& key,
                       const std::vector<RangeQuery>& queries,
                       const serve::ServeRequest& request, bool binary,
                       bool close) {
    if (options.handler_hook) {
      return false;
    }
    if (release) {
      auto sealed = server->TryGetCached(key, request);
      if (sealed == nullptr) {
        return false;
      }
      conn.outq.push_back(BuildSharedResponse(
          200, StatusCode::kOk, binary, ReleaseFrame(*sealed, binary), close));
      return true;
    }
    auto hit = server->TryAnswerCached(key, queries, request, &fast_answer);
    if (!hit.ok()) {
      errors.Increment();
      conn.outq.push_back(BuildErrorResponse(hit.status(), binary, close));
      return true;
    }
    if (!hit.value()) {
      return false;
    }
    AppendAnswerResponse(OutBuffer(conn), binary, close, fast_answer.answers,
                         fast_answer.stale, fast_answer.cache_hit,
                         fast_answer.served);
    return true;
  }

  // The dispatched path: `pending` goes to the pool unless a request for
  // the same release is already there, in which case it waits on the loop
  // for that request to complete. The release cache's per-key publish slot
  // alone already gives one publish and one charge per release; the wait
  // keeps a request that would only block on that slot off the pool.
  void Dispatch(PendingQuery pending) {
    auto [it, first] = waiting.try_emplace(pending.signature);
    if (!first) {
      it->second.push_back(std::move(pending));
      return;
    }
    coalesced_batches.Increment();
    pending_tasks.fetch_add(1, std::memory_order_acq_rel);
    pool->Submit([this, p = std::move(pending)]() mutable {
      RunDispatched(std::move(p));
    });
  }

  // Runs on the loop when the pool finishes the request for `signature`:
  // each request waiting on it re-enters the fast lane against the
  // release just sealed. One that still misses — the finished request
  // failed, or a handler_hook turns the fast lane off — is dispatched in
  // turn.
  void ResumeWaiters(const std::string& signature) {
    auto node = waiting.extract(signature);
    if (node.empty()) {
      return;
    }
    for (PendingQuery& waiter : node.mapped()) {
      const auto it = conns.find(waiter.conn_id);
      if (it == conns.end()) {
        // The client went away while waiting: nothing to answer.
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      Conn& conn = it->second;
      if (TryAnswerSealed(conn, waiter.release, waiter.key, waiter.queries,
                          waiter.request, waiter.binary, waiter.close)) {
        RecordRequestMs(waiter.start);
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        conn.dispatched = false;
        continue;
      }
      Dispatch(std::move(waiter));
    }
    // One outsized waiting batch must not pin its memory in the loop's
    // scratch for the server's lifetime.
    TrimScratch(fast_answer.answers);
  }

  // Routes one complete parsed request. Returns false when the connection
  // must close immediately (unrecoverable protocol state).
  void HandleRequest(Conn& conn) {
    const HttpMessage& request = conn.parser.message();
    const bool close = request.WantsClose();
    conn.close_after_write = conn.close_after_write || close;
    const std::string_view target_full = request.target;
    const std::size_t question = target_full.find('?');
    const std::string_view target = target_full.substr(0, question);
    const bool binary = request.Header("content-type") == kContentTypeBinary;

    if (target == "/healthz") {
      Respond(conn, BuildTextResponse(200, "ok\n"));
      return;
    }
    if (target == "/statsz") {
      std::ostringstream out;
      obs::WriteSnapshotLines(out, obs::Registry::Global().Snapshot(), "net");
      Respond(conn, BuildTextResponse(200, out.str()));
      return;
    }
    if (target == "/v1/meta") {
      obs::JsonObjectWriter writer;
      writer.Str("type", "meta")
          .Int("domain_size", server->domain_size())
          .Str("fingerprint", std::to_string(server->fingerprint()));
      Respond(conn, BuildResponse(200, StatusCode::kOk, /*binary=*/false,
                                  writer.Finish(), close));
      return;
    }
    if (target != "/v1/query" && target != "/v1/release") {
      errors.Increment();
      Respond(conn, BuildErrorResponse(
                        Status::NotFound("no such endpoint: " +
                                         std::string(target)),
                        binary, close));
      return;
    }
    if (request.method != "POST") {
      errors.Increment();
      Respond(conn,
              BuildErrorResponse(
                  Status::InvalidArgument("query endpoints require POST"),
                  binary, close));
      return;
    }
    const Status decoded = DecodeQuery(request.body, binary);
    if (!decoded.ok()) {
      errors.Increment();
      Respond(conn, BuildErrorResponse(decoded, binary, close));
      return;
    }
    const bool release = target == "/v1/release";
    const auto start = std::chrono::steady_clock::now();
    if (TryAnswerSealed(conn, release, query_key, query_view.queries,
                        query_request, binary, close)) {
      requests.Increment();
      RecordRequestMs(start);
      return;
    }

    // Admission control: the bounded in-flight queue. Refusal is typed and
    // immediate — the client gets kResourceExhausted over 503, never an
    // unbounded queue or a dropped request.
    std::size_t current = inflight.load(std::memory_order_acquire);
    for (;;) {
      if (current >= std::max<std::size_t>(options.max_inflight, 1)) {
        refused.Increment();
        Respond(conn,
                BuildErrorResponse(
                    Status::ResourceExhausted(
                        "admission queue full (max_inflight=" +
                        std::to_string(options.max_inflight) + ")"),
                    binary, close));
        return;
      }
      if (inflight.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
        break;
      }
    }

    PendingQuery pending;
    pending.conn_id = conn.id;
    pending.release = release;
    pending.key = query_key;
    pending.request = query_request;
    pending.queries = query_view.queries;
    pending.signature = ReleaseSignature(query_key, query_request);
    pending.binary = binary;
    pending.close = close;
    pending.start = start;
    conn.dispatched = true;
    requests.Increment();
    coalesced_requests.Increment();
    Dispatch(std::move(pending));
  }

  // Feeds `bytes` to the connection's parser, handling each request as it
  // completes, until a request is dispatched (single outstanding), the
  // connection is closing, or the bytes run out. Returns how many bytes
  // were consumed; the parser itself holds any incomplete request.
  std::size_t ProcessBytes(Conn& conn, std::string_view bytes) {
    std::size_t used = 0;
    while (!conn.dispatched && !conn.close_after_write && used < bytes.size()) {
      std::size_t consumed = 0;
      const HttpParser::State state =
          conn.parser.Feed(bytes.substr(used), &consumed);
      used += consumed;
      if (state == HttpParser::State::kNeedMore) {
        break;
      }
      if (state == HttpParser::State::kError) {
        errors.Increment();
        conn.outq.push_back(BuildTextResponse(conn.parser.error_status(),
                                              conn.parser.error() + "\n"));
        conn.close_after_write = true;
        break;
      }
      HandleRequest(conn);
      conn.parser.Reset();
      // One outsized batch must not pin its memory in the loop's scratch
      // for the server's lifetime.
      TrimScratch(query_view.queries);
      TrimScratch(query_view.scratch);
      TrimScratch(fast_answer.answers);
    }
    return used;
  }

  // Processes the bytes a dispatched request left unread, then drops the
  // consumed prefix — one compaction per call, not one per request.
  void ProcessInbuf(Conn& conn) {
    conn.inbuf.erase(0, ProcessBytes(conn, conn.inbuf));
  }

  // Writes as much of the connection's output queue as the socket will
  // take, gathering MANY queued responses into one writev: each response
  // contributes its serialized head and (when cached) its shared
  // pre-encoded body as separate segments, so a pipelined burst of N
  // responses leaves in one syscall instead of N, and the body bytes go
  // from the cached frame to the kernel with no intermediate copy
  // (counted in `net/bytes_zero_copy`). Returns false on a fatal socket
  // error.
  bool FlushConn(Conn& conn) {
    // Segment budget per writev: two per response, comfortably under any
    // platform IOV_MAX (POSIX guarantees >= 16; Linux gives 1024).
    constexpr std::size_t kMaxIov = 64;
    while (!conn.outq.empty()) {
      iovec iov[kMaxIov];
      std::size_t iov_count = 0;
      std::size_t offered = 0;
      std::size_t resume = conn.out_pos;  // only the front can be partial
      for (const Payload& payload : conn.outq) {
        if (iov_count + 2 > kMaxIov) {
          break;
        }
        const std::size_t head_size = payload.head.size();
        if (resume < head_size) {
          iov[iov_count++] = {
              const_cast<char*>(payload.head.data()) + resume,
              head_size - resume};
          if (payload.body != nullptr && !payload.body->empty()) {
            iov[iov_count++] = {const_cast<char*>(payload.body->data()),
                                payload.body->size()};
          }
        } else {
          const std::size_t body_pos = resume - head_size;
          iov[iov_count++] = {
              const_cast<char*>(payload.body->data()) + body_pos,
              payload.body->size() - body_pos};
        }
        offered += payload.size() - resume;
        resume = 0;
      }
      const ssize_t n =
          writev(conn.fd, iov, static_cast<int>(iov_count));
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      if (n == 0) {
        return true;
      }
      // Retire written bytes across the queue front.
      std::size_t remaining = static_cast<std::size_t>(n);
      while (remaining > 0) {
        Payload& payload = conn.outq.front();
        const std::size_t head_size = payload.head.size();
        const std::size_t take =
            std::min(payload.size() - conn.out_pos, remaining);
        if (payload.body != nullptr) {
          const std::size_t body_before =
              conn.out_pos > head_size ? conn.out_pos - head_size : 0;
          const std::size_t after_pos = conn.out_pos + take;
          const std::size_t body_after =
              after_pos > head_size ? after_pos - head_size : 0;
          if (body_after > body_before) {
            bytes_zero_copy.Add(body_after - body_before);
          }
        }
        conn.out_pos += take;
        remaining -= take;
        if (conn.out_pos == payload.size()) {
          conn.outq.pop_front();
          conn.out_pos = 0;
        }
      }
      if (static_cast<std::size_t>(n) < offered) {
        return true;  // kernel buffer full; resume on the next POLLOUT
      }
    }
    return true;
  }

  void CloseConn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) {
      return;
    }
    close(it->second.fd);
    conns.erase(it);
  }

  void EventLoop() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = none)
    char buffer[65536];

    for (;;) {
      const bool draining = stopping.load(std::memory_order_acquire);
      // A waiting request outlives its pool request's decrement until its
      // completion is processed below, so the drain waits for both.
      if (draining && pending_tasks.load(std::memory_order_acquire) == 0 &&
          waiting.empty()) {
        break;
      }
      const bool saturated =
          inflight.load(std::memory_order_acquire) >=
          std::max<std::size_t>(options.max_inflight, 1);

      fds.clear();
      fd_conn.clear();
      fds.push_back(pollfd{wake_read, POLLIN, 0});
      fd_conn.push_back(0);
      // Backpressure tier 1: accept() pauses while the connection table is
      // full or admission is saturated (pending connects wait in the
      // kernel backlog, they are not dropped).
      if (!draining && !saturated && conns.size() < options.max_connections) {
        fds.push_back(pollfd{listen_fd, POLLIN, 0});
        fd_conn.push_back(0);
      }
      for (auto& [id, conn] : conns) {
        short events = 0;
        // Backpressure tier 2: a connection is not read while its request
        // is in a handler or its response is still flushing.
        if (!draining && !conn.dispatched && conn.outq.empty() &&
            !conn.close_after_write) {
          events |= POLLIN;
        }
        if (!conn.outq.empty()) {
          events |= POLLOUT;
        }
        if (events == 0) {
          continue;
        }
        fds.push_back(pollfd{conn.fd, events, 0});
        fd_conn.push_back(id);
      }

      // While draining, a worker's wakeup can be consumed before its
      // pending_tasks decrement (see RunDispatched), and nothing else will
      // wake the loop: poll briefly rather than sleep out the timeout.
      if (poll(fds.data(), fds.size(), /*timeout_ms=*/draining ? 1 : 200) <
          0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }

      // Wakeups + completions.
      if ((fds[0].revents & POLLIN) != 0) {
        while (read(wake_read, buffer, sizeof(buffer)) > 0) {
        }
      }
      std::vector<std::pair<PendingQuery, Payload>> completed;
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        completed.swap(done);
      }
      for (auto& [pending, response] : completed) {
        const auto it = conns.find(pending.conn_id);
        if (it != conns.end()) {  // else the client went away mid-request
          it->second.outq.push_back(std::move(response));
          it->second.dispatched = false;
        }
        ResumeWaiters(pending.signature);
      }

      std::vector<std::uint64_t> to_close;
      for (std::size_t i = 1; i < fds.size(); ++i) {
        const pollfd& pfd = fds[i];
        if (pfd.revents == 0) {
          continue;
        }
        if (pfd.fd == listen_fd) {
          for (;;) {
            const int fd = accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
              break;
            }
            if (!SetNonBlocking(fd)) {
              close(fd);
              continue;
            }
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            Conn conn;
            conn.id = next_conn_id++;
            conn.fd = fd;
            connections.Increment();
            conns.emplace(conn.id, std::move(conn));
          }
          continue;
        }
        const std::uint64_t id = fd_conn[i];
        const auto it = conns.find(id);
        if (it == conns.end()) {
          continue;
        }
        Conn& conn = it->second;
        if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (pfd.revents & (POLLIN | POLLOUT)) == 0) {
          to_close.push_back(id);
          continue;
        }
        if ((pfd.revents & POLLIN) != 0) {
          const ssize_t n = read(conn.fd, buffer, sizeof(buffer));
          if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            to_close.push_back(id);
            continue;
          }
          if (n > 0) {
            const std::string_view fresh(buffer, static_cast<std::size_t>(n));
            if (conn.inbuf.empty()) {
              // The common case: parse straight from the read buffer, and
              // keep only what a dispatched request leaves unread.
              conn.inbuf.assign(fresh.substr(ProcessBytes(conn, fresh)));
            } else {
              conn.inbuf.append(fresh);
              ProcessInbuf(conn);
            }
            // Fast-lane responses were built inline just now: flush them
            // before going back to poll, so a pipelined burst completes
            // in this round instead of waiting for a POLLOUT wakeup.
            if (!conn.outq.empty()) {
              if (!FlushConn(conn)) {
                to_close.push_back(id);
                continue;
              }
              if (conn.outq.empty() && conn.close_after_write) {
                to_close.push_back(id);
                continue;
              }
            }
          }
        }
        if ((pfd.revents & POLLOUT) != 0 && !conn.outq.empty()) {
          if (!FlushConn(conn)) {
            to_close.push_back(id);
            continue;
          }
          if (conn.outq.empty()) {
            if (conn.close_after_write) {
              to_close.push_back(id);
            } else {
              // Keep-alive: pick up any pipelined bytes already read.
              ProcessInbuf(conn);
            }
          }
        }
      }
      // Newly enqueued responses become writable next poll round; flushes
      // happen opportunistically here too for responses built inline.
      for (const std::uint64_t id : to_close) {
        CloseConn(id);
      }
    }

    for (auto& [id, conn] : conns) {
      close(conn.fd);
    }
    conns.clear();
  }
};

NetServer::NetServer(serve::ReleaseServer* release_server,
                     NetServerOptions options)
    : impl_(new Impl), release_server_(release_server),
      options_(std::move(options)) {
  impl_->server = release_server_;
  impl_->options = options_;
  impl_->pool = options_.pool != nullptr ? options_.pool
                                         : &ThreadPool::Global();
}

NetServer::~NetServer() {
  Stop();
  delete impl_;
}

Status NetServer::Start() {
  if (impl_->listen_fd >= 0) {
    return Status::InvalidArgument("NetServer already started");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = ErrnoStatus("bind " + address());
    close(fd);
    return status;
  }
  if (listen(fd, 128) != 0) {
    const Status status = ErrnoStatus("listen");
    close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status status = ErrnoStatus("getsockname");
    close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(fd)) {
    close(fd);
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    close(fd);
    return ErrnoStatus("pipe");
  }
  SetNonBlocking(pipe_fds[0]);
  SetNonBlocking(pipe_fds[1]);

  impl_->listen_fd = fd;
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  impl_->stopping.store(false, std::memory_order_release);
  impl_->loop_thread = std::thread([impl = impl_] { impl->EventLoop(); });
  return Status::Ok();
}

void NetServer::Stop() {
  if (impl_->listen_fd < 0) {
    return;
  }
  impl_->stopping.store(true, std::memory_order_release);
  impl_->Wake();
  if (impl_->loop_thread.joinable()) {
    impl_->loop_thread.join();
  }
  close(impl_->listen_fd);
  close(impl_->wake_read);
  close(impl_->wake_write);
  impl_->listen_fd = -1;
  impl_->wake_read = -1;
  impl_->wake_write = -1;
}

std::string NetServer::address() const {
  return options_.host + ":" + std::to_string(port_);
}

}  // namespace net
}  // namespace dphist
