#ifndef DPHIST_NET_SERVER_H_
#define DPHIST_NET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace net {

/// \brief Knobs for the network front-end.
struct NetServerOptions {
  /// Interface to bind; loopback by default — the front-end carries noisy
  /// releases, but exposing it beyond the host is a deliberate act.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (tests, benches) —
  /// read the actual one back with `port()`.
  std::uint16_t port = 0;
  /// Worker pool answering requests; nullptr means ThreadPool::Global().
  /// With a single-threaded pool handlers run inline on the event thread —
  /// correct, just serial (the "any DPHIST_THREADS" contract).
  ThreadPool* pool = nullptr;
  /// Admission bound: maximum requests dispatched-but-unanswered. A
  /// request completing parse beyond this is refused with a typed
  /// kResourceExhausted (HTTP 503) instead of queueing unboundedly.
  /// Values of 0 are pinned to 1.
  std::size_t max_inflight = 64;
  /// Maximum simultaneous connections; accept() pauses at the bound.
  std::size_t max_connections = 256;
  /// Test seam: runs on the worker at the start of every dispatched
  /// request, before the serve-layer call. Lets tests hold workers inside
  /// handlers to saturate the admission queue deterministically. Setting
  /// it also disables the inline fast lane (every request must reach a
  /// worker for the hook to see it), which makes it the one way to force
  /// the dispatched lane.
  std::function<void()> handler_hook;
};

/// \brief The HTTP/1.1 query front-end over a `serve::ReleaseServer`.
///
/// One event-loop thread multiplexes all sockets with poll(); request
/// handling runs on the worker pool via `ThreadPool::Submit`, and
/// completed responses travel back to the loop through a queue plus a
/// self-pipe wakeup. Dependency-free: kernel sockets + the in-tree
/// thread pool, nothing else.
///
/// Connection state machine (per connection, single outstanding request —
/// HTTP/1.1 without speculative pipelining execution):
///
///   READ_HEAD --parsed--> DISPATCHED --response built--> WRITE --flushed--+
///      ^   \                                                             |
///      |    \--saturated at parse completion--> WRITE (typed 503)        |
///      +------------------------------------------------------------<---+
///
/// Admission control and backpressure are two distinct tiers:
///  * Admission: at most `max_inflight` requests are on the dispatched
///    path (on the pool or waiting) at once. A request that completes
///    parsing while the bound is met gets an immediate typed refusal —
///    kResourceExhausted over HTTP 503 with an `X-Dphist-Status` header
///    and a codec-matched error body. No hang, no silent drop: the client
///    always receives an answer.
///  * Backpressure: a connection's socket is not read while its request
///    is dispatched (or waiting) or its response is being written
///    (per-conn single outstanding), and accept() pauses while the
///    connection table is full or the admission bound is met — unread
///    bytes stay in kernel buffers and TCP flow control pushes back on
///    clients.
///
/// Waiting on the loop: every request that misses the fast lane and
/// passes admission takes one dispatched path. When no request for its
/// release (tenant, dataset, publisher, epsilon bits, seed) is on the
/// pool, it is submitted there, to `AnswerBatch` for /v1/query or
/// `GetRelease` for /v1/release. Otherwise it waits in a list that only
/// the event loop touches. When the pool's request completes, each waiter
/// re-enters the fast lane against the release just sealed, and one that
/// still misses (the first request failed, or a handler_hook turns the
/// fast lane off) is dispatched in turn. The release cache's per-key
/// publish slot alone already gives one publish and one budget charge per
/// release; the wait exists so that a request that would only block on
/// that slot holds no worker. Each request is answered on its own, so it
/// gets exactly the answer or error it would have got alone.
///
/// Endpoints:
///   POST /v1/query    query request -> batch answer (codec by
///                     Content-Type: application/x-dphist-wire | json)
///   POST /v1/release  query request (queries ignored) -> full histogram
///   GET  /healthz     liveness probe, "ok"
///   GET  /statsz      obs registry snapshot, JSON lines
///   GET  /v1/meta     default-namespace domain size + fingerprint (JSON)
///
/// Fast lane (whenever no handler_hook is set): a
/// request whose release is already sealed in the cache is answered
/// inline on the event loop — one counting cache lookup, O(1) prefix
/// subtractions per query on the loop itself at any batch size (the loop
/// never waits on a pool fork/join), the answer written in place into the
/// connection's output buffer, and for /v1/release the release's
/// pre-encoded frame shipped as a zero-copy second `writev` segment. No
/// worker handoff, no completion-queue round trip, no admission charge: the
/// admission bound exists to keep publisher work from queueing
/// unboundedly, and a sealed release involves no publisher work. Requests
/// whose release is NOT yet cached take the dispatched path, and a waiter
/// answered from the fast lane is answered by the same function, so
/// answers are byte-identical between lanes.
///
/// Obs: `net/requests`, `net/refused_admission`, `net/errors`,
/// `net/coalesced_requests` (each request on the dispatched path, counted
/// once), `net/coalesced_batches` (each pool dispatch), `net/connections`,
/// `net/bytes_zero_copy` counters; the `net/request_ms` distribution
/// (plus `serve/frame_cache_hits|misses` from the frame memo underneath).
class NetServer {
 public:
  /// `release_server` must outlive this object.
  explicit NetServer(serve::ReleaseServer* release_server,
                     NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event thread. Fails with
  /// kInvalidArgument on a bad host and kInternal on socket errors (the
  /// message carries errno text).
  Status Start();

  /// Stops accepting, waits for in-flight handlers and the requests
  /// waiting on them, closes every socket, and joins the event thread.
  /// Idempotent.
  void Stop();

  /// The bound port (after Start); the ephemeral-port answer.
  std::uint16_t port() const { return port_; }

  /// "host:port" of the listening socket (after Start).
  std::string address() const;

 private:
  struct Impl;
  Impl* impl_;  // pimpl: keeps poll/socket headers out of dphist's API

  serve::ReleaseServer* release_server_;
  NetServerOptions options_;
  std::uint16_t port_ = 0;
};

}  // namespace net
}  // namespace dphist

#endif  // DPHIST_NET_SERVER_H_
