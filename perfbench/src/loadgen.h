// The closed-loop HTTP/1.1 load generator: one thread drives every
// connection with non-blocking sockets and poll(), writes whole rounds
// (a pipelined burst, or one request) at once, and parses each response
// as it arrives. It uses no dphist code, so its own cost does not move
// when the program under test changes.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"

namespace perfbench {

/// One parsed response, valid only during the callback.
struct Response {
  /// Id of the request it answers (ids come from the round).
  std::uint32_t request = 0;
  int status = 0;
  std::string_view body;
  /// When its round's first byte was written.
  std::int64_t sent_ns = 0;
  /// When it was parsed.
  std::int64_t done_ns = 0;
};

class LoadGenerator {
 public:
  /// Bytes one connection writes at once, and the ids of the requests they
  /// carry, in order. `bytes` must stay valid until the round completes.
  struct Round {
    std::string_view bytes;
    std::vector<std::uint32_t> ids;
  };
  /// Fills the next round of connection `conn`; false when there is none.
  using NextRound = std::function<bool(std::size_t conn, Round* round)>;
  using OnResponse = std::function<void(const Response&)>;

  /// Opens `connections` loopback connections to `port`.
  static dphist::Result<std::unique_ptr<LoadGenerator>> Connect(
      std::uint16_t port, std::size_t connections);

  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// How rounds start.
  struct Pacing {
    /// Every connection starts one round at the same moment, and only
    /// once all connections are idle (herd, cold_publish).
    bool together = false;
    /// Otherwise: rounds each connection keeps outstanding; the next
    /// starts as soon as one completes (hot_read keeps two pipelined
    /// bursts per connection, so the server always has one queued).
    std::size_t depth = 1;
  };

  /// Sends rounds until `deadline_ns` (NowNs clock) or until `next` runs
  /// out, then waits for every outstanding response. Fails on a transport
  /// error, a malformed response, or 60 s without progress.
  dphist::Status Run(std::int64_t deadline_ns, Pacing pacing,
                     const NextRound& next, const OnResponse& on_response);

 private:
  struct Conn;
  explicit LoadGenerator(std::vector<Conn> conns);

  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
