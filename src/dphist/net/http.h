#ifndef DPHIST_NET_HTTP_H_
#define DPHIST_NET_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

namespace dphist {
namespace net {

/// \brief A minimal HTTP/1.1 message layer: an incremental parser and a
/// serializer, no sockets. The server and the client both sit on it, and
/// it is the unit-testable surface (http parsing is where dependency-free
/// servers usually hide their bugs, so it must be drivable byte by byte).
///
/// Supported subset — deliberately small, enough for the query protocol
/// and curl: request line / status line, header fields, and bodies framed
/// by Content-Length. No chunked transfer encoding, no trailers, no
/// continuation lines. Header names are case-insensitive (stored
/// lower-cased); connections default to keep-alive per HTTP/1.1 unless
/// `Connection: close`.

/// Hard limits, enforced during parsing so a misbehaving peer cannot make
/// the server buffer unboundedly. Oversized input fails the parse with an
/// HTTP status the server echoes back (431/413). The header limit counts
/// the whole head, blank line included, however its bytes are split
/// across feeds.
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 256u * 1024 * 1024;

/// \brief One parsed HTTP message (request or response).
struct HttpMessage {
  // Request side.
  std::string method;
  std::string target;
  // Response side.
  int status = 0;
  std::string reason;

  /// Header fields, names lower-cased; later duplicates overwrite, except
  /// that a repeated Content-Length fails the parse with 400.
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header lookup (lower-case `name`), empty string when absent.
  std::string_view Header(std::string_view name) const;

  /// True when the peer asked to close the connection after this message.
  bool WantsClose() const;
};

/// \brief Incremental parser: feed raw bytes as they arrive; it says when
/// a complete message is ready and how many bytes of the input it
/// consumed (the remainder belongs to the next pipelined message).
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };
  enum class State {
    kNeedMore,   ///< incomplete; feed more bytes
    kComplete,   ///< message() is ready
    kError,      ///< protocol violation; error_status()/error() describe it
  };

  explicit HttpParser(Kind kind) : kind_(kind) {}

  /// Consumes as much of `bytes` as this message needs. Returns the new
  /// state; `*consumed` is how many input bytes were used (always the full
  /// input while kNeedMore). A head found whole in `bytes` is parsed in
  /// place; only an incomplete head is buffered. After kComplete, call
  /// Reset() before feeding the next message's bytes.
  State Feed(std::string_view bytes, std::size_t* consumed);

  /// The parsed message; valid once Feed returned kComplete.
  const HttpMessage& message() const { return message_; }
  HttpMessage& message() { return message_; }

  /// On kError: the HTTP status a server should answer with (400, 413,
  /// 431) and a short reason.
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

  /// Clears all state for the next message on the same connection.
  void Reset();

 private:
  State Fail(int status, std::string_view reason);
  /// Parses the buffered header block; returns false on protocol error.
  bool ParseHeaderBlock(std::string_view head);

  Kind kind_;
  std::string buffer_;       // a head arriving over several feeds
  bool in_body_ = false;     // head parsed; accumulating body
  std::size_t body_needed_ = 0;
  HttpMessage message_;
  int error_status_ = 0;
  std::string error_;
};

/// Serializes a request: `method target HTTP/1.1` + headers + body.
/// Content-Length is always emitted (from `body`); `Host` must already be
/// in `headers` if the caller wants one.
std::string SerializeRequest(const HttpMessage& message);

/// Serializes a response: `HTTP/1.1 status reason` + headers + body, with
/// Content-Length emitted from `body`.
std::string SerializeResponse(const HttpMessage& message);

/// Serializes only the response head (status line + headers +
/// `content-length: body_len` + blank line), ignoring `message.body`.
/// Invariant: `SerializeResponse(m) == SerializeResponseHead(m,
/// m.body.size()) + m.body` byte for byte — what lets the server write a
/// cached body as a second scatter-gather segment without copying it into
/// the head buffer.
std::string SerializeResponseHead(const HttpMessage& message,
                                  std::size_t body_len);

/// \brief A response head serialized once, for a path that sends many
/// responses with one status and header set: `Append(out, n)` appends
/// exactly `SerializeResponseHead(message, n)`, one copy of the fixed
/// bytes plus the content-length digits, with no map walk and no
/// allocation beyond `out`'s growth.
class ResponseHead {
 public:
  /// Serializes `message`'s status line and headers (`body` is ignored).
  explicit ResponseHead(const HttpMessage& message);

  void Append(std::string& out, std::size_t body_len) const;

  /// Where a body written in place behind its head begins, and the room
  /// left for its length.
  struct BodyMark {
    std::size_t length_at = 0;
    std::size_t length_digits = 0;
  };

  /// For a body written straight into `out` after the head: appends the
  /// head with room for the length of a body of at most `max_body_len`
  /// bytes. Append the body, then call `EndBody`.
  BodyMark BeginBody(std::string& out, std::size_t max_body_len) const;

  /// Fills in the length of the body appended since `BeginBody`, moving
  /// the body when its length has another number of digits than the
  /// bound's, so `out` ends exactly as `Append(out, body_len)` plus the
  /// body would.
  void EndBody(std::string& out, BodyMark mark) const;

 private:
  std::string prefix_;  // status line + headers through "content-length: "
};

/// Canonical reason phrase for the handful of statuses dphist emits.
std::string_view ReasonPhrase(int status);

}  // namespace net
}  // namespace dphist

#endif  // DPHIST_NET_HTTP_H_
