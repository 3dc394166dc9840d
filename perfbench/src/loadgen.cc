#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <string>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

constexpr std::size_t kReadChunk = 256 * 1024;
constexpr std::size_t kMaxHead = 64 * 1024;
constexpr std::int64_t kStallNs = 60'000'000'000;

dphist::Status Errno(const char* what) {
  return dphist::Status::Internal(std::string(what) + ": " +
                                  std::strerror(errno));
}

bool HeaderIs(const char* line, std::size_t len, const char* name) {
  const std::size_t name_len = std::strlen(name);
  if (len < name_len) {
    return false;
  }
  for (std::size_t i = 0; i < name_len; ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
    if (c != name[i]) {
      return false;
    }
  }
  return true;
}

// Parses one HTTP/1.1 response (Content-Length framing) at the front of
// [data, data + size). Returns the bytes it spans, 0 when incomplete, or
// -1 when malformed.
long ParseResponse(const char* data, std::size_t size, int* status,
                   std::size_t* body_offset, std::size_t* body_len) {
  const void* end = memmem(data, size, "\r\n\r\n", 4);
  if (end == nullptr) {
    return size > kMaxHead ? -1 : 0;
  }
  const std::size_t head_len =
      static_cast<std::size_t>(static_cast<const char*>(end) - data) + 4;
  if (head_len < 16 || std::memcmp(data, "HTTP/1.1 ", 9) != 0) {
    return -1;
  }
  int code = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (data[i] < '0' || data[i] > '9') {
      return -1;
    }
    code = code * 10 + (data[i] - '0');
  }
  bool have_length = false;
  std::size_t length = 0;
  std::size_t pos = static_cast<std::size_t>(
      static_cast<const char*>(memmem(data, head_len, "\r\n", 2)) - data) + 2;
  while (pos + 2 < head_len) {
    const char* line = data + pos;
    const char* eol =
        static_cast<const char*>(memmem(line, head_len - pos, "\r\n", 2));
    const std::size_t line_len = static_cast<std::size_t>(eol - line);
    if (HeaderIs(line, line_len, "content-length:")) {
      std::size_t i = 15;
      while (i < line_len && line[i] == ' ') {
        ++i;
      }
      if (i == line_len) {
        return -1;
      }
      for (; i < line_len; ++i) {
        if (line[i] < '0' || line[i] > '9') {
          return -1;
        }
        length = length * 10 + static_cast<std::size_t>(line[i] - '0');
      }
      have_length = true;
    }
    pos += line_len + 2;
  }
  if (!have_length) {
    return -1;
  }
  if (size < head_len + length) {
    return 0;
  }
  *status = code;
  *body_offset = head_len;
  *body_len = length;
  return static_cast<long>(head_len + length);
}

}  // namespace

struct LoadGenerator::Conn {
  // One round in flight: written in order, answered in order.
  struct Pending {
    std::string_view bytes;
    std::size_t written = 0;
    std::vector<std::uint32_t> ids;
    std::size_t answered = 0;
    std::int64_t sent_ns = 0;
  };

  int fd = -1;
  std::deque<Pending> rounds;
  std::vector<char> in;
  std::size_t in_begin = 0;
  std::size_t in_end = 0;

  bool busy() const { return !rounds.empty(); }

  // The first round with bytes left to write, or null.
  Pending* Unwritten() {
    for (Pending& round : rounds) {
      if (round.written < round.bytes.size()) {
        return &round;
      }
    }
    return nullptr;
  }
};

LoadGenerator::LoadGenerator(std::vector<Conn> conns)
    : conns_(std::move(conns)) {}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) {
      close(conn.fd);
    }
  }
}

dphist::Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    std::uint16_t port, std::size_t connections) {
  std::vector<Conn> conns(connections);
  std::unique_ptr<LoadGenerator> generator(
      new LoadGenerator(std::move(conns)));
  for (Conn& conn : generator->conns_) {
    conn.fd = socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) {
      return Errno("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      return Errno("connect");
    }
    const int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = fcntl(conn.fd, F_GETFL, 0);
    if (flags < 0 || fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Errno("fcntl");
    }
    conn.in.resize(kReadChunk);
  }
  return generator;
}

dphist::Status LoadGenerator::Run(std::int64_t deadline_ns, Pacing pacing,
                                  const NextRound& next,
                                  const OnResponse& on_response) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_conn;
  bool exhausted = false;
  std::int64_t last_progress = NowNs();

  // Writes as much of the connection's unwritten rounds as the socket
  // takes; a round's clock starts at its first byte.
  auto flush = [](Conn& conn) -> dphist::Status {
    while (Conn::Pending* round = conn.Unwritten()) {
      if (round->written == 0) {
        round->sent_ns = NowNs();
      }
      const ssize_t n =
          send(conn.fd, round->bytes.data() + round->written,
               round->bytes.size() - round->written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return dphist::Status::Ok();
        }
        return Errno("send");
      }
      round->written += static_cast<std::size_t>(n);
      if (round->written < round->bytes.size()) {
        return dphist::Status::Ok();
      }
    }
    return dphist::Status::Ok();
  };
  auto start_round = [&](std::size_t c) -> dphist::Status {
    Round round;
    if (!next(c, &round) || round.ids.empty()) {
      return dphist::Status::NotFound("no round");
    }
    Conn::Pending pending;
    pending.bytes = round.bytes;
    pending.ids = std::move(round.ids);
    conns_[c].rounds.push_back(std::move(pending));
    return dphist::Status::Ok();
  };

  for (;;) {
    if (!exhausted && NowNs() < deadline_ns) {
      bool all_idle = true;
      for (const Conn& conn : conns_) {
        all_idle = all_idle && !conn.busy();
      }
      bool started = false;
      if (pacing.together) {
        if (all_idle) {
          for (std::size_t c = 0; c < conns_.size(); ++c) {
            started = start_round(c).ok() || started;
          }
          exhausted = !started;
        }
      } else {
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          while (conns_[c].rounds.size() < pacing.depth) {
            if (!start_round(c).ok()) {
              exhausted = true;
              break;
            }
          }
        }
      }
      for (Conn& conn : conns_) {
        DPHIST_RETURN_IF_ERROR(flush(conn));
      }
    }

    fds.clear();
    fd_conn.clear();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (!conn.busy()) {
        continue;
      }
      short events = POLLIN;
      if (conn.Unwritten() != nullptr) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn.push_back(c);
    }
    if (fds.empty()) {
      return dphist::Status::Ok();  // deadline passed and everything drained
    }
    const int ready = poll(fds.data(), fds.size(), /*timeout_ms=*/1000);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("poll");
    }
    if (ready == 0) {
      if (NowNs() - last_progress > kStallNs) {
        return dphist::Status::Internal("no response for 60 s");
      }
      continue;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) {
        continue;
      }
      Conn& conn = conns_[fd_conn[i]];
      if ((revents & POLLOUT) != 0) {
        DPHIST_RETURN_IF_ERROR(flush(conn));
      }
      if ((revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      if (conn.in.size() - conn.in_end < kReadChunk / 2) {
        // Compact, then grow if one response still does not fit.
        std::memmove(conn.in.data(), conn.in.data() + conn.in_begin,
                     conn.in_end - conn.in_begin);
        conn.in_end -= conn.in_begin;
        conn.in_begin = 0;
        if (conn.in.size() - conn.in_end < kReadChunk / 2) {
          conn.in.resize(conn.in.size() * 2);
        }
      }
      const ssize_t n = recv(conn.fd, conn.in.data() + conn.in_end,
                             conn.in.size() - conn.in_end, 0);
      if (n == 0) {
        return dphist::Status::Internal("server closed a connection");
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return Errno("recv");
      }
      conn.in_end += static_cast<std::size_t>(n);
      last_progress = NowNs();
      for (;;) {
        int status = 0;
        std::size_t body_offset = 0;
        std::size_t body_len = 0;
        const char* front = conn.in.data() + conn.in_begin;
        const long used = ParseResponse(front, conn.in_end - conn.in_begin,
                                        &status, &body_offset, &body_len);
        if (used < 0) {
          return dphist::Status::Internal("malformed HTTP response");
        }
        if (used == 0) {
          break;
        }
        if (!conn.busy()) {
          return dphist::Status::Internal("response without a request");
        }
        Conn::Pending& round = conn.rounds.front();
        Response response;
        response.request = round.ids[round.answered++];
        response.status = status;
        response.body = std::string_view(front + body_offset, body_len);
        response.sent_ns = round.sent_ns;
        response.done_ns = NowNs();
        on_response(response);
        conn.in_begin += static_cast<std::size_t>(used);
        if (round.answered == round.ids.size()) {
          conn.rounds.pop_front();
        }
      }
      if (conn.in_begin == conn.in_end) {
        conn.in_begin = 0;
        conn.in_end = 0;
      }
    }
  }
}

}  // namespace perfbench
