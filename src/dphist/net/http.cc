#include "dphist/net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <system_error>

namespace dphist {
namespace net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view HttpMessage::Header(std::string_view name) const {
  const auto it = headers.find(std::string(name));
  return it == headers.end() ? std::string_view() : std::string_view(it->second);
}

bool HttpMessage::WantsClose() const {
  return ToLower(Header("connection")) == "close";
}

HttpParser::State HttpParser::Fail(int status, std::string_view reason) {
  error_status_ = status;
  error_ = reason;
  return State::kError;
}

bool HttpParser::ParseHeaderBlock(std::string_view head) {
  // First line: request line or status line.
  std::size_t line_end = head.find("\r\n");
  const std::string_view first = head.substr(0, line_end);
  if (kind_ == Kind::kRequest) {
    const std::size_t sp1 = first.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : first.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return false;
    }
    message_.method = std::string(first.substr(0, sp1));
    message_.target = std::string(first.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = first.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      return false;
    }
  } else {
    // "HTTP/1.1 200 OK"
    const std::size_t sp1 = first.find(' ');
    if (sp1 == std::string_view::npos) {
      return false;
    }
    const std::string_view rest = first.substr(sp1 + 1);
    const std::size_t sp2 = rest.find(' ');
    const std::string_view code =
        sp2 == std::string_view::npos ? rest : rest.substr(0, sp2);
    int status = 0;
    const auto [end, ec] =
        std::from_chars(code.data(), code.data() + code.size(), status);
    if (ec != std::errc{} || end != code.data() + code.size()) {
      return false;
    }
    message_.status = status;
    if (sp2 != std::string_view::npos) {
      message_.reason = std::string(rest.substr(sp2 + 1));
    }
  }

  // Header fields.
  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    line_end = head.find("\r\n", pos);
    if (line_end == std::string_view::npos) {
      line_end = head.size();
    }
    const std::string_view line = head.substr(pos, line_end - pos);
    pos = line_end + 2;
    if (line.empty()) {
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return false;
    }
    const auto [field, inserted] =
        message_.headers.try_emplace(ToLower(line.substr(0, colon)));
    // A repeated Content-Length gives one message two framings — the
    // request-smuggling shape RFC 9112 §6.3 says to reject, even when the
    // values agree. (A comma list in one field fails the digit parse.)
    if (!inserted && field->first == "content-length") {
      return false;
    }
    field->second = std::string(Trim(line.substr(colon + 1)));
  }
  return true;
}

HttpParser::State HttpParser::Feed(std::string_view bytes,
                                   std::size_t* consumed) {
  *consumed = 0;
  if (!in_body_) {
    // Find the blank line ending the header block, consuming only up to
    // (and including) it: anything after it is body or the next pipelined
    // message and stays with the caller. The terminator is looked for in
    // the caller's bytes, and only a head still missing it is buffered,
    // so a head that arrives whole is never copied. A terminator spanning
    // the previous feed's tail is found in a six-byte window over the
    // boundary.
    const std::size_t previous = buffer_.size();
    std::size_t taken = std::string_view::npos;  // of `bytes`, terminator incl.
    if (previous > 0) {
      const std::size_t tail = std::min<std::size_t>(previous, 3);
      std::string window = buffer_.substr(previous - tail);
      window.append(bytes.substr(0, 3));
      const std::size_t at = window.find("\r\n\r\n");
      if (at != std::string::npos) {
        taken = at + 4 - tail;
      }
    }
    if (taken == std::string_view::npos) {
      const std::size_t at = bytes.find("\r\n\r\n");
      if (at != std::string_view::npos) {
        taken = at + 4;
      }
    }
    // The limit holds for the head as a whole, however its bytes arrive:
    // a head still missing its terminator fails as soon as it is over the
    // limit, and a complete one fails when its terminator lands past it.
    const std::size_t head_bytes =
        previous + (taken == std::string_view::npos ? bytes.size() : taken);
    if (head_bytes > kMaxHeaderBytes) {
      *consumed = bytes.size();
      return Fail(431, "header block too large");
    }
    if (taken == std::string_view::npos) {
      buffer_.append(bytes.data(), bytes.size());
      *consumed = bytes.size();
      return State::kNeedMore;
    }
    *consumed = taken;
    std::string_view head = bytes.substr(0, taken);
    if (previous > 0) {
      buffer_.append(head.data(), head.size());
      head = buffer_;
    }
    // Parse through the last header line's CRLF (the blank line dropped).
    if (!ParseHeaderBlock(head.substr(0, head.size() - 2))) {
      return Fail(400, "malformed header block");
    }
    // Body framing: Content-Length only (no chunked support).
    if (!message_.Header("transfer-encoding").empty()) {
      return Fail(400, "transfer-encoding not supported");
    }
    const std::string_view cl = message_.Header("content-length");
    std::size_t length = 0;
    if (!cl.empty()) {
      const auto [end, ec] =
          std::from_chars(cl.data(), cl.data() + cl.size(), length, 10);
      if (ec != std::errc{} || end != cl.data() + cl.size()) {
        return Fail(400, "bad content-length");
      }
      if (length > kMaxBodyBytes) {
        return Fail(413, "body too large");
      }
    }
    in_body_ = true;
    body_needed_ = length;
    message_.body.reserve(length);
    bytes.remove_prefix(*consumed);
  }

  const std::size_t take = std::min(bytes.size(), body_needed_);
  message_.body.append(bytes.data(), take);
  body_needed_ -= take;
  *consumed += take;
  return body_needed_ == 0 ? State::kComplete : State::kNeedMore;
}

void HttpParser::Reset() {
  buffer_.clear();
  in_body_ = false;
  body_needed_ = 0;
  message_ = HttpMessage();
  error_status_ = 0;
  error_.clear();
}

namespace {

void AppendHeadersOnly(std::string& out, const HttpMessage& message,
                       std::size_t body_len) {
  for (const auto& [name, value] : message.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "content-length: " + std::to_string(body_len) + "\r\n";
  out += "\r\n";
}

void AppendHeaders(std::string& out, const HttpMessage& message) {
  AppendHeadersOnly(out, message, message.body.size());
  out += message.body;
}

std::string ResponseStatusLine(const HttpMessage& message) {
  return "HTTP/1.1 " + std::to_string(message.status) + " " +
         std::string(ReasonPhrase(message.status)) + "\r\n";
}

}  // namespace

std::string SerializeRequest(const HttpMessage& message) {
  std::string out = message.method + " " + message.target + " HTTP/1.1\r\n";
  AppendHeaders(out, message);
  return out;
}

std::string SerializeResponse(const HttpMessage& message) {
  std::string out = ResponseStatusLine(message);
  AppendHeaders(out, message);
  return out;
}

std::string SerializeResponseHead(const HttpMessage& message,
                                  std::size_t body_len) {
  std::string out = ResponseStatusLine(message);
  AppendHeadersOnly(out, message, body_len);
  return out;
}

ResponseHead::ResponseHead(const HttpMessage& message)
    : prefix_(SerializeResponseHead(message, 0)) {
  // AppendHeadersOnly writes content-length last: drop its value and the
  // blank line, keeping everything through "content-length: ".
  prefix_.resize(prefix_.size() - std::string_view("0\r\n\r\n").size());
}

void ResponseHead::Append(std::string& out, std::size_t body_len) const {
  char digits[24];
  const std::to_chars_result written =
      std::to_chars(digits, digits + sizeof(digits), body_len);
  out.append(prefix_);
  out.append(digits, written.ptr);
  out.append("\r\n\r\n");
}

ResponseHead::BodyMark ResponseHead::BeginBody(
    std::string& out, std::size_t max_body_len) const {
  char digits[24];
  const std::to_chars_result written =
      std::to_chars(digits, digits + sizeof(digits), max_body_len);
  out.append(prefix_);
  const BodyMark mark{out.size(),
                      static_cast<std::size_t>(written.ptr - digits)};
  out.append(mark.length_digits, '0');
  out.append("\r\n\r\n");
  return mark;
}

void ResponseHead::EndBody(std::string& out, BodyMark mark) const {
  const std::size_t body_at = mark.length_at + mark.length_digits + 4;
  char digits[24];
  const std::to_chars_result written = std::to_chars(
      digits, digits + sizeof(digits), out.size() - body_at);
  const auto length = static_cast<std::size_t>(written.ptr - digits);
  if (length < mark.length_digits) {
    out.erase(mark.length_at, mark.length_digits - length);
  } else if (length > mark.length_digits) {
    out.insert(mark.length_at, length - mark.length_digits, '0');
  }
  out.replace(mark.length_at, length, digits, length);
}

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

}  // namespace net
}  // namespace dphist
