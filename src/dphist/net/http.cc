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
    // Accumulate until the blank line terminating the header block,
    // consuming only up to (and including) that terminator — anything
    // after it is body or the next pipelined message and stays with the
    // caller. The search restarts just before the previous tail so a
    // terminator spanning a read boundary is found without rescanning.
    const std::size_t previous = buffer_.size();
    const std::size_t search_from = previous < 3 ? 0 : previous - 3;
    buffer_.append(bytes.data(), bytes.size());
    const std::size_t head_end = buffer_.find("\r\n\r\n", search_from);
    if (head_end == std::string::npos) {
      *consumed = bytes.size();
      if (buffer_.size() > kMaxHeaderBytes) {
        return Fail(431, "header block too large");
      }
      return State::kNeedMore;
    }
    const std::size_t head_total = head_end + 4;
    *consumed = head_total - previous;
    buffer_.resize(head_total);  // return over-read bytes to the caller
    if (!ParseHeaderBlock(std::string_view(buffer_).substr(0, head_end + 2))) {
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
