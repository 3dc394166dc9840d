// Direct tests of HttpParser::Feed on Content-Length framing. A message
// with more than one Content-Length — repeated fields, equal or not, or a
// comma list in one field — must fail with 400 however its bytes arrive,
// because two framings for one message is the request-smuggling shape
// RFC 9112 §6.3 rejects. A pipelined stream parses to the same messages,
// at the same offsets, with the same final status (a head over
// kMaxHeaderBytes is 431) wherever a read boundary falls. Every input is
// fed whole and split at every byte boundary. Label `net`, so CI also runs
// these under ASan+UBSan.

#include "dphist/net/http.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/net/wire_codec.h"

namespace dphist {
namespace net {
namespace {

struct FeedResult {
  HttpParser::State state;
  int error_status;
  std::string body;
  std::size_t consumed;
};

// Feeds `bytes` to a fresh request parser in two pieces, split at `split`
// (split == bytes.size() feeds it whole), stopping at the first piece
// that completes or fails the message.
FeedResult FeedSplit(std::string_view bytes, std::size_t split) {
  HttpParser parser(HttpParser::Kind::kRequest);
  std::size_t total = 0;
  HttpParser::State state = HttpParser::State::kNeedMore;
  for (const std::string_view piece :
       {bytes.substr(0, split), bytes.substr(split)}) {
    std::size_t consumed = 0;
    state = parser.Feed(piece, &consumed);
    total += consumed;
    if (state != HttpParser::State::kNeedMore) {
      break;
    }
  }
  return {state, parser.error_status(), parser.message().body, total};
}

// Every split of `request`, including feeding it whole, must fail with 400.
void ExpectRejectedAtEverySplit(const std::string& request) {
  for (std::size_t split = 0; split <= request.size(); ++split) {
    const FeedResult result = FeedSplit(request, split);
    EXPECT_EQ(result.state, HttpParser::State::kError) << "split " << split;
    EXPECT_EQ(result.error_status, 400) << "split " << split;
  }
}

TEST(HttpParserTest, SingleContentLengthParsesAtEverySplit) {
  const std::string request =
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
  for (std::size_t split = 0; split <= request.size(); ++split) {
    const FeedResult result = FeedSplit(request, split);
    ASSERT_EQ(result.state, HttpParser::State::kComplete) << "split " << split;
    EXPECT_EQ(result.body, "hello") << "split " << split;
    EXPECT_EQ(result.consumed, request.size()) << "split " << split;
  }
}

TEST(HttpParserTest, RejectsEqualDuplicateContentLength) {
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\n"
      "Content-Length: 5\r\n\r\nhello");
  // Header names are case-insensitive, so differently-cased repeats are
  // the same field.
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\ncontent-length: 5\r\nHost: x\r\n"
      "CONTENT-LENGTH: 5\r\n\r\nhello");
}

TEST(HttpParserTest, RejectsConflictingDuplicateContentLength) {
  // Whichever value a peer honoured, the other would frame a smuggled
  // second request out of the body.
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\n"
      "Content-Length: 0\r\n\r\nhello");
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 0\r\n"
      "Content-Length: 5\r\n\r\nhello");
}

TEST(HttpParserTest, RejectsContentLengthList) {
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello");
  ExpectRejectedAtEverySplit(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 5,5\r\n\r\nhello");
}

// What parsing a pipelined stream yields: each completed message and the
// stream offset its bytes end at, and the status of the error that
// stopped the parse (0 when none did).
struct StreamResult {
  std::vector<std::string> messages;
  std::vector<std::size_t> ends;
  int error_status = 0;

  friend bool operator==(const StreamResult&, const StreamResult&) = default;
};

// Parses `stream` as the server does — feed what is left, take each
// completed message, reset, go on — with a read boundary at `split`.
StreamResult FeedStream(std::string_view stream, std::size_t split) {
  HttpParser parser(HttpParser::Kind::kRequest);
  StreamResult result;
  std::size_t offset = 0;
  for (std::string_view piece :
       {stream.substr(0, split), stream.substr(split)}) {
    while (!piece.empty()) {
      std::size_t consumed = 0;
      const HttpParser::State state = parser.Feed(piece, &consumed);
      if (state == HttpParser::State::kError) {
        result.error_status = parser.error_status();
        return result;
      }
      piece.remove_prefix(consumed);
      offset += consumed;
      if (state == HttpParser::State::kNeedMore) {
        break;
      }
      const HttpMessage& message = parser.message();
      std::string summary = message.method + " " + message.target + " ";
      summary += message.Header("content-type");
      summary += " ";
      summary += message.body;
      result.messages.push_back(summary);
      result.ends.push_back(offset);
      parser.Reset();
    }
  }
  return result;
}

std::string Post(std::string_view content_type, std::string body) {
  HttpMessage message;
  message.method = "POST";
  message.target = "/v1/query";
  message.headers["content-type"] = std::string(content_type);
  message.body = std::move(body);
  return SerializeRequest(message);
}

void ExpectSameAtEverySplit(const std::string& stream,
                            const StreamResult& expected) {
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    ASSERT_EQ(FeedStream(stream, split), expected) << "split " << split;
  }
}

TEST(HttpParserTest, PipelinedStreamParsesTheSameAtEverySplit) {
  WireQueryRequest query;
  query.request.seed = 9;
  query.queries = {{0, 8}, {3, 5}, {10, 64}};
  const std::string binary =
      Post(kContentTypeBinary, EncodeQueryRequest(query));
  const std::string json =
      Post(kContentTypeJson, EncodeQueryRequestJson(query));
  const std::string health = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string stream = binary + json + health + binary;

  const StreamResult whole = FeedStream(stream, stream.size());
  ASSERT_EQ(whole.messages.size(), 4u);
  EXPECT_EQ(whole.error_status, 0);
  EXPECT_EQ(whole.ends.back(), stream.size());
  EXPECT_EQ(whole.ends[0], binary.size());
  ExpectSameAtEverySplit(stream, whole);
}

TEST(HttpParserTest, OversizeHeadIs431AtEverySplit) {
  // The limit holds for the head as a whole, whether it arrives in one
  // read or in many.
  const std::string small = Post(kContentTypeJson, "{}");
  const std::string pad(kMaxHeaderBytes, 'p');
  std::string oversize = "POST /v1/query HTTP/1.1\r\nx-pad: " + pad;
  oversize += "\r\ncontent-length: 2\r\n\r\n{}";
  const std::string stream = small + oversize;

  const StreamResult whole = FeedStream(stream, stream.size());
  ASSERT_EQ(whole.messages.size(), 1u);
  EXPECT_EQ(whole.ends[0], small.size());
  EXPECT_EQ(whole.error_status, 431);
  ExpectSameAtEverySplit(stream, whole);
}

TEST(HttpParserTest, HeadAtTheLimitParsesAndOneByteMoreIs431) {
  // The limit counts the whole head, terminator included.
  const std::string start = "GET /healthz HTTP/1.1\r\nx-pad: ";
  const std::string end = "\r\n\r\n";
  const std::string pad(kMaxHeaderBytes - start.size() - end.size(), 'p');
  const std::string at_limit = start + pad + end;
  ASSERT_EQ(at_limit.size(), kMaxHeaderBytes);
  const std::string over = start + "p" + pad + end;
  const std::size_t size = at_limit.size();
  for (const std::size_t split : {std::size_t{0}, size / 2, size - 2, size}) {
    const StreamResult parsed = FeedStream(at_limit, split);
    EXPECT_EQ(parsed.error_status, 0) << "split " << split;
    EXPECT_EQ(parsed.messages.size(), 1u) << "split " << split;
    EXPECT_EQ(FeedStream(over, split).error_status, 431) << "split " << split;
  }
}

}  // namespace
}  // namespace net
}  // namespace dphist
