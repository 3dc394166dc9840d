// Direct tests of HttpParser::Feed on Content-Length framing. A message
// with more than one Content-Length — repeated fields, equal or not, or a
// comma list in one field — must fail with 400 however its bytes arrive,
// because two framings for one message is the request-smuggling shape
// RFC 9112 §6.3 rejects. Every input is fed whole and split at every byte
// boundary. Label `net`, so CI also runs these under ASan+UBSan.

#include "dphist/net/http.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace net
}  // namespace dphist
