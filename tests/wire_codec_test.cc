// The wire codec's contract: binary frames round-trip bit-exactly at any
// size, the JSON fallback round-trips to the identical message, and a
// frame that was truncated or bit-flipped is a typed rejection, never a
// garbled message (mirroring journal_test's torn-tail battery). Golden
// bytes checked into tests/testdata pin the format across hosts — a
// big-endian machine must produce byte-identical frames.

#include "dphist/net/wire_codec.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/binary_io.h"

namespace dphist {
namespace net {
namespace {

WireQueryRequest SampleQueryRequest(std::size_t queries) {
  WireQueryRequest request;
  request.tenant = "acme";
  request.dataset = "visits";
  request.request.publisher = "noise_first";
  request.request.epsilon = 0.5;
  request.request.seed = 7;
  for (std::size_t i = 0; i < queries; ++i) {
    request.queries.push_back(RangeQuery{i, i + 1 + (i % 13)});
  }
  return request;
}

WireBatchAnswer SampleBatchAnswer(std::size_t answers) {
  WireBatchAnswer answer;
  answer.stale = answers % 2 == 1;
  answer.cache_hit = true;
  answer.served = serve::ReleaseKey{"acme", "visits", 0x0123456789ABCDEFull,
                                    "noise_first", 0.5, 7};
  for (std::size_t i = 0; i < answers; ++i) {
    answer.answers.push_back(static_cast<double>(i) * 1.25 - 3.0);
  }
  return answer;
}

WireHistogram SampleHistogram(std::size_t bins) {
  WireHistogram histogram;
  histogram.key = serve::ReleaseKey{"acme", "visits", 42, "privelet", 1.0, 9};
  for (std::size_t i = 0; i < bins; ++i) {
    histogram.counts.push_back(static_cast<double>(i % 97) - 11.5);
  }
  return histogram;
}

// The acceptance sizes: empty, single, odd, and a million entries.
const std::size_t kSizes[] = {0, 1, 37, 1u << 20};

TEST(WireCodecTest, QueryRequestRoundTrips) {
  for (const std::size_t size : kSizes) {
    const WireQueryRequest request = SampleQueryRequest(size);
    auto decoded = DecodeFrame(EncodeQueryRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded.value().type, WireType::kQueryRequest);
    EXPECT_TRUE(decoded.value().query_request == request) << "size " << size;
  }
}

TEST(WireCodecTest, BatchAnswerRoundTrips) {
  for (const std::size_t size : kSizes) {
    const WireBatchAnswer answer = SampleBatchAnswer(size);
    auto decoded = DecodeFrame(EncodeBatchAnswer(answer));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded.value().type, WireType::kBatchAnswer);
    EXPECT_TRUE(decoded.value().batch_answer == answer) << "size " << size;
  }
}

TEST(WireCodecTest, HistogramRoundTrips) {
  for (const std::size_t size : kSizes) {
    const WireHistogram histogram = SampleHistogram(size);
    auto decoded = DecodeFrame(EncodeHistogram(histogram));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded.value().type, WireType::kHistogram);
    EXPECT_TRUE(decoded.value().histogram == histogram) << "size " << size;
  }
}

TEST(WireCodecTest, ErrorRoundTripsEveryCode) {
  const Status statuses[] = {
      Status::InvalidArgument("a"),    Status::Internal("b"),
      Status::NotFound("c"),           Status::ParseError("d"),
      Status::ResourceExhausted("e"),  Status::DeadlineExceeded("f"),
      Status::PermissionDenied("g"),   Status::DataLoss("h"),
  };
  for (const Status& status : statuses) {
    auto decoded = DecodeFrame(EncodeError(status));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().type, WireType::kError);
    EXPECT_EQ(decoded.value().error.code, status.code());
    EXPECT_EQ(decoded.value().error.message, status.message());
    const Status round = decoded.value().error.ToStatus();
    EXPECT_EQ(round.code(), status.code());
    EXPECT_EQ(round.message(), status.message());
  }
}

TEST(WireCodecTest, JsonRoundTripsMatchBinary) {
  // The JSON fallback must decode to the *identical* message the binary
  // path decodes to — including bit-exact doubles (round-trip formatting)
  // and full-precision u64 seeds/fingerprints (string-encoded in JSON).
  WireQueryRequest request = SampleQueryRequest(37);
  request.request.seed = 0xFFFFFFFFFFFFFFFFull;  // > 2^53: breaks if numeric
  auto decoded_request = DecodeJson(EncodeQueryRequestJson(request));
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status().ToString();
  EXPECT_TRUE(decoded_request.value().query_request == request);

  WireBatchAnswer answer = SampleBatchAnswer(37);
  answer.answers.push_back(0.1 + 0.2);  // not exactly representable
  auto decoded_answer = DecodeJson(EncodeBatchAnswerJson(answer));
  ASSERT_TRUE(decoded_answer.ok()) << decoded_answer.status().ToString();
  EXPECT_TRUE(decoded_answer.value().batch_answer == answer);

  const WireHistogram histogram = SampleHistogram(37);
  auto decoded_histogram = DecodeJson(EncodeHistogramJson(histogram));
  ASSERT_TRUE(decoded_histogram.ok());
  EXPECT_TRUE(decoded_histogram.value().histogram == histogram);

  auto decoded_error =
      DecodeJson(EncodeErrorJson(Status::ResourceExhausted("queue full")));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().error.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded_error.value().error.message, "queue full");
}

TEST(WireCodecTest, EveryTruncationIsRejected) {
  const std::string frame = EncodeBatchAnswer(SampleBatchAnswer(5));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    auto decoded = DecodeFrame(frame.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireCodecTest, EveryBitFlipIsRejected) {
  const std::string frame = EncodeError(Status::NotFound("missing"));
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto decoded = DecodeFrame(corrupt);
      EXPECT_FALSE(decoded.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(WireCodecTest, TrailingBytesAreRejected) {
  std::string frame = EncodeError(Status::NotFound("x"));
  frame += '\0';
  EXPECT_FALSE(DecodeFrame(frame).ok());
}

TEST(WireCodecTest, UnknownTypeIsRejected) {
  // A well-framed payload with a bogus type tag: CRC passes, body fails.
  std::string payload(1, '\x9');
  std::string frame(kWireMagic, kWireMagicLen);
  binio::PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  binio::PutU32(frame, binio::Crc32(payload));
  frame += payload;
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(WireCodecTest, HandBuiltGoldenErrorFrame) {
  // Independent byte-level construction (no binio on the encode side):
  // pins the frame layout and little-endian integer order.
  const std::string payload =
      std::string("\x04", 1) +               // type kError
      std::string("\x03\x00\x00\x00", 4) +   // code 3 = NotFound, u32 LE
      std::string("\x02\x00\x00\x00", 4) +   // message length 2, u32 LE
      "no";
  std::string expected = "DPHWIR1\n";
  expected += std::string("\x0b\x00\x00\x00", 4);  // payload_len 11, u32 LE
  const std::uint32_t crc = binio::Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    expected += static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  expected += payload;
  EXPECT_EQ(EncodeError(Status::NotFound("no")), expected);
  auto decoded = DecodeFrame(expected);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().error.code, StatusCode::kNotFound);
  EXPECT_EQ(decoded.value().error.message, "no");
}

TEST(WireCodecTest, GoldenFileRoundTrips) {
  // The checked-in golden frame: encoding the reference message must
  // reproduce the file byte for byte on ANY host (the cross-endian
  // guarantee), and the file must decode back to the reference message.
  const std::string path =
      std::string(DPHIST_TESTDATA_DIR) + "/wire_batch_answer_v1.bin";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string golden = bytes.str();
  ASSERT_FALSE(golden.empty());

  const WireBatchAnswer reference = SampleBatchAnswer(3);
  EXPECT_EQ(EncodeBatchAnswer(reference), golden);
  auto decoded = DecodeFrame(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().batch_answer == reference);
}

TEST(WireCodecTest, QueryRequestViewDecodesWhatDecodeFrameDoes) {
  // One view reused across sizes, growing and shrinking, as the event loop
  // reuses it.
  QueryRequestView view;
  const std::size_t sizes[] = {37, 0, std::size_t{1} << 16, 1};
  for (const std::size_t size : sizes) {
    const WireQueryRequest request = SampleQueryRequest(size);
    const std::string frame = EncodeQueryRequest(request);
    auto decoded = DecodeQueryRequest(frame, &view);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded.value());
    EXPECT_EQ(view.tenant, request.tenant);
    EXPECT_EQ(view.dataset, request.dataset);
    EXPECT_EQ(view.publisher, request.request.publisher);
    EXPECT_EQ(view.epsilon, request.request.epsilon);
    EXPECT_EQ(view.seed, request.request.seed);
    EXPECT_EQ(view.queries, request.queries) << "size " << size;
    // The strings are views into the frame, not copies.
    EXPECT_GE(view.tenant.data(), frame.data());
    EXPECT_LT(view.tenant.data(), frame.data() + frame.size());
  }
  // Another message type is not an error of this decoder.
  const std::string answer = EncodeBatchAnswer(SampleBatchAnswer(2));
  auto other = DecodeQueryRequest(answer, &view);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value());
}

TEST(WireCodecTest, QueryRequestViewRejectsWhatDecodeFrameRejects) {
  // Same framing contract, same status codes, for every truncation and
  // every single-bit flip of a query request.
  const std::string frame = EncodeQueryRequest(SampleQueryRequest(3));
  QueryRequestView view;
  auto expect_same = [&view](const std::string& bytes) {
    auto full = DecodeFrame(bytes);
    auto in_place = DecodeQueryRequest(bytes, &view);
    if (full.ok()) {
      ASSERT_TRUE(in_place.ok());
      EXPECT_EQ(in_place.value(), full.value().type == WireType::kQueryRequest);
      return;
    }
    ASSERT_FALSE(in_place.ok());
    EXPECT_EQ(in_place.status().code(), full.status().code());
  };
  for (std::size_t len = 0; len < frame.size(); ++len) {
    expect_same(frame.substr(0, len));
  }
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      expect_same(corrupt);
      EXPECT_FALSE(DecodeQueryRequest(corrupt, &view).ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
  expect_same(frame + '\0');
}

TEST(WireCodecTest, BatchAnswerWriterAppendsTheEncodedFrame) {
  for (const std::size_t size : kSizes) {
    const WireBatchAnswer answer = SampleBatchAnswer(size);
    const std::string frame = EncodeBatchAnswer(answer);
    EXPECT_EQ(frame.size(), BatchAnswerFrameSize(answer.served, size));
    // Appending behind other bytes writes the same frame, CRC included.
    std::string out = "prefix";
    AppendBatchAnswer(out, answer.answers, answer.stale, answer.cache_hit,
                      answer.served);
    EXPECT_EQ(out, "prefix" + frame) << "size " << size;
  }
  // A slice of a larger answer vector encodes as that slice alone — how a
  // coalesced batch is split back per request.
  const WireBatchAnswer whole = SampleBatchAnswer(10);
  WireBatchAnswer slice = whole;
  slice.answers.assign(whole.answers.begin() + 3, whole.answers.begin() + 7);
  std::string out;
  AppendBatchAnswer(out, std::span<const double>(whole.answers).subspan(3, 4),
                    whole.stale, whole.cache_hit, whole.served);
  EXPECT_EQ(out, EncodeBatchAnswer(slice));
}

TEST(WireCodecTest, MalformedJsonIsTyped) {
  EXPECT_FALSE(DecodeJson("").ok());
  EXPECT_FALSE(DecodeJson("{}").ok());                       // no type
  EXPECT_FALSE(DecodeJson("{\"type\":\"wat\"}").ok());       // unknown type
  EXPECT_FALSE(DecodeJson("{\"type\":\"query_request\"}").ok());  // fields
  // Bad queries string.
  WireQueryRequest request = SampleQueryRequest(1);
  std::string good = EncodeQueryRequestJson(request);
  const std::size_t at = good.find("\"queries\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string bad = good;
  bad.replace(at, std::string("\"queries\":\"").size(),
              "\"queries\":\"zap");
  EXPECT_FALSE(DecodeJson(bad).ok());
}

}  // namespace
}  // namespace net
}  // namespace dphist
