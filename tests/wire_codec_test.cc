// The wire codec's contract: binary frames round-trip bit-exactly at any
// size, the JSON fallback round-trips to the identical message, and a
// frame that was truncated or bit-flipped is a typed rejection, never a
// garbled message (mirroring journal_test's torn-tail battery). Golden
// bytes checked into tests/testdata pin the format across hosts — a
// big-endian machine must produce byte-identical frames — and pin the JSON
// bodies byte for byte. The CRC-32 every frame carries is checked against
// its portable and bitwise forms at every length and alignment.

#include "dphist/net/wire_codec.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/binary_io.h"
#include "dphist/obs/export.h"

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

// A release key whose strings hold every JSON escape class: a quote, a
// backslash, a control byte with a short escape and one without, and a
// non-ASCII UTF-8 pair.
serve::ReleaseKey GoldenKey() {
  return serve::ReleaseKey{"ten\"ant\\", "data\nset\x01",
                           0xFEDCBA9876543210ull, "pub\xc3\xa9lisher\t", 0.1,
                           18446744073709551615ull};
}

// Values covering every formatting case: signed zeros, integers up to
// 2^53 (its literal rounds to it), inexact fractions, extremes, two
// subnormals, and the non-finite values JSON writes as null.
std::vector<double> GoldenValues() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      0.0,
      -0.0,
      1.0,
      -7.0,
      42.0,
      1e15,
      9007199254740993.0,
      0.1 + 0.2,
      -3.25,
      1e300,
      -1e-300,
      std::numeric_limits<double>::denorm_min(),
      2.2250738585072014e-308 / 3,
      std::numeric_limits<double>::quiet_NaN(),
      inf,
      -inf,
      123456.789,
  };
}

WireBatchAnswer GoldenBatchAnswer() {
  WireBatchAnswer answer;
  answer.stale = true;
  answer.cache_hit = false;
  answer.served = GoldenKey();
  answer.answers = GoldenValues();
  return answer;
}

WireHistogram GoldenHistogram() {
  WireHistogram histogram;
  histogram.key = GoldenKey();
  histogram.counts = GoldenValues();
  return histogram;
}

WireSparseHistogram GoldenSparseHistogram() {
  WireSparseHistogram histogram;
  histogram.key = GoldenKey();
  histogram.domain_size = 1ull << 63;
  histogram.keys = {0, 1, 4096, (1ull << 53) + 1, (1ull << 63) - 1};
  const std::vector<double> values = GoldenValues();
  histogram.counts.assign(values.begin(), values.begin() + 5);
  return histogram;
}

std::string ReadTestData(const std::string& name) {
  const std::string path = std::string(DPHIST_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
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

TEST(WireCodecTest, JsonGoldenFilesMatchByteForByte) {
  // The checked-in bodies pin the JSON encoders byte for byte, as the
  // binary goldens pin the frames: a faster writer must reproduce them.
  const std::string answer = ReadTestData("wire_batch_answer_v1.json");
  ASSERT_FALSE(answer.empty());
  EXPECT_EQ(EncodeBatchAnswerJson(GoldenBatchAnswer()), answer);
  EXPECT_EQ(EncodeHistogramJson(GoldenHistogram()),
            ReadTestData("wire_histogram_v1.json"));
  EXPECT_EQ(EncodeSparseHistogramJson(GoldenSparseHistogram()),
            ReadTestData("wire_sparse_histogram_v1.json"));
}

TEST(WireCodecTest, JsonGoldenFilesDecodeAndReencodeByteForByte) {
  // Bodies the server itself wrote decode, null included, and encode back
  // to the same bytes. The three non-finite golden values (NaN, +inf,
  // -inf) all come back as NaN: JSON carries no infinity.
  const auto expect_values = [](const std::vector<double>& decoded,
                                const std::vector<double>& written) {
    ASSERT_EQ(decoded.size(), written.size());
    for (std::size_t i = 0; i < written.size(); ++i) {
      if (std::isfinite(written[i])) {
        EXPECT_EQ(std::signbit(decoded[i]), std::signbit(written[i])) << i;
        EXPECT_EQ(decoded[i], written[i]) << i;
      } else {
        EXPECT_TRUE(std::isnan(decoded[i])) << i;
      }
    }
  };
  const std::string answer_json = ReadTestData("wire_batch_answer_v1.json");
  auto answer = DecodeJson(answer_json);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer.value().type, WireType::kBatchAnswer);
  EXPECT_EQ(EncodeBatchAnswerJson(answer.value().batch_answer), answer_json);
  expect_values(answer.value().batch_answer.answers, GoldenValues());

  const std::string histogram_json = ReadTestData("wire_histogram_v1.json");
  auto histogram = DecodeJson(histogram_json);
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  ASSERT_EQ(histogram.value().type, WireType::kHistogram);
  EXPECT_EQ(EncodeHistogramJson(histogram.value().histogram), histogram_json);
  expect_values(histogram.value().histogram.counts, GoldenValues());

  const std::string sparse_json =
      ReadTestData("wire_sparse_histogram_v1.json");
  auto sparse = DecodeJson(sparse_json);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_EQ(sparse.value().type, WireType::kSparseHistogram);
  EXPECT_EQ(EncodeSparseHistogramJson(sparse.value().sparse_histogram),
            sparse_json);
  EXPECT_EQ(sparse.value().sparse_histogram.keys,
            GoldenSparseHistogram().keys);
  expect_values(sparse.value().sparse_histogram.counts,
                GoldenSparseHistogram().counts);
}

TEST(WireCodecTest, JsonKeysWithEscapesRoundTrip) {
  // The golden key's escapes survive a decode; finite answers round-trip.
  WireBatchAnswer answer = GoldenBatchAnswer();
  answer.answers.resize(13);  // drop the non-finite tail, written as null
  auto decoded = DecodeJson(EncodeBatchAnswerJson(answer));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().batch_answer.served, answer.served);
  ASSERT_EQ(decoded.value().batch_answer.answers.size(), 13u);
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(std::signbit(decoded.value().batch_answer.answers[i]),
              std::signbit(answer.answers[i]));
    EXPECT_EQ(decoded.value().batch_answer.answers[i], answer.answers[i]);
  }
}

TEST(WireCodecTest, Crc32MatchesPortableAtEveryLengthAndOffset) {
  // Every length from 0 to 4096 at every start offset 0-15, so each fold
  // boundary (16-byte blocks, 64-byte lanes, the 64-byte minimum) meets
  // every alignment; the short lengths also against a bitwise CRC.
  std::string buffer(4096 + 16, '\0');
  std::mt19937_64 rng(20120412);
  for (char& c : buffer) {
    c = static_cast<char>(rng());
  }
  const auto bitwise = [](std::string_view bytes) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char c : bytes) {
      crc ^= static_cast<unsigned char>(c);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      const std::uint32_t portable = binio::Crc32Portable(bytes);
      ASSERT_EQ(binio::Crc32(bytes), portable)
          << "length " << length << " offset " << offset;
      if (length <= 256) {
        ASSERT_EQ(portable, bitwise(bytes))
            << "length " << length << " offset " << offset;
      }
    }
  }
}

TEST(WireCodecTest, Crc32KnownVectors) {
  EXPECT_EQ(binio::Crc32(""), 0x00000000u);
  EXPECT_EQ(binio::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(binio::Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  // 64 bytes and up take the fold where the CPU has one.
  EXPECT_EQ(binio::Crc32(std::string(64, '\0')), 0x758D6336u);
  EXPECT_EQ(binio::Crc32(std::string(1000, 'a')),
            binio::Crc32Portable(std::string(1000, 'a')));
}

// A JSON query request with `field` replaced by `value` (a raw JSON token).
std::string QueryRequestJsonWith(std::string_view field,
                                 std::string_view value) {
  std::string json = EncodeQueryRequestJson(SampleQueryRequest(2));
  const std::string key = "\"" + std::string(field) + "\":";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos);
  const std::size_t start = at + key.size();
  const std::size_t end = json.find_first_of(",}", json.find('"', start + 1));
  json.replace(start, end - start, value);
  return json;
}

TEST(WireCodecTest, JsonU64AcceptsOnlyExactIntegers) {
  // A u64 field sent as a JSON number is read only when the double is an
  // exact integer below 2^53; otherwise it is malformed, never cast.
  const std::string rejected[] = {"1e30", "1.5", "9007199254740992", "-1",
                                  "1e300", "18446744073709551616"};
  for (const std::string& value : rejected) {
    auto decoded = DecodeJson(QueryRequestJsonWith("seed", value));
    ASSERT_FALSE(decoded.ok()) << value;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << value;
  }
  auto seven = DecodeJson(QueryRequestJsonWith("seed", "7"));
  ASSERT_TRUE(seven.ok()) << seven.status().ToString();
  EXPECT_EQ(seven.value().query_request.request.seed, 7u);
  auto largest = DecodeJson(QueryRequestJsonWith("seed", "9007199254740991"));
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest.value().query_request.request.seed, (1ull << 53) - 1);

  // The same rule for the key's fingerprint and the sparse domain.
  std::string answer = EncodeBatchAnswerJson(SampleBatchAnswer(1));
  const std::string fingerprint = "\"fingerprint\":\"81985529216486895\"";
  ASSERT_NE(answer.find(fingerprint), std::string::npos);
  answer.replace(answer.find(fingerprint), fingerprint.size(),
                 "\"fingerprint\":1e30");
  EXPECT_EQ(DecodeJson(answer).status().code(), StatusCode::kParseError);
  std::string sparse = EncodeSparseHistogramJson(GoldenSparseHistogram());
  const std::string domain = "\"domain\":\"9223372036854775808\"";
  ASSERT_NE(sparse.find(domain), std::string::npos);
  sparse.replace(sparse.find(domain), domain.size(), "\"domain\":1.5");
  EXPECT_EQ(DecodeJson(sparse).status().code(), StatusCode::kParseError);

  // An error code out of any range is malformed too, not cast.
  EXPECT_FALSE(DecodeJson("{\"type\":\"error\",\"code\":1e30,"
                          "\"message\":\"m\"}")
                   .ok());
  EXPECT_FALSE(
      DecodeJson("{\"type\":\"error\",\"code\":-1,\"message\":\"m\"}").ok());
}

TEST(WireCodecTest, JsonStringEscapesAtRunBoundaries) {
  // ParseFlatJson copies plain runs whole: escapes first, last, adjacent,
  // alone, and \u00XX must split the runs exactly.
  const struct {
    const char* json;
    const char* value;
  } cases[] = {
      {R"({"a":"\"abc"})", "\"abc"},
      {R"({"a":"abc\""})", "abc\""},
      {R"({"a":"\\\n"})", "\\\n"},
      {R"({"a":"ab\t\rcd"})", "ab\t\rcd"},
      {R"({"a":"\u0041bc"})", "Abc"},
      {R"({"a":"ab\u007a"})", "abz"},
      {R"({"a":"\u0001\u001f"})", "\x01\x1f"},
      {R"({"a":"\/"})", "/"},
      {R"({"a":""})", ""},
      {R"({"a":"plain"})", "plain"},
  };
  for (const auto& c : cases) {
    auto parsed = obs::ParseFlatJson(c.json);
    ASSERT_TRUE(parsed.ok()) << c.json << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().at("a").string_value, c.value) << c.json;
  }
  // A dangling backslash, a cut \u escape, and an unterminated run.
  for (const char* json :
       {R"({"a":"abc\)", R"({"a":"\)", R"({"a":"ab\u00)", R"({"a":"abc)",
        R"({"a":"\u00zz"})", R"({"a":"\q"})"}) {
    EXPECT_FALSE(obs::ParseFlatJson(json).ok()) << json;
  }
  // Whatever the writer escapes, the parser restores, run by run.
  for (const std::string& raw :
       {std::string("\"\\\n\t\r\x01"), std::string("a\"b\\c\nd"),
        std::string("\x1f\xc3\xa9\x7f"), std::string("")}) {
    const std::string json = "{\"a\":\"" + obs::JsonEscape(raw) + "\"}";
    auto parsed = obs::ParseFlatJson(json);
    ASSERT_TRUE(parsed.ok()) << json;
    EXPECT_EQ(parsed.value().at("a").string_value, raw) << json;
  }
}

// DecodeJson's byte-level property: any input decodes to a typed error or
// to a message that decodes the same once re-encoded.
void ExpectTypedOrStable(const std::string& input) {
  auto decoded = DecodeJson(input);
  if (!decoded.ok()) {
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kParseError ||
                code == StatusCode::kInvalidArgument)
        << "untyped error " << decoded.status().ToString() << " for "
        << input;
    return;
  }
  const WireMessage& message = decoded.value();
  std::string again;
  switch (message.type) {
    case WireType::kQueryRequest:
      again = EncodeQueryRequestJson(message.query_request);
      break;
    case WireType::kBatchAnswer:
      again = EncodeBatchAnswerJson(message.batch_answer);
      break;
    default:
      ADD_FAILURE() << "unexpected message type from " << input;
      return;
  }
  auto redecoded = DecodeJson(again);
  ASSERT_TRUE(redecoded.ok()) << again;
  ASSERT_EQ(redecoded.value().type, message.type);
  if (message.type == WireType::kQueryRequest) {
    EXPECT_TRUE(redecoded.value().query_request == message.query_request)
        << input;
    return;
  }
  const WireBatchAnswer& first = message.batch_answer;
  const WireBatchAnswer& second = redecoded.value().batch_answer;
  EXPECT_EQ(second.stale, first.stale);
  EXPECT_EQ(second.cache_hit, first.cache_hit);
  EXPECT_EQ(second.served.tenant, first.served.tenant);
  EXPECT_EQ(second.served.dataset, first.served.dataset);
  EXPECT_EQ(second.served.publisher, first.served.publisher);
  EXPECT_EQ(second.served.dataset_fingerprint,
            first.served.dataset_fingerprint);
  EXPECT_EQ(second.served.seed, first.served.seed);
  EXPECT_EQ(std::memcmp(&second.served.epsilon, &first.served.epsilon,
                        sizeof(double)),
            0);
  ASSERT_EQ(second.answers.size(), first.answers.size()) << input;
  EXPECT_EQ(std::memcmp(second.answers.data(), first.answers.data(),
                        first.answers.size() * sizeof(double)),
            0)
      << input;
}

TEST(WireCodecTest, DecodeJsonEveryTruncationAndSubstitutionIsTypedOrStable) {
  WireQueryRequest request = SampleQueryRequest(5);
  request.tenant = "a\"b\\c";
  WireBatchAnswer answer = SampleBatchAnswer(5);
  answer.served.publisher = "pub\nlisher";
  const std::string inputs[] = {EncodeQueryRequestJson(request),
                                EncodeBatchAnswerJson(answer)};
  const char substitutes[] = {'"', '\\', '7', ',', '\0',
                              static_cast<char>(0x80)};
  std::mt19937_64 rng(918273);
  for (const std::string& input : inputs) {
    ExpectTypedOrStable(input);
    for (std::size_t length = 0; length < input.size(); ++length) {
      ExpectTypedOrStable(input.substr(0, length));
    }
    // Every substitute at every position, plus seeded pairs of them.
    for (std::size_t at = 0; at < input.size(); ++at) {
      for (const char substitute : substitutes) {
        std::string mutated = input;
        mutated[at] = substitute;
        ExpectTypedOrStable(mutated);
      }
    }
    for (int trial = 0; trial < 2000; ++trial) {
      std::string mutated = input;
      for (int i = 0; i < 2; ++i) {
        mutated[rng() % mutated.size()] = substitutes[rng() % 6];
      }
      ExpectTypedOrStable(mutated);
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace dphist
