// The wire codec's contract: binary frames round-trip bit-exactly at any
// size, the JSON fallback round-trips to the identical message, and a
// frame that was truncated or bit-flipped is a typed rejection, never a
// garbled message (mirroring journal_test's torn-tail battery). Golden
// bytes checked into tests/testdata pin the format across hosts — a
// big-endian machine must produce byte-identical frames — and pin the JSON
// bodies byte for byte. The CRC-32 every frame carries is checked against
// its portable and bitwise forms at every length and alignment.

#include "dphist/net/wire_codec.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
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
  // A slice of a larger answer vector encodes as that slice alone.
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

// DecodeQueryRequestJson reads what DecodeJson reads: the same query
// request, or DecodeJson's error, or Ok(false) where the message is not a
// query request. One view is reused across inputs, as the event loop
// reuses it.
void ExpectViewAgrees(const std::string& input,
                      const Result<WireMessage>& full) {
  static QueryRequestView view;
  auto in_place = DecodeQueryRequestJson(input, &view);
  if (full.ok() && full.value().type == WireType::kQueryRequest) {
    ASSERT_TRUE(in_place.ok()) << in_place.status().ToString() << input;
    ASSERT_TRUE(in_place.value()) << input;
    const WireQueryRequest& request = full.value().query_request;
    EXPECT_EQ(view.tenant, request.tenant) << input;
    EXPECT_EQ(view.dataset, request.dataset) << input;
    EXPECT_EQ(view.publisher, request.request.publisher) << input;
    EXPECT_EQ(std::memcmp(&view.epsilon, &request.request.epsilon,
                          sizeof(double)),
              0)
        << input;
    EXPECT_EQ(view.seed, request.request.seed) << input;
    EXPECT_EQ(view.queries, request.queries) << input;
    return;
  }
  if (in_place.ok()) {
    EXPECT_FALSE(in_place.value()) << input;
    return;
  }
  ASSERT_FALSE(full.ok()) << input;
  EXPECT_EQ(in_place.status().code(), full.status().code()) << input;
  EXPECT_EQ(in_place.status().message(), full.status().message()) << input;
}

// The JSON decoders' byte-level corpus, by section: for a JSON query
// request and a batch answer, the whole message, every truncation, every
// substitution of a quote, backslash, digit, comma, NUL or 0x80 at every
// position, and 2000 seeded pairs of substitutions; then hand-written
// edge cases of the grammar (duplicate keys, escaped keys and types,
// trailing bytes, numbers, nesting).
std::vector<std::pair<std::string, std::vector<std::string>>>
JsonCorpus() {
  WireQueryRequest request = SampleQueryRequest(5);
  request.tenant = "a\"b\\c";
  WireBatchAnswer answer = SampleBatchAnswer(5);
  answer.served.publisher = "pub\nlisher";
  const std::pair<std::string, std::string> bases[] = {
      {"query_request", EncodeQueryRequestJson(request)},
      {"batch_answer", EncodeBatchAnswerJson(answer)}};
  const char substitutes[] = {'"', '\\', '7', ',', '\0',
                              static_cast<char>(0x80)};
  std::vector<std::pair<std::string, std::vector<std::string>>> corpus;
  std::mt19937_64 rng(918273);
  for (const auto& [name, input] : bases) {
    corpus.push_back({name + ".whole", {input}});
    std::vector<std::string> truncations;
    for (std::size_t length = 0; length < input.size(); ++length) {
      truncations.push_back(input.substr(0, length));
    }
    corpus.push_back({name + ".truncations", truncations});
    std::vector<std::string> substitutions;
    for (std::size_t at = 0; at < input.size(); ++at) {
      for (const char substitute : substitutes) {
        std::string mutated = input;
        mutated[at] = substitute;
        substitutions.push_back(mutated);
      }
    }
    corpus.push_back({name + ".substitutions", substitutions});
    std::vector<std::string> seeded;
    for (int trial = 0; trial < 2000; ++trial) {
      std::string mutated = input;
      for (int i = 0; i < 2; ++i) {
        mutated[rng() % mutated.size()] = substitutes[rng() % 6];
      }
      seeded.push_back(mutated);
    }
    corpus.push_back({name + ".seeded", seeded});
  }

  const std::string query = EncodeQueryRequestJson(SampleQueryRequest(2));
  const std::string open = query.substr(0, query.size() - 1);  // no '}'
  const std::string tail = query.substr(1);  // after the '{'
  std::vector<std::string> edges = {
      // Duplicate keys: the last one counts, whatever its kind.
      open + ",\"tenant\":\"second\"}",
      open + ",\"seed\":7.5}",
      open + ",\"seed\":\"8\"}",
      open + ",\"queries\":\"3-4\"}",
      open + ",\"epsilon\":\"0.5\"}",
      open + ",\"type\":\"batch_answer\"}",
      "{\"type\":\"error\"," + tail,
      // Escaped keys and values.
      "{\"ten\\u0061nt\":\"x\"," + tail,
      open + ",\"t\\u0065nant\":\"\\\"q\\\\\"}",
      open + ",\"queries\":\"\\u0031-2\"}",
      open + ",\"seed\":\"\\u0039\"}",
      "{\"type\":\"query_\\u0072equest\"," + tail.substr(tail.find(',') + 1),
      "{\"type\":\"w\\\"at\"}",
      "{\"type\":\"\\u00e9\"}",
      "{\"type\":\"\\u0000\"}",
      // Trailing bytes and whitespace.
      query + " x",
      query + "}",
      query + ",",
      query + "\n",
      " \t" + query + "\r\n ",
      "{ \"type\" : \"error\" , \"code\" : 3 , \"message\" : \"m\" }",
      // Objects that are not flat, or not objects.
      "{}",
      "{ }",
      "",
      "[]",
      "{\"type\":{\"a\":1}}",
      "{\"type\":[1]}",
      "{\"type\":\"error\",\"code\":1,\"message\":\"m\",}",
      "{,}",
      "{\"type\"}",
      "{\"type\":}",
      "{\"type\" \"error\"}",
      "{type:\"error\"}",
      // Numbers and literals.
      open + ",\"epsilon\":1e400}",
      open + ",\"epsilon\":-0}",
      open + ",\"epsilon\":+1}",
      open + ",\"epsilon\":1.}",
      open + ",\"epsilon\":.5}",
      open + ",\"epsilon\":0x10}",
      open + ",\"epsilon\":1e-400}",
      open + ",\"epsilon\":null}",
      open + ",\"epsilon\":truex}",
      open + ",\"epsilon\":nul}",
      open + ",\"seed\":9007199254740991}",
      open + ",\"seed\":-0}",
      open + ",\"seed\":\"007\"}",
      open + ",\"seed\":\"\"}",
      open + ",\"seed\":\"18446744073709551616\"}",
      // Query lists.
      open + ",\"queries\":\"\"}",
      open + ",\"queries\":\"1-2,\"}",
      open + ",\"queries\":\"1-2-3\"}",
      open + ",\"queries\":\"18446744073709551615-0\"}",
      open + ",\"queries\":\"18446744073709551616-1\"}",
      open + ",\"queries\":\"+1-2\"}",
      open + ",\"queries\":\" 1-2\"}",
      open + ",\"queries\":\"1-2,,3-4\"}",
      // Other message types.
      "{\"type\":\"error\",\"code\":3,\"message\":\"m\"}",
      "{\"type\":\"error\",\"code\":4294967296,\"message\":\"m\"}",
      "{\"type\":\"error\",\"code\":1e15,\"message\":\"m\"}",
      "{\"type\":\"error\",\"code\":\"3\",\"message\":\"m\"}",
      EncodeHistogramJson(GoldenHistogram()),
      EncodeSparseHistogramJson(GoldenSparseHistogram()),
      EncodeErrorJson(Status::NotFound("no \"such\" key\n")),
  };
  corpus.push_back({"edge_cases", edges});
  return corpus;
}

// One DecodeJson outcome as bytes: the status code and message, or the
// decoded message in the binary codec, which carries every bit.
std::string DecodeOutcome(const Result<WireMessage>& decoded) {
  if (!decoded.ok()) {
    return "E" + std::to_string(static_cast<int>(decoded.status().code())) +
           ":" + decoded.status().message();
  }
  const WireMessage& message = decoded.value();
  switch (message.type) {
    case WireType::kQueryRequest:
      return "Q" + EncodeQueryRequest(message.query_request);
    case WireType::kBatchAnswer:
      return "A" + EncodeBatchAnswer(message.batch_answer);
    case WireType::kHistogram:
      return "H" + EncodeHistogram(message.histogram);
    case WireType::kSparseHistogram:
      return "S" + EncodeSparseHistogram(message.sparse_histogram);
    case WireType::kError:
      return "R" + std::to_string(static_cast<int>(message.error.code)) + ":" +
             message.error.message;
  }
  return "?";
}

// FNV-1a, 64-bit, over length-prefixed outcomes.
void Digest(std::uint64_t* hash, std::string_view bytes) {
  const std::string length = std::to_string(bytes.size()) + ":";
  for (const std::string_view part : {std::string_view(length), bytes}) {
    for (const char c : part) {
      *hash = (*hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
}

TEST(WireCodecTest, DecodeJsonEveryTruncationAndSubstitutionIsTypedOrStable) {
  for (const auto& [name, inputs] : JsonCorpus()) {
    if (name == "edge_cases") {
      continue;  // not all of them re-encode to the same shape
    }
    for (const std::string& input : inputs) {
      ExpectTypedOrStable(input);
    }
  }
}

TEST(WireCodecTest, JsonDecodersGiveTheRecordedOutcomeForEveryCorpusInput) {
  // tests/testdata/wire_json_decode_outcomes_v1.txt holds, per corpus
  // section, the input count and a digest of DecodeJson's outcome for
  // each input (status code and message, or the decoded message's every
  // bit), as recorded from the map-based decoder this scanner replaced.
  // The in-place query decoder must agree with DecodeJson on each input.
  std::istringstream recorded(
      ReadTestData("wire_json_decode_outcomes_v1.txt"));
  std::string line;
  std::vector<std::string> expected;
  while (std::getline(recorded, line)) {
    if (!line.empty() && line[0] != '#') {
      expected.push_back(line);
    }
  }
  std::vector<std::string> actual;
  for (const auto& [name, inputs] : JsonCorpus()) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::string& input : inputs) {
      const auto decoded = DecodeJson(input);
      Digest(&hash, DecodeOutcome(decoded));
      ExpectViewAgrees(input, decoded);
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    actual.push_back(name + " " + std::to_string(inputs.size()) + " " + hex);
  }
  EXPECT_EQ(actual, expected);
}

TEST(WireCodecTest, JsonDuplicateKeysKeepTheLastAndTrailingBytesFail) {
  // The grammar the map-based reader had: a key given twice counts once,
  // with its last value, and nothing but whitespace may follow the '}'.
  const std::string query = EncodeQueryRequestJson(SampleQueryRequest(2));
  const std::string open = query.substr(0, query.size() - 1);
  auto twice = DecodeJson(open + ",\"tenant\":\"second\"}");
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ(twice.value().query_request.tenant, "second");
  QueryRequestView view;
  auto in_place =
      DecodeQueryRequestJson(open + ",\"queries\":\"3-4\"}", &view);
  ASSERT_TRUE(in_place.ok() && in_place.value());
  EXPECT_EQ(view.queries, (std::vector<RangeQuery>{{3, 4}}));
  auto object = obs::ParseFlatJson("{\"a\":1,\"b\":true,\"a\":\"x\"}");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object.value().at("a").string_value, "x");
  EXPECT_FALSE(DecodeJson(open + ",\"seed\":7.5}").ok());

  for (const std::string& bad : {query + " x", query + "}", query + ","}) {
    auto decoded = DecodeJson(bad);
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_EQ(decoded.status().message(),
              "ParseFlatJson: trailing characters at offset " +
                  std::to_string(bad.find_first_not_of(" ", query.size())))
        << bad;
    EXPECT_FALSE(DecodeQueryRequestJson(bad, &view).ok()) << bad;
  }
  EXPECT_TRUE(DecodeJson(" " + query + " \n").ok());
}

TEST(WireCodecTest, JsonQueryViewUnescapesIntoItsScratch) {
  WireQueryRequest request = SampleQueryRequest(3);
  request.tenant = "t\"e\\n\nant";
  request.dataset = "plain";
  request.request.publisher = "p\x01ub";
  // The views point into the body (or the view's scratch), so the body
  // outlives them.
  const std::string body = EncodeQueryRequestJson(request);
  QueryRequestView view;
  for (int round = 0; round < 2; ++round) {
    auto decoded = DecodeQueryRequestJson(body, &view);
    ASSERT_TRUE(decoded.ok() && decoded.value());
    EXPECT_EQ(view.tenant, request.tenant);
    EXPECT_EQ(view.dataset, request.dataset);
    EXPECT_EQ(view.publisher, request.request.publisher);
    EXPECT_EQ(view.queries, request.queries);
  }
  // Another message type is Ok(false); a broken one is DecodeJson's error.
  auto other = DecodeQueryRequestJson(
      EncodeBatchAnswerJson(SampleBatchAnswer(1)), &view);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value());
  auto broken = DecodeQueryRequestJson("{\"type\":\"query_request\"}", &view);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().message(),
            "wire codec: malformed json query request");
}

TEST(WireCodecTest, InPlaceJsonAnswerIsTheEncodedAnswer) {
  // Appended behind other bytes, the in-place writer gives exactly the
  // encoder's bytes, inside its size bound, at every batch size.
  const serve::ReleaseKey short_key{"t", "d", ~0ull, "p", -1e-300, ~0ull};
  for (const serve::ReleaseKey& key : {GoldenKey(), short_key}) {
    for (const std::size_t size : {0, 1, 37, 1024}) {
      WireBatchAnswer answer = SampleBatchAnswer(size);
      answer.served = key;
      std::string out = "prefix";
      AppendBatchAnswerJson(out, answer.answers, answer.stale,
                            answer.cache_hit, answer.served);
      EXPECT_EQ(out, "prefix" + EncodeBatchAnswerJson(answer));
      EXPECT_LE(out.size() - 6, BatchAnswerJsonSizeBound(key, size));
    }
  }
  WireBatchAnswer golden = GoldenBatchAnswer();
  std::string out;
  AppendBatchAnswerJson(out, golden.answers, golden.stale, golden.cache_hit,
                        golden.served);
  EXPECT_EQ(out, ReadTestData("wire_batch_answer_v1.json"));
}

// --- the digits writer: %.17g, byte for byte ---

std::string Written(double value) {
  char buffer[obs::kJsonDoubleMaxChars];
  return std::string(buffer, obs::WriteJsonDouble(buffer, value));
}

// Compares the writer with std::to_chars(general, 17), the reference, on
// `value`; false (after one failure report) on a mismatch.
bool MatchesToChars(double value) {
  char expected[64];
  char written[obs::kJsonDoubleMaxChars];
  const std::string_view reference(
      expected, std::to_chars(expected, expected + sizeof(expected), value,
                              std::chars_format::general, 17)
                        .ptr -
                    expected);
  const std::string_view ours(written,
                              obs::WriteJsonDouble(written, value) - written);
  if (ours == reference) {
    return true;
  }
  ADD_FAILURE() << "wrote " << ours << " for " << reference;
  return false;
}

bool MatchesToCharsBothSigns(double value) {
  return MatchesToChars(value) && MatchesToChars(-value);
}

TEST(JsonDigitsTest, PowersOfTenAndTheirNeighboursMatchToChars) {
  for (int exponent = -320; exponent <= 308; ++exponent) {
    const std::string text = "1e" + std::to_string(exponent);
    double power = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), power);
    double below = power;
    double above = power;
    ASSERT_TRUE(MatchesToCharsBothSigns(power)) << text;
    for (int ulp = 1; ulp <= 3; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
      ASSERT_TRUE(MatchesToCharsBothSigns(below)) << text << " - " << ulp;
      ASSERT_TRUE(MatchesToCharsBothSigns(above)) << text << " + " << ulp;
    }
  }
  EXPECT_EQ(Written(9.9999999999999995e-07), "9.9999999999999995e-07");
  EXPECT_EQ(Written(1e-6), "9.9999999999999995e-07");
  EXPECT_EQ(Written(0.1), "0.10000000000000001");
  EXPECT_EQ(Written(1e16), "10000000000000000");
}

TEST(JsonDigitsTest, NotationSwitchesAndRangeEdgesMatchToChars) {
  // %g's switches between fixed and scientific notation (1e-4 and 1e17)
  // and the edges of the 128-bit range (2^-20 and 1e17), 2000 ulps each
  // way, and the binade edges in between.
  for (const double edge : {1e-5, 1e-4, 0x1p-20, 1e16, 1e17, 0x1p52, 0x1p53,
                            0x1p56}) {
    double below = edge;
    double above = edge;
    for (int ulp = 0; ulp < 2000; ++ulp) {
      ASSERT_TRUE(MatchesToCharsBothSigns(below)) << edge;
      ASSERT_TRUE(MatchesToCharsBothSigns(above)) << edge;
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
    }
  }
  for (int binade = -30; binade < 60; ++binade) {
    const double power = std::ldexp(1.0, binade);
    ASSERT_TRUE(MatchesToCharsBothSigns(power));
    ASSERT_TRUE(MatchesToCharsBothSigns(std::nextafter(power, 0.0)));
  }
  EXPECT_EQ(Written(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(Written(1e-4), "0.0001");
  EXPECT_EQ(Written(99999999999999984.0), "99999999999999984");
  EXPECT_EQ(Written(1e17), "1e+17");
}

TEST(JsonDigitsTest, RoundHalfEvenTiesMatchToChars) {
  // An odd 53-bit integer times 2^-s has exactly s fractional binary
  // digits, so its decimal expansion ends in a 5 at the s-th place: where
  // that is the 18th significant digit, rounding to 17 is an exact tie.
  std::mt19937_64 rng(20260419);
  std::size_t ties = 0;
  for (int s = 1; s <= 12; ++s) {
    for (int trial = 0; trial < 20000; ++trial) {
      const int bits = 40 + static_cast<int>(rng() % 14);  // 40..53 bits
      const std::uint64_t odd =
          ((rng() & ((std::uint64_t{1} << (bits - 1)) - 1)) |
           (std::uint64_t{1} << (bits - 1))) |
          1;
      const double value = std::ldexp(static_cast<double>(odd), -s);
      const std::string integer = std::to_string(odd >> s);
      if (integer != "0" && integer.size() + static_cast<std::size_t>(s) == 18) {
        ++ties;
      }
      ASSERT_TRUE(MatchesToCharsBothSigns(value)) << odd << " * 2^-" << s;
    }
  }
  EXPECT_GT(ties, 10000u);
  // Both directions of a tie, in the binade whose ulp is a quarter: the
  // 17th digit stays even (2) or rounds up to even (8).
  EXPECT_EQ(Written(1125899906842624.25), "1125899906842624.2");
  EXPECT_EQ(Written(1125899906842624.75), "1125899906842624.8");
}

TEST(JsonDigitsTest, SpecialValuesMatchToChars) {
  const double values[] = {0.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::denorm_min() * 3,
                           std::numeric_limits<double>::min() / 3,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::epsilon(),
                           9007199254740991.0,
                           9007199254740992.0,
                           9007199254740994.0,
                           0.3,
                           123456.789,
                           1.0,
                           42.0};
  for (const double value : values) {
    ASSERT_TRUE(MatchesToCharsBothSigns(value)) << value;
  }
  EXPECT_EQ(Written(0.0), "0");
  EXPECT_EQ(Written(-0.0), "-0");
  EXPECT_EQ(Written(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(Written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Written(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::JsonDouble(-3.25), "-3.25");
  std::string appended = "x";
  obs::AppendJsonDouble(appended, 0.5);
  EXPECT_EQ(appended, "x0.5");
}

TEST(JsonDigitsTest, SeededBitPatternsAndLogUniformValuesMatchToChars) {
  // Five million finite bit patterns over the whole range, and five
  // million values of either sign log-uniform over [1e-8, 1e18], most of
  // them in the 128-bit range, as noisy counts and answers are.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> log10_of(-8.0, 18.0);
  for (int i = 0; i < 5000000; ++i) {
    const double pattern = std::bit_cast<double>(rng());
    if (std::isfinite(pattern)) {
      ASSERT_TRUE(MatchesToChars(pattern));
    }
    const double magnitude = std::pow(10.0, log10_of(rng));
    ASSERT_TRUE(MatchesToChars((rng() & 1) != 0 ? magnitude : -magnitude));
  }
}

}  // namespace
}  // namespace net
}  // namespace dphist
