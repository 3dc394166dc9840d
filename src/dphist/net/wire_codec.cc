#include "dphist/net/wire_codec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <system_error>
#include <utility>

#include "dphist/common/binary_io.h"
#include "dphist/obs/export.h"

namespace dphist {
namespace net {

namespace {

using binio::Crc32;
using binio::Cursor;
using binio::GetF64;
using binio::GetStr;
using binio::GetStrView;
using binio::GetU32;
using binio::GetU64;
using binio::LoadU64;
using binio::PutF64;
using binio::PutF64s;
using binio::PutStr;
using binio::PutU32;
using binio::PutU64;
using binio::StoreU32;

// Magic, payload length, CRC.
constexpr std::size_t kFrameHeaderLen = kWireMagicLen + 8;

// Starts a frame at the end of `out`: the magic and room for the length
// and CRC that EndFrame fills in once the payload follows. Returns the
// frame's offset.
std::size_t BeginFrame(std::string& out) {
  const std::size_t frame = out.size();
  out.append(kWireMagic, kWireMagicLen);
  out.append(8, '\0');
  return frame;
}

// Completes the frame BeginFrame started at `frame`: everything after its
// header is the payload, measured and CRC'd where it lies.
void EndFrame(std::string& out, std::size_t frame) {
  const std::string_view payload =
      std::string_view(out).substr(frame + kFrameHeaderLen);
  const std::uint32_t crc = Crc32(payload);
  StoreU32(out.data() + frame + kWireMagicLen,
           static_cast<std::uint32_t>(payload.size()));
  StoreU32(out.data() + frame + kWireMagicLen + 4, crc);
}

// A payload's type tag.
void PutType(std::string& out, WireType type) {
  out.push_back(static_cast<char>(type));
}

// Encoded size of a key, as PutKey writes it.
std::size_t KeySize(const serve::ReleaseKey& key) {
  return 4 + key.tenant.size() + 4 + key.dataset.size() + 8 + 4 +
         key.publisher.size() + 8 + 8;
}

void PutKey(std::string& out, const serve::ReleaseKey& key) {
  PutStr(out, key.tenant);
  PutStr(out, key.dataset);
  PutU64(out, key.dataset_fingerprint);
  PutStr(out, key.publisher);
  PutF64(out, key.epsilon);
  PutU64(out, key.seed);
}

bool GetKey(Cursor& in, serve::ReleaseKey* key) {
  return GetStr(in, &key->tenant) && GetStr(in, &key->dataset) &&
         GetU64(in, &key->dataset_fingerprint) &&
         GetStr(in, &key->publisher) && GetF64(in, &key->epsilon) &&
         GetU64(in, &key->seed);
}

Status BodyError(std::string_view what) {
  return Status::ParseError("wire codec: " + std::string(what));
}

// Parses a status-code number back into the enum; unknown numbers map to
// kInternal so a newer peer's codes still surface as errors, not garbage.
StatusCode CodeFromInt(std::uint32_t raw) {
  switch (raw) {
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kInternal;
    case 3:
      return StatusCode::kNotFound;
    case 4:
      return StatusCode::kParseError;
    case 5:
      return StatusCode::kResourceExhausted;
    case 6:
      return StatusCode::kDeadlineExceeded;
    case 7:
      return StatusCode::kPermissionDenied;
    case 8:
      return StatusCode::kDataLoss;
    default:
      return StatusCode::kInternal;
  }
}

// --- comma-joined doubles / queries for the flat-JSON fallback ---

std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += obs::JsonDouble(values[i]);
  }
  return out;
}

bool SplitDoubles(std::string_view text, std::vector<double>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token = text.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    double value = std::numeric_limits<double>::quiet_NaN();
    // JoinDoubles writes every non-finite value as null.
    if (token != "null") {
      const auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec != std::errc{} || end != token.data() + token.size()) {
        return false;
      }
    }
    out->push_back(value);
    if (comma == std::string_view::npos) {
      return true;
    }
    pos = comma + 1;
  }
  return true;
}

std::string JoinU64s(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

std::string JoinQueries(const std::vector<RangeQuery>& queries) {
  std::string out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(queries[i].begin);
    out += '-';
    out += std::to_string(queries[i].end);
  }
  return out;
}

bool ParseU64(std::string_view token, std::uint64_t* out) {
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out, 10);
  return ec == std::errc{} && end == token.data() + token.size() &&
         !token.empty();
}

bool SplitU64s(std::string_view text, std::vector<std::uint64_t>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token = text.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    std::uint64_t value = 0;
    if (!ParseU64(token, &value)) {
      return false;
    }
    out->push_back(value);
    if (comma == std::string_view::npos) {
      return true;
    }
    pos = comma + 1;
  }
  return true;
}

// Released keys must arrive strictly increasing: duplicates or disorder
// would silently corrupt binary-searched range sums downstream, so both
// codecs reject them at the boundary.
bool KeysStrictlyIncreasing(const std::vector<std::uint64_t>& keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] <= keys[i - 1]) {
      return false;
    }
  }
  return true;
}

bool SplitQueries(std::string_view text, std::vector<RangeQuery>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token = text.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    const std::size_t dash = token.find('-');
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (dash == std::string_view::npos ||
        !ParseU64(token.substr(0, dash), &begin) ||
        !ParseU64(token.substr(dash + 1), &end)) {
      return false;
    }
    out->push_back(RangeQuery{static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end)});
    if (comma == std::string_view::npos) {
      return true;
    }
    pos = comma + 1;
  }
  return true;
}

// Field accessors over a parsed flat-JSON object. A string field is read
// as a view into the object, valid while the object is.
bool JsonStr(const obs::JsonObject& object, std::string_view key,
             std::string_view* out) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != obs::JsonValue::Kind::kString) {
    return false;
  }
  *out = it->second.string_value;
  return true;
}

bool JsonStr(const obs::JsonObject& object, std::string_view key,
             std::string* out) {
  std::string_view view;
  if (!JsonStr(object, key, &view)) {
    return false;
  }
  out->assign(view);
  return true;
}

bool JsonNum(const obs::JsonObject& object, std::string_view key, double* out) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != obs::JsonValue::Kind::kNumber) {
    return false;
  }
  *out = it->second.number_value;
  return true;
}

bool JsonBool(const obs::JsonObject& object, std::string_view key, bool* out) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != obs::JsonValue::Kind::kBool) {
    return false;
  }
  *out = it->second.bool_value;
  return true;
}

// A JSON number that is an integer in [0, 2^53), where every integer is
// exactly a double. A fraction, a negative, or anything larger is
// malformed, never cast: converting a double of 2^64 or more to u64 is
// undefined, and one in [2^53, 2^64) may already be a rounded neighbour.
bool JsonInteger(const obs::JsonObject& object, std::string_view key,
                 std::uint64_t* out) {
  double value = 0.0;
  if (!JsonNum(object, key, &value) || !(value >= 0.0) ||
      value >= 0x1p53 || value != std::trunc(value)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

// u64 fields (seed, fingerprint, domain) travel as decimal strings in
// JSON — a JSON number round-trips through double and silently loses
// precision past 2^53, which would mis-key a release. A number is accepted
// only where it is exact (JsonInteger).
bool JsonU64(const obs::JsonObject& object, std::string_view key,
             std::uint64_t* out) {
  std::string_view text;
  if (JsonStr(object, key, &text)) {
    return ParseU64(text, out);
  }
  return JsonInteger(object, key, out);
}

void PutKeyJson(obs::JsonObjectWriter& writer, const serve::ReleaseKey& key) {
  writer.Str("tenant", key.tenant)
      .Str("dataset", key.dataset)
      .Str("fingerprint", std::to_string(key.dataset_fingerprint))
      .Str("publisher", key.publisher)
      .Num("epsilon", key.epsilon)
      .Str("seed", std::to_string(key.seed));
}

bool GetKeyJson(const obs::JsonObject& object, serve::ReleaseKey* key) {
  return JsonStr(object, "tenant", &key->tenant) &&
         JsonStr(object, "dataset", &key->dataset) &&
         JsonU64(object, "fingerprint", &key->dataset_fingerprint) &&
         JsonStr(object, "publisher", &key->publisher) &&
         JsonNum(object, "epsilon", &key->epsilon) &&
         JsonU64(object, "seed", &key->seed);
}

}  // namespace

Status WireError::ToStatus() const {
  switch (code) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kParseError:
      return Status::ParseError(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kPermissionDenied:
      return Status::PermissionDenied(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kInternal:
    default:
      return Status::Internal(message);
  }
}

std::string EncodeQueryRequest(const WireQueryRequest& request) {
  std::string out;
  // Exactly the frame, as every encoder reserves: growth by doubling
  // leaves up to twice the bytes behind in a caller that encodes many.
  out.reserve(kFrameHeaderLen + 1 + 4 + request.tenant.size() + 4 +
              request.dataset.size() + 4 + request.request.publisher.size() +
              8 + 8 + 4 + 16 * request.queries.size());
  const std::size_t frame = BeginFrame(out);
  PutType(out, WireType::kQueryRequest);
  PutStr(out, request.tenant);
  PutStr(out, request.dataset);
  PutStr(out, request.request.publisher);
  PutF64(out, request.request.epsilon);
  PutU64(out, request.request.seed);
  PutU32(out, static_cast<std::uint32_t>(request.queries.size()));
  for (const RangeQuery& query : request.queries) {
    PutU64(out, query.begin);
    PutU64(out, query.end);
  }
  EndFrame(out, frame);
  return out;
}

std::size_t BatchAnswerFrameSize(const serve::ReleaseKey& served,
                                 std::size_t answer_count) {
  return kFrameHeaderLen + 3 + KeySize(served) + 4 + 8 * answer_count;
}

void AppendBatchAnswer(std::string& out, std::span<const double> answers,
                       bool stale, bool cache_hit,
                       const serve::ReleaseKey& served) {
  const std::size_t frame = BeginFrame(out);
  PutType(out, WireType::kBatchAnswer);
  out.push_back(stale ? 1 : 0);
  out.push_back(cache_hit ? 1 : 0);
  PutKey(out, served);
  PutU32(out, static_cast<std::uint32_t>(answers.size()));
  PutF64s(out, answers);
  EndFrame(out, frame);
}

std::string EncodeBatchAnswer(const WireBatchAnswer& answer) {
  std::string out;
  out.reserve(BatchAnswerFrameSize(answer.served, answer.answers.size()));
  AppendBatchAnswer(out, answer.answers, answer.stale, answer.cache_hit,
                    answer.served);
  return out;
}

std::string EncodeHistogram(const WireHistogram& histogram) {
  std::string out;
  out.reserve(kFrameHeaderLen + 1 + KeySize(histogram.key) + 4 +
              8 * histogram.counts.size());
  const std::size_t frame = BeginFrame(out);
  PutType(out, WireType::kHistogram);
  PutKey(out, histogram.key);
  PutU32(out, static_cast<std::uint32_t>(histogram.counts.size()));
  PutF64s(out, histogram.counts);
  EndFrame(out, frame);
  return out;
}

std::string EncodeSparseHistogram(const WireSparseHistogram& histogram) {
  const std::size_t entries =
      std::min(histogram.keys.size(), histogram.counts.size());
  std::string out;
  out.reserve(kFrameHeaderLen + 1 + KeySize(histogram.key) + 12 + 16 * entries);
  const std::size_t frame = BeginFrame(out);
  PutType(out, WireType::kSparseHistogram);
  PutKey(out, histogram.key);
  PutU64(out, histogram.domain_size);
  PutU32(out, static_cast<std::uint32_t>(entries));
  for (std::size_t i = 0; i < entries; ++i) {
    PutU64(out, histogram.keys[i]);
    PutF64(out, histogram.counts[i]);
  }
  EndFrame(out, frame);
  return out;
}

std::string EncodeError(const Status& status) {
  std::string out;
  const std::size_t frame = BeginFrame(out);
  PutType(out, WireType::kError);
  PutU32(out, static_cast<std::uint32_t>(status.code()));
  PutStr(out, status.message());
  EndFrame(out, frame);
  return out;
}

namespace {

// Checks a frame's magic, length and CRC, and returns its (non-empty)
// payload.
Result<std::string_view> ReadFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderLen ||
      std::memcmp(bytes.data(), kWireMagic, kWireMagicLen) != 0) {
    return Status::DataLoss("wire codec: bad magic or truncated frame");
  }
  Cursor header{bytes, kWireMagicLen};
  std::uint32_t payload_len = 0;
  std::uint32_t expected_crc = 0;
  GetU32(header, &payload_len);
  GetU32(header, &expected_crc);
  if (bytes.size() - header.pos != payload_len) {
    return Status::DataLoss("wire codec: frame length mismatch");
  }
  const std::string_view payload = bytes.substr(header.pos, payload_len);
  if (Crc32(payload) != expected_crc) {
    return Status::DataLoss("wire codec: CRC mismatch");
  }
  if (payload.empty()) {
    return BodyError("empty payload");
  }
  return payload;
}

// A query request's body, after its type tag, read in place.
Status ReadQueryRequest(Cursor& in, QueryRequestView* out) {
  std::uint32_t count = 0;
  if (!GetStrView(in, &out->tenant) || !GetStrView(in, &out->dataset) ||
      !GetStrView(in, &out->publisher) || !GetF64(in, &out->epsilon) ||
      !GetU64(in, &out->seed) || !GetU32(in, &count)) {
    return BodyError("truncated query request");
  }
  // Each query is 16 payload bytes, so `count` beyond the remaining
  // payload is corrupt (the CRC already passed, but defense in depth
  // costs one compare) — checked before the vector grows.
  const std::size_t query_bytes = static_cast<std::size_t>(count) * 16;
  if (!in.Remaining(query_bytes)) {
    return BodyError("query count exceeds payload");
  }
  out->queries.resize(count);
  const char* p = in.here();
  for (RangeQuery& query : out->queries) {
    query = RangeQuery{static_cast<std::size_t>(LoadU64(p)),
                       static_cast<std::size_t>(LoadU64(p + 8))};
    p += 16;
  }
  in.pos += query_bytes;
  return Status::Ok();
}

Status TrailingBytes(const Cursor& in) {
  return in.pos == in.bytes.size() ? Status::Ok()
                                   : BodyError("trailing payload bytes");
}

}  // namespace

Result<bool> DecodeQueryRequest(std::string_view bytes, QueryRequestView* out) {
  DPHIST_ASSIGN_OR_RETURN(const std::string_view payload, ReadFrame(bytes));
  if (static_cast<WireType>(static_cast<unsigned char>(payload[0])) !=
      WireType::kQueryRequest) {
    return false;
  }
  Cursor in{payload, 1};
  DPHIST_RETURN_IF_ERROR(ReadQueryRequest(in, out));
  DPHIST_RETURN_IF_ERROR(TrailingBytes(in));
  return true;
}

Result<WireMessage> DecodeFrame(std::string_view bytes) {
  DPHIST_ASSIGN_OR_RETURN(const std::string_view payload, ReadFrame(bytes));
  Cursor in{payload, 1};
  WireMessage message;
  switch (static_cast<WireType>(static_cast<unsigned char>(payload[0]))) {
    case WireType::kQueryRequest: {
      QueryRequestView view;
      DPHIST_RETURN_IF_ERROR(ReadQueryRequest(in, &view));
      message.type = WireType::kQueryRequest;
      WireQueryRequest& request = message.query_request;
      request.tenant = view.tenant;
      request.dataset = view.dataset;
      request.request.publisher = view.publisher;
      request.request.epsilon = view.epsilon;
      request.request.seed = view.seed;
      request.queries = std::move(view.queries);
      break;
    }
    case WireType::kBatchAnswer: {
      message.type = WireType::kBatchAnswer;
      WireBatchAnswer& answer = message.batch_answer;
      if (!in.Remaining(2)) {
        return BodyError("truncated batch answer");
      }
      answer.stale = payload[in.pos++] != 0;
      answer.cache_hit = payload[in.pos++] != 0;
      std::uint32_t count = 0;
      if (!GetKey(in, &answer.served) || !GetU32(in, &count)) {
        return BodyError("truncated batch answer");
      }
      if (!in.Remaining(static_cast<std::size_t>(count) * 8)) {
        return BodyError("answer count exceeds payload");
      }
      answer.answers.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        double value = 0.0;
        if (!GetF64(in, &value)) {
          return BodyError("truncated answer");
        }
        answer.answers.push_back(value);
      }
      break;
    }
    case WireType::kHistogram: {
      message.type = WireType::kHistogram;
      WireHistogram& histogram = message.histogram;
      std::uint32_t count = 0;
      if (!GetKey(in, &histogram.key) || !GetU32(in, &count)) {
        return BodyError("truncated histogram");
      }
      if (!in.Remaining(static_cast<std::size_t>(count) * 8)) {
        return BodyError("bin count exceeds payload");
      }
      histogram.counts.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        double value = 0.0;
        if (!GetF64(in, &value)) {
          return BodyError("truncated bin");
        }
        histogram.counts.push_back(value);
      }
      break;
    }
    case WireType::kSparseHistogram: {
      message.type = WireType::kSparseHistogram;
      WireSparseHistogram& histogram = message.sparse_histogram;
      std::uint32_t count = 0;
      if (!GetKey(in, &histogram.key) ||
          !GetU64(in, &histogram.domain_size) || !GetU32(in, &count)) {
        return BodyError("truncated sparse histogram");
      }
      // 16 payload bytes per (key, count) entry.
      if (!in.Remaining(static_cast<std::size_t>(count) * 16)) {
        return BodyError("sparse entry count exceeds payload");
      }
      histogram.keys.reserve(count);
      histogram.counts.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t key = 0;
        double value = 0.0;
        if (!GetU64(in, &key) || !GetF64(in, &value)) {
          return BodyError("truncated sparse entry");
        }
        histogram.keys.push_back(key);
        histogram.counts.push_back(value);
      }
      if (!KeysStrictlyIncreasing(histogram.keys)) {
        return BodyError("sparse keys not strictly increasing");
      }
      break;
    }
    case WireType::kError: {
      message.type = WireType::kError;
      std::uint32_t code = 0;
      if (!GetU32(in, &code) || !GetStr(in, &message.error.message)) {
        return BodyError("truncated error");
      }
      message.error.code = CodeFromInt(code);
      break;
    }
    default:
      return BodyError("unknown message type");
  }
  DPHIST_RETURN_IF_ERROR(TrailingBytes(in));
  return message;
}

// --- JSON fallback ---

std::string EncodeQueryRequestJson(const WireQueryRequest& request) {
  obs::JsonObjectWriter writer;
  writer.Str("type", "query_request")
      .Str("tenant", request.tenant)
      .Str("dataset", request.dataset)
      .Str("publisher", request.request.publisher)
      .Num("epsilon", request.request.epsilon)
      .Str("seed", std::to_string(request.request.seed))
      .Str("queries", JoinQueries(request.queries));
  return writer.Finish();
}

std::string EncodeBatchAnswerJson(const WireBatchAnswer& answer) {
  obs::JsonObjectWriter writer;
  writer.Str("type", "batch_answer")
      .Bool("stale", answer.stale)
      .Bool("cache_hit", answer.cache_hit);
  PutKeyJson(writer, answer.served);
  writer.Str("answers", JoinDoubles(answer.answers));
  return writer.Finish();
}

std::string EncodeHistogramJson(const WireHistogram& histogram) {
  obs::JsonObjectWriter writer;
  writer.Str("type", "histogram");
  PutKeyJson(writer, histogram.key);
  writer.Str("counts", JoinDoubles(histogram.counts));
  return writer.Finish();
}

std::string EncodeSparseHistogramJson(const WireSparseHistogram& histogram) {
  obs::JsonObjectWriter writer;
  writer.Str("type", "sparse_histogram");
  PutKeyJson(writer, histogram.key);
  writer.Str("domain", std::to_string(histogram.domain_size))
      .Str("keys", JoinU64s(histogram.keys))
      .Str("counts", JoinDoubles(histogram.counts));
  return writer.Finish();
}

std::string EncodeErrorJson(const Status& status) {
  obs::JsonObjectWriter writer;
  writer.Str("type", "error")
      .Int("code", static_cast<std::uint64_t>(status.code()))
      .Str("code_name", StatusCodeName(status.code()))
      .Str("message", status.message());
  return writer.Finish();
}

Result<WireMessage> DecodeJson(std::string_view text) {
  auto parsed = obs::ParseFlatJson(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const obs::JsonObject& object = parsed.value();
  std::string_view type;
  if (!JsonStr(object, "type", &type)) {
    return BodyError("json message missing \"type\"");
  }
  WireMessage message;
  if (type == "query_request") {
    message.type = WireType::kQueryRequest;
    WireQueryRequest& request = message.query_request;
    std::string_view queries;
    if (!JsonStr(object, "tenant", &request.tenant) ||
        !JsonStr(object, "dataset", &request.dataset) ||
        !JsonStr(object, "publisher", &request.request.publisher) ||
        !JsonNum(object, "epsilon", &request.request.epsilon) ||
        !JsonU64(object, "seed", &request.request.seed) ||
        !JsonStr(object, "queries", &queries) ||
        !SplitQueries(queries, &request.queries)) {
      return BodyError("malformed json query request");
    }
    return message;
  }
  if (type == "batch_answer") {
    message.type = WireType::kBatchAnswer;
    WireBatchAnswer& answer = message.batch_answer;
    std::string_view answers;
    if (!JsonBool(object, "stale", &answer.stale) ||
        !JsonBool(object, "cache_hit", &answer.cache_hit) ||
        !GetKeyJson(object, &answer.served) ||
        !JsonStr(object, "answers", &answers) ||
        !SplitDoubles(answers, &answer.answers)) {
      return BodyError("malformed json batch answer");
    }
    return message;
  }
  if (type == "histogram") {
    message.type = WireType::kHistogram;
    WireHistogram& histogram = message.histogram;
    std::string_view counts;
    if (!GetKeyJson(object, &histogram.key) ||
        !JsonStr(object, "counts", &counts) ||
        !SplitDoubles(counts, &histogram.counts)) {
      return BodyError("malformed json histogram");
    }
    return message;
  }
  if (type == "sparse_histogram") {
    message.type = WireType::kSparseHistogram;
    WireSparseHistogram& histogram = message.sparse_histogram;
    std::string_view keys;
    std::string_view counts;
    if (!GetKeyJson(object, &histogram.key) ||
        !JsonU64(object, "domain", &histogram.domain_size) ||
        !JsonStr(object, "keys", &keys) ||
        !SplitU64s(keys, &histogram.keys) ||
        !JsonStr(object, "counts", &counts) ||
        !SplitDoubles(counts, &histogram.counts) ||
        histogram.keys.size() != histogram.counts.size() ||
        !KeysStrictlyIncreasing(histogram.keys)) {
      return BodyError("malformed json sparse histogram");
    }
    return message;
  }
  if (type == "error") {
    message.type = WireType::kError;
    std::uint64_t code = 0;
    if (!JsonInteger(object, "code", &code) ||
        !JsonStr(object, "message", &message.error.message)) {
      return BodyError("malformed json error");
    }
    // Codes past u32 are unknown codes, as CodeFromInt maps any it lacks.
    message.error.code = CodeFromInt(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(code,
                                std::numeric_limits<std::uint32_t>::max())));
    return message;
  }
  return BodyError("unknown json message type \"" + std::string(type) +
                   "\"");
}

}  // namespace net
}  // namespace dphist
