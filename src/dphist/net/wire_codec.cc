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

// --- the flat-JSON fallback: writing ---

// Appends `value` in decimal.
void AppendU64(std::string& out, std::uint64_t value) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

// Writes one flat JSON object in place at the end of `out`: the bytes
// obs::JsonObjectWriter::Finish() returns for the same fields, with every
// repeated value (queries, answers, counts, keys) comma-joined into one
// string field. Keys are literals with nothing to escape.
class JsonOut {
 public:
  explicit JsonOut(std::string& out) : out_(out) { out_ += '{'; }

  JsonOut& Str(std::string_view key, std::string_view value) {
    Key(key);
    out_ += '"';
    obs::AppendJsonEscaped(out_, value);
    out_ += '"';
    return *this;
  }
  // A u64 as a decimal string: JSON numbers lose precision past 2^53.
  JsonOut& U64(std::string_view key, std::uint64_t value) {
    Key(key);
    out_ += '"';
    AppendU64(out_, value);
    out_ += '"';
    return *this;
  }
  JsonOut& Num(std::string_view key, double value) {
    Key(key);
    obs::AppendJsonDouble(out_, value);
    return *this;
  }
  JsonOut& Int(std::string_view key, std::uint64_t value) {
    Key(key);
    AppendU64(out_, value);
    return *this;
  }
  JsonOut& Bool(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // Each double through the digits writer straight into the buffer,
  // non-finite ones as null.
  JsonOut& Doubles(std::string_view key, std::span<const double> values) {
    return Joined(key, values, obs::kJsonDoubleMaxChars,
                  [](char* at, double value) {
                    return obs::WriteJsonDouble(at, value);
                  });
  }
  JsonOut& U64s(std::string_view key, std::span<const std::uint64_t> values) {
    return Joined(key, values, 20, [](char* at, std::uint64_t value) {
      return std::to_chars(at, at + 20, value).ptr;
    });
  }
  JsonOut& Queries(std::string_view key, std::span<const RangeQuery> values) {
    return Joined(key, values, 41, [](char* at, const RangeQuery& query) {
      at = std::to_chars(at, at + 20, std::uint64_t{query.begin}).ptr;
      *at++ = '-';
      return std::to_chars(at, at + 20, std::uint64_t{query.end}).ptr;
    });
  }
  void Close() { out_ += '}'; }

 private:
  void Key(std::string_view key) {
    out_ += first_ ? "\"" : ",\"";
    first_ = false;
    out_ += key;
    out_ += "\":";
  }

  // `values` comma-joined as one string, each written in place by
  // `write` in at most `max_chars` bytes.
  template <typename T, typename Write>
  JsonOut& Joined(std::string_view key, std::span<const T> values,
                  std::size_t max_chars, Write write) {
    Key(key);
    out_ += '"';
    const std::size_t at = out_.size();
    out_.resize(at + values.size() * (max_chars + 1));
    char* const first = out_.data() + at;
    char* end = first;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) {
        *end++ = ',';
      }
      end = write(end, values[i]);
    }
    out_.resize(at + static_cast<std::size_t>(end - first));
    out_ += '"';
    return *this;
  }

  std::string& out_;
  bool first_ = true;
};

void PutKeyJson(JsonOut& json, const serve::ReleaseKey& key) {
  json.Str("tenant", key.tenant)
      .Str("dataset", key.dataset)
      .U64("fingerprint", key.dataset_fingerprint)
      .Str("publisher", key.publisher)
      .Num("epsilon", key.epsilon)
      .U64("seed", key.seed);
}

// An upper bound on the bytes of a JSON object carrying `key`, `extra`
// bytes of fixed text and `values` joined values of at most `max_chars`
// each: 256 covers the field names, the punctuation and the key's three
// numbers, and every string byte may take a six-byte escape.
std::size_t JsonSizeBound(const serve::ReleaseKey& key, std::size_t extra,
                          std::size_t values, std::size_t max_chars) {
  return 256 + extra +
         6 * (key.tenant.size() + key.dataset.size() + key.publisher.size()) +
         values * (max_chars + 1);
}

// --- the flat-JSON fallback: reading ---

// Reads a run of decimal digits at `*pos` as a u64: at least one digit,
// no sign, no overflow — what std::from_chars accepts of a whole token.
bool ParseDigits(std::string_view text, std::size_t* pos, std::uint64_t* out) {
  const std::size_t start = *pos;
  std::uint64_t value = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
    const auto digit = static_cast<std::uint64_t>(text[*pos] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
    ++*pos;
  }
  *out = value;
  return *pos > start;
}

// A whole decimal token as a u64.
bool ParseU64(std::string_view token, std::uint64_t* out) {
  std::size_t pos = 0;
  return ParseDigits(token, &pos, out) && pos == token.size();
}

// The fields a JSON message may carry. Others are skipped.
enum JsonFieldId : std::size_t {
  kFieldType,
  kFieldTenant,
  kFieldDataset,
  kFieldPublisher,
  kFieldEpsilon,
  kFieldSeed,
  kFieldQueries,
  kFieldStale,
  kFieldCacheHit,
  kFieldFingerprint,
  kFieldAnswers,
  kFieldCounts,
  kFieldDomain,
  kFieldKeys,
  kFieldCode,
  kFieldMessage,
  kFieldCount,
};

constexpr std::string_view kFieldNames[kFieldCount] = {
    "type",     "tenant",    "dataset",     "publisher", "epsilon", "seed",
    "queries",  "stale",     "cache_hit",   "fingerprint", "answers",
    "counts",   "domain",    "keys",        "code",      "message"};

// One scanner pass over a message: the last value of each known field,
// as ParseFlatJson's map would hold it, read in place. A string field
// with escapes is unescaped on first use into `scratch`, which is
// reserved to the text's size before it, so every view into it stays
// valid.
struct JsonFields {
  obs::JsonField field[kFieldCount];
  bool present[kFieldCount] = {};
  std::size_t text_size = 0;
  std::string* scratch = nullptr;

  const obs::JsonField* Get(JsonFieldId id, obs::JsonValue::Kind kind) const {
    return present[id] && field[id].kind == kind ? &field[id] : nullptr;
  }

  bool Str(JsonFieldId id, std::string_view* out) const {
    const obs::JsonField* value = Get(id, obs::JsonValue::Kind::kString);
    if (value == nullptr) {
      return false;
    }
    if (!value->escaped) {
      *out = value->text;
      return true;
    }
    if (scratch->capacity() < text_size) {
      scratch->reserve(text_size);  // only ever while it is empty
    }
    const std::size_t at = scratch->size();
    obs::AppendJsonUnescaped(*scratch, value->text);
    *out = std::string_view(*scratch).substr(at);
    return true;
  }

  bool Str(JsonFieldId id, std::string* out) const {
    std::string_view view;
    if (!Str(id, &view)) {
      return false;
    }
    out->assign(view);
    return true;
  }

  bool Num(JsonFieldId id, double* out) const {
    const obs::JsonField* value = Get(id, obs::JsonValue::Kind::kNumber);
    if (value == nullptr) {
      return false;
    }
    *out = value->number_value;
    return true;
  }

  bool Bool(JsonFieldId id, bool* out) const {
    const obs::JsonField* value = Get(id, obs::JsonValue::Kind::kBool);
    if (value == nullptr) {
      return false;
    }
    *out = value->bool_value;
    return true;
  }

  // A JSON number that is an integer in [0, 2^53), where every integer is
  // exactly a double. A fraction, a negative, or anything larger is
  // malformed, never cast: converting a double of 2^64 or more to u64 is
  // undefined, and one in [2^53, 2^64) may already be a rounded neighbour.
  bool Integer(JsonFieldId id, std::uint64_t* out) const {
    double value = 0.0;
    if (!Num(id, &value) || !(value >= 0.0) || value >= 0x1p53 ||
        value != std::trunc(value)) {
      return false;
    }
    *out = static_cast<std::uint64_t>(value);
    return true;
  }

  // u64 fields (seed, fingerprint, domain) travel as decimal strings in
  // JSON — a JSON number round-trips through double and silently loses
  // precision past 2^53, which would mis-key a release. A number is
  // accepted only where it is exact (Integer).
  bool U64(JsonFieldId id, std::uint64_t* out) const {
    std::string_view text;
    if (Str(id, &text)) {
      return ParseU64(text, out);
    }
    return Integer(id, out);
  }
};

Status ScanJsonFields(std::string_view text, JsonFields* fields) {
  fields->text_size = text.size();
  fields->scratch->clear();
  obs::FlatJsonScanner scanner(text);
  obs::JsonField field;
  std::string unescaped_key;  // only for a key with escapes
  while (scanner.Next(&field)) {
    std::string_view key = field.key;
    if (field.key_escaped) {
      unescaped_key.clear();
      obs::AppendJsonUnescaped(unescaped_key, key);
      key = unescaped_key;
    }
    for (std::size_t id = 0; id < kFieldCount; ++id) {
      if (key == kFieldNames[id]) {
        fields->field[id] = field;
        fields->present[id] = true;
        break;
      }
    }
  }
  return scanner.status();
}

// "b-e,b-e,..." into `*out`, reusing its capacity; the empty string is no
// queries.
bool ParseQueries(std::string_view text, std::vector<RangeQuery>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  out->reserve(static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), ',')) +
               1);
  std::size_t pos = 0;
  for (;;) {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (!ParseDigits(text, &pos, &begin) || pos == text.size() ||
        text[pos] != '-') {
      return false;
    }
    ++pos;
    if (!ParseDigits(text, &pos, &end)) {
      return false;
    }
    out->push_back(RangeQuery{static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end)});
    if (pos == text.size()) {
      return true;
    }
    if (text[pos] != ',') {
      return false;
    }
    ++pos;
  }
}

// Comma-joined doubles; `null` (what the writer gives a non-finite value)
// decodes as a quiet NaN.
bool ParseDoubles(std::string_view text, std::vector<double>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  out->reserve(static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), ',')) +
               1);
  const char* at = text.data();
  const char* const last = text.data() + text.size();
  for (;;) {
    const char* comma = std::find(at, last, ',');
    double value = std::numeric_limits<double>::quiet_NaN();
    if (std::string_view(at, static_cast<std::size_t>(comma - at)) !=
        "null") {
      const auto [end, ec] = std::from_chars(at, comma, value);
      if (ec != std::errc{} || end != comma) {
        return false;
      }
    }
    out->push_back(value);
    if (comma == last) {
      return true;
    }
    at = comma + 1;
  }
}

// Comma-joined u64s.
bool ParseU64s(std::string_view text, std::vector<std::uint64_t>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  std::size_t pos = 0;
  for (;;) {
    std::uint64_t value = 0;
    if (!ParseDigits(text, &pos, &value)) {
      return false;
    }
    out->push_back(value);
    if (pos == text.size()) {
      return true;
    }
    if (text[pos] != ',') {
      return false;
    }
    ++pos;
  }
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

bool ReadKeyJson(const JsonFields& fields, serve::ReleaseKey* key) {
  return fields.Str(kFieldTenant, &key->tenant) &&
         fields.Str(kFieldDataset, &key->dataset) &&
         fields.U64(kFieldFingerprint, &key->dataset_fingerprint) &&
         fields.Str(kFieldPublisher, &key->publisher) &&
         fields.Num(kFieldEpsilon, &key->epsilon) &&
         fields.U64(kFieldSeed, &key->seed);
}

// The query-request fields into `*out`, its escaped strings into the
// scratch `fields` unescapes into.
Status ReadQueryRequestJson(const JsonFields& fields, QueryRequestView* out) {
  std::string_view queries;
  if (!fields.Str(kFieldTenant, &out->tenant) ||
      !fields.Str(kFieldDataset, &out->dataset) ||
      !fields.Str(kFieldPublisher, &out->publisher) ||
      !fields.Num(kFieldEpsilon, &out->epsilon) ||
      !fields.U64(kFieldSeed, &out->seed) ||
      !fields.Str(kFieldQueries, &queries) ||
      !ParseQueries(queries, &out->queries)) {
    return BodyError("malformed json query request");
  }
  return Status::Ok();
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
  std::string out;
  out.reserve(256 + 6 * (request.tenant.size() + request.dataset.size() +
                         request.request.publisher.size()) +
              42 * request.queries.size());
  JsonOut(out)
      .Str("type", "query_request")
      .Str("tenant", request.tenant)
      .Str("dataset", request.dataset)
      .Str("publisher", request.request.publisher)
      .Num("epsilon", request.request.epsilon)
      .U64("seed", request.request.seed)
      .Queries("queries", request.queries)
      .Close();
  return out;
}

std::size_t BatchAnswerJsonSizeBound(const serve::ReleaseKey& served,
                                     std::size_t answer_count) {
  return JsonSizeBound(served, 0, answer_count, obs::kJsonDoubleMaxChars);
}

void AppendBatchAnswerJson(std::string& out, std::span<const double> answers,
                           bool stale, bool cache_hit,
                           const serve::ReleaseKey& served) {
  JsonOut json(out);
  json.Str("type", "batch_answer")
      .Bool("stale", stale)
      .Bool("cache_hit", cache_hit);
  PutKeyJson(json, served);
  json.Doubles("answers", answers).Close();
}

std::string EncodeBatchAnswerJson(const WireBatchAnswer& answer) {
  std::string out;
  out.reserve(BatchAnswerJsonSizeBound(answer.served, answer.answers.size()));
  AppendBatchAnswerJson(out, answer.answers, answer.stale, answer.cache_hit,
                        answer.served);
  return out;
}

std::string EncodeHistogramJson(const WireHistogram& histogram) {
  std::string out;
  out.reserve(JsonSizeBound(histogram.key, 0, histogram.counts.size(),
                            obs::kJsonDoubleMaxChars));
  JsonOut json(out);
  json.Str("type", "histogram");
  PutKeyJson(json, histogram.key);
  json.Doubles("counts", histogram.counts).Close();
  return out;
}

std::string EncodeSparseHistogramJson(const WireSparseHistogram& histogram) {
  std::string out;
  out.reserve(JsonSizeBound(histogram.key, 20, histogram.keys.size(), 20) +
              histogram.counts.size() * (obs::kJsonDoubleMaxChars + 1));
  JsonOut json(out);
  json.Str("type", "sparse_histogram");
  PutKeyJson(json, histogram.key);
  json.U64("domain", histogram.domain_size)
      .U64s("keys", histogram.keys)
      .Doubles("counts", histogram.counts)
      .Close();
  return out;
}

std::string EncodeErrorJson(const Status& status) {
  std::string out;
  JsonOut(out)
      .Str("type", "error")
      .Int("code", static_cast<std::uint64_t>(status.code()))
      .Str("code_name", StatusCodeName(status.code()))
      .Str("message", status.message())
      .Close();
  return out;
}

Result<bool> DecodeQueryRequestJson(std::string_view text,
                                    QueryRequestView* out) {
  JsonFields fields;
  fields.scratch = &out->scratch;
  DPHIST_RETURN_IF_ERROR(ScanJsonFields(text, &fields));
  std::string_view type;
  if (!fields.Str(kFieldType, &type) || type != "query_request") {
    return false;
  }
  DPHIST_RETURN_IF_ERROR(ReadQueryRequestJson(fields, out));
  return true;
}

Result<WireMessage> DecodeJson(std::string_view text) {
  std::string scratch;
  JsonFields fields;
  fields.scratch = &scratch;
  DPHIST_RETURN_IF_ERROR(ScanJsonFields(text, &fields));
  std::string_view type;
  if (!fields.Str(kFieldType, &type)) {
    return BodyError("json message missing \"type\"");
  }
  WireMessage message;
  if (type == "query_request") {
    QueryRequestView view;
    DPHIST_RETURN_IF_ERROR(ReadQueryRequestJson(fields, &view));
    message.type = WireType::kQueryRequest;
    WireQueryRequest& request = message.query_request;
    request.tenant = view.tenant;
    request.dataset = view.dataset;
    request.request.publisher = view.publisher;
    request.request.epsilon = view.epsilon;
    request.request.seed = view.seed;
    request.queries = std::move(view.queries);
    return message;
  }
  if (type == "batch_answer") {
    message.type = WireType::kBatchAnswer;
    WireBatchAnswer& answer = message.batch_answer;
    std::string_view answers;
    if (!fields.Bool(kFieldStale, &answer.stale) ||
        !fields.Bool(kFieldCacheHit, &answer.cache_hit) ||
        !ReadKeyJson(fields, &answer.served) ||
        !fields.Str(kFieldAnswers, &answers) ||
        !ParseDoubles(answers, &answer.answers)) {
      return BodyError("malformed json batch answer");
    }
    return message;
  }
  if (type == "histogram") {
    message.type = WireType::kHistogram;
    WireHistogram& histogram = message.histogram;
    std::string_view counts;
    if (!ReadKeyJson(fields, &histogram.key) ||
        !fields.Str(kFieldCounts, &counts) ||
        !ParseDoubles(counts, &histogram.counts)) {
      return BodyError("malformed json histogram");
    }
    return message;
  }
  if (type == "sparse_histogram") {
    message.type = WireType::kSparseHistogram;
    WireSparseHistogram& histogram = message.sparse_histogram;
    std::string_view keys;
    std::string_view counts;
    if (!ReadKeyJson(fields, &histogram.key) ||
        !fields.U64(kFieldDomain, &histogram.domain_size) ||
        !fields.Str(kFieldKeys, &keys) ||
        !ParseU64s(keys, &histogram.keys) ||
        !fields.Str(kFieldCounts, &counts) ||
        !ParseDoubles(counts, &histogram.counts) ||
        histogram.keys.size() != histogram.counts.size() ||
        !KeysStrictlyIncreasing(histogram.keys)) {
      return BodyError("malformed json sparse histogram");
    }
    return message;
  }
  if (type == "error") {
    message.type = WireType::kError;
    std::uint64_t code = 0;
    if (!fields.Integer(kFieldCode, &code) ||
        !fields.Str(kFieldMessage, &message.error.message)) {
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
