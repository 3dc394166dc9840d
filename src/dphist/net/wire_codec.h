#ifndef DPHIST_NET_WIRE_CODEC_H_
#define DPHIST_NET_WIRE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/query/range_query.h"
#include "dphist/serve/release_cache.h"
#include "dphist/serve/release_server.h"

namespace dphist {
namespace net {

/// \brief The compact binary wire format for query traffic and published
/// histograms, plus a flat-JSON fallback sharing the same message shapes.
///
/// Binary framing mirrors the journal's (and reuses its `binio`
/// primitives): a frame is
///
///   magic "DPHWIR1\n" (8 bytes)
///   payload_len : u32 little-endian
///   crc32       : u32 little-endian, IEEE CRC-32 of the payload bytes
///   payload     : type tag (u8) + type-specific body
///
/// All integers little-endian regardless of host; doubles as raw IEEE-754
/// bits; strings length-prefixed (u32). A frame decodes successfully only
/// when the magic matches, the length fits exactly, and the CRC verifies —
/// a truncated or bit-flipped frame is a typed kDataLoss, never a garbled
/// message (wire_codec_test's truncation/bit-flip battery).
///
/// The JSON fallback is one flat object per message (the obs
/// JsonObjectWriter/FlatJsonScanner schema — no nesting), so any message is
/// inspectable with curl. Repeated values (queries, answers, counts)
/// travel as a single comma-separated string field; doubles are formatted
/// with round-trip precision, so every finite answer or count decodes to
/// the same bits the binary path carries. A NaN or an infinity is written
/// as `null` and decodes as a quiet NaN: JSON carries +-inf as NaN, and
/// only the binary codec keeps an infinity.

/// First bytes of every binary frame.
inline constexpr char kWireMagic[] = "DPHWIR1\n";
inline constexpr std::size_t kWireMagicLen = 8;

/// Payload type tags.
enum class WireType : std::uint8_t {
  kQueryRequest = 1,
  kBatchAnswer = 2,
  kHistogram = 3,
  kError = 4,
  kSparseHistogram = 5,
};

/// MIME types selecting the codec on the HTTP surface.
inline constexpr char kContentTypeBinary[] = "application/x-dphist-wire";
inline constexpr char kContentTypeJson[] = "application/json";

/// \brief One query request: which namespace and release to answer from,
/// and the batch of range queries.
struct WireQueryRequest {
  std::string tenant = "default";
  std::string dataset = "default";
  serve::ServeRequest request;
  std::vector<RangeQuery> queries;

  friend bool operator==(const WireQueryRequest& a,
                         const WireQueryRequest& b) {
    return a.tenant == b.tenant && a.dataset == b.dataset &&
           a.request.publisher == b.request.publisher &&
           a.request.epsilon == b.request.epsilon &&
           a.request.seed == b.request.seed && a.queries == b.queries;
  }
};

/// \brief One batch of answers, mirroring serve::BatchAnswer plus the key
/// of the release that answered.
struct WireBatchAnswer {
  std::vector<double> answers;
  bool stale = false;
  bool cache_hit = false;
  serve::ReleaseKey served;

  friend bool operator==(const WireBatchAnswer&,
                         const WireBatchAnswer&) = default;
};

/// \brief One published histogram (the full released counts).
struct WireHistogram {
  serve::ReleaseKey key;
  std::vector<double> counts;

  friend bool operator==(const WireHistogram&, const WireHistogram&) = default;
};

/// \brief One published sparse histogram: only the released keys travel,
/// with the domain size alongside so the receiver can validate queries.
///
/// Binary body: key, domain (u64), entry count (u32), then one
/// (key u64, count f64) pair per entry. Keys must be strictly increasing;
/// duplicates or disorder are a decode error on both codecs. The codec
/// itself allows the full u64 key range (including 2^64 - 1) — the 2^63
/// domain cap is a `sparse::SparseHistogram` invariant enforced where a
/// frame is turned into one, not a framing rule.
///
/// JSON fallback: `"type": "sparse_histogram"`, the release-key fields,
/// and `"domain"` / `"keys"` as decimal strings (u64s must not round-trip
/// through JSON numbers — double loses precision past 2^53), with
/// `"keys"` / `"counts"` comma-joined.
struct WireSparseHistogram {
  serve::ReleaseKey key;
  std::uint64_t domain_size = 0;
  std::vector<std::uint64_t> keys;
  std::vector<double> counts;

  friend bool operator==(const WireSparseHistogram&,
                         const WireSparseHistogram&) = default;
};

/// \brief A typed error travelling the wire.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// Reconstructs the Status this error encodes.
  Status ToStatus() const;

  friend bool operator==(const WireError&, const WireError&) = default;
};

/// \brief A query request read in place by `DecodeQueryRequest` (a binary
/// frame) or `DecodeQueryRequestJson` (a JSON body): the strings are views
/// into the request's bytes, valid only while those bytes are, or, for a
/// JSON string with escapes, into `scratch`, which holds it unescaped
/// until the next decode. `queries` and `scratch` are refilled by every
/// decode, so a caller that keeps one view allocates nothing once they
/// have grown to its requests' size.
struct QueryRequestView {
  std::string_view tenant;
  std::string_view dataset;
  std::string_view publisher;
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  std::vector<RangeQuery> queries;
  std::string scratch;
};

/// \brief One decoded message: `type` says which member is meaningful.
struct WireMessage {
  WireType type = WireType::kError;
  WireQueryRequest query_request;
  WireBatchAnswer batch_answer;
  WireHistogram histogram;
  WireSparseHistogram sparse_histogram;
  WireError error;
};

// --- binary codec ---

std::string EncodeQueryRequest(const WireQueryRequest& request);
std::string EncodeBatchAnswer(const WireBatchAnswer& answer);

/// The batch-answer writer behind `EncodeBatchAnswer` and the server's
/// responses: appends one complete frame to `out`, with the answers copied
/// as one block and the CRC computed over the payload where it lies.
void AppendBatchAnswer(std::string& out, std::span<const double> answers,
                       bool stale, bool cache_hit,
                       const serve::ReleaseKey& served);

/// Bytes `AppendBatchAnswer` writes for `answer_count` answers from
/// `served` — what a response head announces before the frame exists.
std::size_t BatchAnswerFrameSize(const serve::ReleaseKey& served,
                                 std::size_t answer_count);
std::string EncodeHistogram(const WireHistogram& histogram);
std::string EncodeSparseHistogram(const WireSparseHistogram& histogram);
std::string EncodeError(const Status& status);

/// Decodes one complete binary frame. kDataLoss on bad magic, a length
/// that does not match the buffer, or a CRC mismatch; kParseError on a
/// well-framed payload whose body does not decode.
Result<WireMessage> DecodeFrame(std::string_view bytes);

/// The query-request decoder behind `DecodeFrame`'s query arm, without the
/// owned copy: reads `bytes` as a query request into `*out`. Errors are
/// DecodeFrame's; a valid frame of another message type is Ok(false),
/// with its payload left unread and `*out` unspecified.
Result<bool> DecodeQueryRequest(std::string_view bytes, QueryRequestView* out);

// --- JSON fallback (same message shapes, flat objects) ---
//
// Every JSON encoder writes its object in place, each double through
// obs::WriteJsonDouble; every decoder reads through one
// obs::FlatJsonScanner pass that keeps the last value of each field it
// knows, as ParseFlatJson's map would.

std::string EncodeQueryRequestJson(const WireQueryRequest& request);
std::string EncodeBatchAnswerJson(const WireBatchAnswer& answer);

/// The JSON batch-answer writer behind `EncodeBatchAnswerJson` and the
/// server's responses: appends the body to `out`, the answers written
/// where they land, with no string per answer.
void AppendBatchAnswerJson(std::string& out, std::span<const double> answers,
                           bool stale, bool cache_hit,
                           const serve::ReleaseKey& served);

/// An upper bound on the bytes `AppendBatchAnswerJson` writes for
/// `answer_count` answers from `served`.
std::size_t BatchAnswerJsonSizeBound(const serve::ReleaseKey& served,
                                     std::size_t answer_count);
std::string EncodeHistogramJson(const WireHistogram& histogram);
std::string EncodeSparseHistogramJson(const WireSparseHistogram& histogram);
std::string EncodeErrorJson(const Status& status);

/// Decodes one flat-JSON message; the `"type"` field selects the shape.
Result<WireMessage> DecodeJson(std::string_view text);

/// The query-request arm of `DecodeJson`, without the owned copy: reads
/// `text` into `*out`. Errors are DecodeJson's; a message whose `"type"`
/// is not "query_request" (or is missing) is Ok(false), with `*out`
/// unspecified, and DecodeJson then gives its error or its message.
Result<bool> DecodeQueryRequestJson(std::string_view text,
                                    QueryRequestView* out);

}  // namespace net
}  // namespace dphist

#endif  // DPHIST_NET_WIRE_CODEC_H_
