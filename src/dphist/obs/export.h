#ifndef DPHIST_OBS_EXPORT_H_
#define DPHIST_OBS_EXPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "dphist/common/result.h"
#include "dphist/obs/obs.h"

namespace dphist {
namespace obs {

/// \brief Incremental builder for one flat JSON object (one JSON line).
///
/// This is the single definition of the JSON-lines schema shared by the
/// obs snapshot exporter and the bench harnesses' `BenchJsonWriter`:
/// every emitted line is one flat object of string / number / boolean
/// fields, doubles printed with round-trip precision (%.17g), non-finite
/// doubles as null. Keys are emitted in insertion order.
class JsonObjectWriter {
 public:
  JsonObjectWriter& Str(std::string_view key, std::string_view value);
  JsonObjectWriter& Num(std::string_view key, double value);
  JsonObjectWriter& Int(std::string_view key, std::uint64_t value);
  JsonObjectWriter& Bool(std::string_view key, bool value);

  /// The finished `{...}` line (no trailing newline). The builder stays
  /// usable; later fields extend the object.
  std::string Finish() const;

 private:
  void Key(std::string_view key);

  std::string body_;
};

/// Escapes `raw` for inclusion inside a JSON string literal.
std::string JsonEscape(std::string_view raw);

/// Appends `JsonEscape(raw)` to `out`, copying each run of bytes that needs
/// no escape whole.
void AppendJsonEscaped(std::string& out, std::string_view raw);

/// Formats a double for JSON with round-trip precision; "null" for
/// non-finite values.
std::string JsonDouble(double value);

/// The most bytes `WriteJsonDouble` writes ("-2.2250738585072014e-308").
inline constexpr std::size_t kJsonDoubleMaxChars = 24;

/// \brief The digits writer behind every JSON double: writes `value` at
/// `out` exactly as printf("%.17g") does in the C locale (so as
/// `std::to_chars(general, 17)` does), or "null" when it is not finite,
/// and returns the end. `out` must have room for kJsonDoubleMaxChars.
///
/// For 2^-20 <= |value| < 1e17 the 17 digits come from one 128-bit
/// product of the significand and a power of ten, shifted by the binary
/// exponent and rounded half-to-even on the exact remainder, so they are
/// the correctly rounded digits; every other value goes to std::to_chars
/// (DESIGN §11.4).
char* WriteJsonDouble(char* out, double value);

/// Appends `WriteJsonDouble(value)`'s bytes to `out`.
void AppendJsonDouble(std::string& out, double value);

/// \brief One decoded value of a flat JSON object.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string string_value;  ///< set when kind == kString
  double number_value = 0.0;  ///< set when kind == kNumber
  bool bool_value = false;    ///< set when kind == kBool
};

/// Parsed flat JSON object: key -> value, in key-sorted order, looked up
/// by any string-like key.
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// \brief One field of a flat JSON object as `FlatJsonScanner` reads it:
/// views into the scanned text, valid while the text is. A string's
/// escapes are checked but not undone; `AppendJsonUnescaped` undoes them.
struct JsonField {
  std::string_view key;      ///< the key's bytes between its quotes
  bool key_escaped = false;  ///< `key` holds a backslash escape
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  std::string_view text;      ///< kString: the bytes between the quotes
  bool escaped = false;       ///< kString: `text` holds a backslash escape
  double number_value = 0.0;  ///< kNumber
  bool bool_value = false;    ///< kBool
};

/// \brief The one reader of the flat-JSON grammar: walks an object field
/// by field without allocating. `ParseFlatJson` and the wire codec's JSON
/// decoders all read through it, so they accept the same texts and fail
/// with the same errors.
///
///   FlatJsonScanner scanner(text);
///   JsonField field;
///   while (scanner.Next(&field)) { ... }
///   if (!scanner.status().ok()) { ... }
///
/// Fields come in text order; a key that appears twice is reported twice,
/// and a reader that keeps the last one reads what ParseFlatJson's map
/// holds.
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(std::string_view text) : text_(text) {}

  /// Reads the next field into `*field`. False at the end of the object
  /// (only whitespace may follow its '}') or at the first malformed byte;
  /// `status()` tells which.
  bool Next(JsonField* field);

  /// OK until a malformed byte is met; then InvalidArgument, naming it and
  /// its offset.
  const Status& status() const { return status_; }

 private:
  bool Fail(std::string_view what, std::size_t pos);
  bool End();
  bool ScanString(std::string_view* raw, bool* escaped);
  bool ScanValue(JsonField* field);
  void SkipSpace();

  enum class State { kStart, kFields, kDone };
  std::string_view text_;
  std::size_t pos_ = 0;
  State state_ = State::kStart;
  Status status_;
};

/// Appends the unescaped bytes of a string `FlatJsonScanner` read
/// (`JsonField::key` or `JsonField::text`) to `out`.
void AppendJsonUnescaped(std::string& out, std::string_view raw);

/// \brief Parses one flat JSON object line (as produced by
/// JsonObjectWriter): string / number / true / false / null values only —
/// no nesting. The bench harnesses read their own output back through
/// this (bench_scalability's determinism check), so writer and reader
/// cannot drift apart. Fails with InvalidArgument on malformed input. A
/// key given twice keeps its last value.
Result<JsonObject> ParseFlatJson(std::string_view line);

/// Writes one JSON line per counter and per distribution of `snapshot` to
/// `os`, name-sorted (the snapshot is already sorted). Each line carries
/// `"type"` ("counter" | "distribution"), the metric `"name"`, and, when
/// `context` is non-empty, a `"bench"` field identifying the producer.
void WriteSnapshotLines(std::ostream& os, const RegistrySnapshot& snapshot,
                        std::string_view context);

/// Snapshots `Registry::Global()` and appends the JSON lines to the file
/// named by `DPHIST_OBS_OUT` ("-" means stdout). No-op when the variable
/// is unset or empty. Returns the number of lines written.
std::size_t ExportToEnv(std::string_view context);

}  // namespace obs
}  // namespace dphist

#endif  // DPHIST_OBS_EXPORT_H_
