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

/// Formats a double for JSON with round-trip precision; "null" for
/// non-finite values.
std::string JsonDouble(double value);

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

/// \brief Parses one flat JSON object line (as produced by
/// JsonObjectWriter): string / number / true / false / null values only —
/// no nesting. The bench harnesses read their own output back through
/// this (bench_scalability's determinism check), so writer and reader
/// cannot drift apart. Fails with InvalidArgument on malformed input.
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
