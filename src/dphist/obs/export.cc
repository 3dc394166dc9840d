#include "dphist/obs/export.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>

namespace dphist {
namespace obs {

// ---------------------------------------------------------------------------
// Writing

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  // std::to_chars, not snprintf("%.17g"): printf honors the process locale,
  // so under a comma-decimal locale (de_DE) the emitted "0,5" is not JSON
  // and the bench-regression gate would compare garbage. to_chars is
  // specified to format as if in the C locale, and general/17 matches the
  // historical %.17g output byte for byte.
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::general, 17);
  if (ec != std::errc{}) {
    return "null";
  }
  return std::string(buffer, ptr);
}

void JsonObjectWriter::Key(std::string_view key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonObjectWriter& JsonObjectWriter::Str(std::string_view key,
                                        std::string_view value) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Num(std::string_view key, double value) {
  Key(key);
  body_ += JsonDouble(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Int(std::string_view key,
                                        std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonObjectWriter::Finish() const { return "{" + body_ + "}"; }

// ---------------------------------------------------------------------------
// Parsing

namespace {

void SkipSpace(std::string_view line, std::size_t& pos) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
    ++pos;
  }
}

Status ParseError(std::string_view what, std::size_t pos) {
  return Status::InvalidArgument("ParseFlatJson: " + std::string(what) +
                                 " at offset " + std::to_string(pos));
}

Result<std::string> ParseString(std::string_view line, std::size_t& pos) {
  if (pos >= line.size() || line[pos] != '"') {
    return ParseError("expected '\"'", pos);
  }
  ++pos;
  std::string out;
  for (;;) {
    // The plain run up to the next quote or escape, in one append.
    std::size_t stop = pos;
    while (stop < line.size() && line[stop] != '"' && line[stop] != '\\') {
      ++stop;
    }
    out.append(line, pos, stop - pos);
    pos = stop;
    if (pos >= line.size()) {
      return ParseError("unterminated string", pos);
    }
    if (line[pos] == '"') {
      break;
    }
    if (pos + 1 >= line.size()) {
      return ParseError("dangling escape", pos);
    }
    ++pos;
    char c = '\0';
    switch (line[pos]) {
      case '"':
        c = '"';
        break;
      case '\\':
        c = '\\';
        break;
      case '/':
        c = '/';
        break;
      case 'n':
        c = '\n';
        break;
      case 't':
        c = '\t';
        break;
      case 'r':
        c = '\r';
        break;
      case 'u': {
        if (pos + 4 >= line.size()) {
          return ParseError("truncated \\u escape", pos);
        }
        unsigned code = 0;
        for (int i = 1; i <= 4; ++i) {
          const char h = line[pos + i];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return ParseError("bad \\u digit", pos + i);
          }
        }
        pos += 4;
        if (code > 0x7f) {
          return ParseError("non-ASCII \\u escape unsupported", pos);
        }
        c = static_cast<char>(code);
        break;
      }
      default:
        return ParseError("unknown escape", pos);
    }
    out += c;
    ++pos;
  }
  ++pos;  // closing quote
  return out;
}

Result<JsonValue> ParseValue(std::string_view line, std::size_t& pos) {
  SkipSpace(line, pos);
  if (pos >= line.size()) {
    return ParseError("expected value", pos);
  }
  JsonValue value;
  const char c = line[pos];
  if (c == '"') {
    auto text = ParseString(line, pos);
    if (!text.ok()) {
      return text.status();
    }
    value.kind = JsonValue::Kind::kString;
    value.string_value = std::move(text).value();
    return value;
  }
  if (line.substr(pos, 4) == "true") {
    pos += 4;
    value.kind = JsonValue::Kind::kBool;
    value.bool_value = true;
    return value;
  }
  if (line.substr(pos, 5) == "false") {
    pos += 5;
    value.kind = JsonValue::Kind::kBool;
    value.bool_value = false;
    return value;
  }
  if (line.substr(pos, 4) == "null") {
    pos += 4;
    value.kind = JsonValue::Kind::kNull;
    return value;
  }
  const std::size_t start = pos;
  while (pos < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[pos])) != 0 ||
          line[pos] == '-' || line[pos] == '+' || line[pos] == '.' ||
          line[pos] == 'e' || line[pos] == 'E')) {
    ++pos;
  }
  if (pos == start) {
    return ParseError("expected value", pos);
  }
  // std::from_chars, not strtod: strtod is locale-dependent, and under a
  // comma-decimal locale it would stop at the '.' in "0.5" and mis-parse
  // bench-JSON round-trips. from_chars always uses the C-locale grammar.
  const std::string_view token = line.substr(start, pos - start);
  double parsed = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), parsed);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    return ParseError("bad number", start);
  }
  value.kind = JsonValue::Kind::kNumber;
  value.number_value = parsed;
  return value;
}

}  // namespace

Result<JsonObject> ParseFlatJson(std::string_view line) {
  std::size_t pos = 0;
  SkipSpace(line, pos);
  if (pos >= line.size() || line[pos] != '{') {
    return ParseError("expected '{'", pos);
  }
  ++pos;
  JsonObject object;
  SkipSpace(line, pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    for (;;) {
      SkipSpace(line, pos);
      auto key = ParseString(line, pos);
      if (!key.ok()) {
        return key.status();
      }
      SkipSpace(line, pos);
      if (pos >= line.size() || line[pos] != ':') {
        return ParseError("expected ':'", pos);
      }
      ++pos;
      auto value = ParseValue(line, pos);
      if (!value.ok()) {
        return value.status();
      }
      object[std::move(key).value()] = std::move(value).value();
      SkipSpace(line, pos);
      if (pos >= line.size()) {
        return ParseError("unterminated object", pos);
      }
      if (line[pos] == ',') {
        ++pos;
        continue;
      }
      if (line[pos] == '}') {
        ++pos;
        break;
      }
      return ParseError("expected ',' or '}'", pos);
    }
  }
  SkipSpace(line, pos);
  if (pos != line.size()) {
    return ParseError("trailing characters", pos);
  }
  return object;
}

// ---------------------------------------------------------------------------
// Snapshot export

void WriteSnapshotLines(std::ostream& os, const RegistrySnapshot& snapshot,
                        std::string_view context) {
  for (const auto& [name, value] : snapshot.counters) {
    JsonObjectWriter line;
    line.Str("type", "counter");
    if (!context.empty()) {
      line.Str("bench", context);
    }
    line.Str("name", name).Int("value", value);
    os << line.Finish() << '\n';
  }
  for (const DistributionSnapshot& dist : snapshot.distributions) {
    JsonObjectWriter line;
    line.Str("type", "distribution");
    if (!context.empty()) {
      line.Str("bench", context);
    }
    line.Str("name", dist.name)
        .Int("count", dist.count)
        .Num("min", dist.min)
        .Num("max", dist.max)
        .Num("mean", dist.mean)
        .Num("p50", dist.p50)
        .Num("p95", dist.p95);
    os << line.Finish() << '\n';
  }
}

std::size_t ExportToEnv(std::string_view context) {
  const char* path = std::getenv("DPHIST_OBS_OUT");
  if (path == nullptr || *path == '\0') {
    return 0;
  }
  const RegistrySnapshot snapshot = Registry::Global().Snapshot();
  const std::size_t lines =
      snapshot.counters.size() + snapshot.distributions.size();
  if (std::string_view(path) == "-") {
    WriteSnapshotLines(std::cout, snapshot, context);
    return lines;
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open DPHIST_OBS_OUT=%s\n", path);
    return 0;
  }
  WriteSnapshotLines(out, snapshot, context);
  return lines;
}

}  // namespace obs
}  // namespace dphist
