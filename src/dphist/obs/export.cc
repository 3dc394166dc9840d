#include "dphist/obs/export.h"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>

namespace dphist {
namespace obs {

// ---------------------------------------------------------------------------
// Writing

void AppendJsonEscaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(raw.data() + run, i - run);
    run = i + 1;
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
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendJsonEscaped(out, raw);
  return out;
}

namespace {

using U128 = unsigned __int128;

constexpr std::uint64_t kTen16 = 10000000000000000ull;
constexpr std::uint64_t kTen17 = 100000000000000000ull;

constexpr std::array<std::uint64_t, 20> MakePowersOfTen() {
  std::array<std::uint64_t, 20> powers{};
  std::uint64_t power = 1;
  for (std::uint64_t& entry : powers) {
    entry = power;
    power *= 10;
  }
  return powers;
}
constexpr std::array<std::uint64_t, 20> kPowersOfTen = MakePowersOfTen();

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

// Writes `value` (< 10^8) as exactly eight digits.
void WriteEightDigits(char* out, std::uint32_t value) {
  const std::uint32_t high = value / 10000;
  const std::uint32_t low = value % 10000;
  std::memcpy(out, kDigitPairs + 2 * (high / 100), 2);
  std::memcpy(out + 2, kDigitPairs + 2 * (high % 100), 2);
  std::memcpy(out + 4, kDigitPairs + 2 * (low / 100), 2);
  std::memcpy(out + 6, kDigitPairs + 2 * (low % 100), 2);
}

// floor(log10(2^e)) for |e| <= 1650 (Ryu's log10Pow2).
int FloorLog10Pow2(int e) { return (e * 78913) >> 18; }

// %.17g of a finite value with |value| in [2^-20, 1e17), from its exact
// 17 digits, at `out`, which has room for kJsonDoubleMaxChars bytes.
char* WriteSeventeenDigits(char* out, std::uint64_t bits) {
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;  // |value| = m * 2^e exactly
  std::uint64_t digits = 0;     // the 17 significant digits, in [1e16, 1e17)
  int exponent = 0;             // the decimal exponent of the first digit
  if (e >= 0) {
    // An integer below 1e17: its digits are exact, nothing to round.
    const std::uint64_t integer = m << e;
    digits = integer >= kTen16 ? integer : integer * 10;
    exponent = integer >= kTen16 ? 16 : 15;
  } else {
    // |value| * 10^p = m * 10^p / 2^s with p = 15 - k, where k is
    // floor(log10 |value|) or one less: 16 or 17 integer digits, and
    // m * 10^p < 2^53 * 10^22 < 2^127, one 64 x 64-bit product (for
    // p > 19, m * 10^(p-19) < 2^63 times 10^19). With 16 digits, the
    // remainder times ten gives the 17th. The remainder is exact, so the
    // rounding is too.
    const int s = -e;  // 1..72
    const int k = FloorLog10Pow2(biased - 1023);
    const int p = 15 - k;  // 0..22
    const U128 n =
        p > 19 ? U128{m * kPowersOfTen[p - 19]} * kPowersOfTen[19]
               : U128{m} * kPowersOfTen[p];
    const U128 mask = (U128{1} << s) - 1;
    std::uint64_t q = static_cast<std::uint64_t>(n >> s);
    U128 r = n & mask;
    exponent = k + 1;
    if (q < kTen16) {
      r *= 10;
      q = q * 10 + static_cast<std::uint64_t>(r >> s);
      r &= mask;
      exponent = k;
    }
    const U128 half = U128{1} << (s - 1);
    if (r > half || (r == half && (q & 1) != 0)) {
      ++q;
      if (q == kTen17) {
        q = kTen16;
        ++exponent;
      }
    }
    digits = q;
  }

  // The digits, then '0's: every copy below has a fixed size, reading
  // and writing inside these buffers, and the result leaves in one
  // fixed-size copy.
  char text[40];
  text[0] = static_cast<char>('0' + digits / kTen16);
  const std::uint64_t rest = digits % kTen16;
  WriteEightDigits(text + 1, static_cast<std::uint32_t>(rest / 100000000));
  WriteEightDigits(text + 9, static_cast<std::uint32_t>(rest % 100000000));
  std::memset(text + 17, '0', 23);
  int length = 17;
  while (text[length - 1] == '0') {
    --length;
  }
  char line[48] = {};
  int size = 0;
  // %g: fixed notation for exponents in [-4, 17), else scientific; no
  // trailing zeros and no bare decimal point either way.
  if (exponent >= 0 && exponent < 17) {
    std::memcpy(line, text, 17);
    if (length <= exponent + 1) {
      size = exponent + 1;
    } else {
      line[exponent + 1] = '.';
      std::memcpy(line + exponent + 2, text + exponent + 1, 16);
      size = length + 1;
    }
  } else if (exponent < 0 && exponent >= -4) {
    std::memcpy(line, "0.000", 5);
    std::memcpy(line + 1 - exponent, text, 17);
    size = 1 - exponent + length;
  } else {
    // Only exponents -7..-5 reach here: two digits, as %g writes them.
    line[0] = text[0];
    line[1] = '.';
    std::memcpy(line + 2, text + 1, 16);
    size = length > 1 ? length + 1 : 1;
    line[size] = 'e';
    line[size + 1] = exponent < 0 ? '-' : '+';
    std::memcpy(line + size + 2,
                kDigitPairs + 2 * (exponent < 0 ? -exponent : exponent), 2);
    size += 4;
  }
  std::memcpy(out, line, kJsonDoubleMaxChars - 1);
  return out + size;
}

}  // namespace

char* WriteJsonDouble(char* out, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const double magnitude = std::fabs(value);
  if (magnitude >= 0x1p-20 && magnitude < 1e17) {
    *out = '-';
    return WriteSeventeenDigits(out + (bits >> 63), bits);
  }
  if (!std::isfinite(value)) {
    std::memcpy(out, "null", 4);
    return out + 4;
  }
  // Zero, subnormals, and the rest of the range: std::to_chars, not
  // snprintf("%.17g"): printf honors the process locale, so under a
  // comma-decimal locale (de_DE) the emitted "0,5" is not JSON. to_chars
  // is specified to format as if in the C locale, and general/17 matches
  // %.17g byte for byte.
  return std::to_chars(out, out + kJsonDoubleMaxChars, value,
                       std::chars_format::general, 17)
      .ptr;
}

void AppendJsonDouble(std::string& out, double value) {
  char buffer[kJsonDoubleMaxChars];
  out.append(buffer, WriteJsonDouble(buffer, value));
}

std::string JsonDouble(double value) {
  char buffer[kJsonDoubleMaxChars];
  return std::string(buffer, WriteJsonDouble(buffer, value));
}

void JsonObjectWriter::Key(std::string_view key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  AppendJsonEscaped(body_, key);
  body_ += "\":";
}

JsonObjectWriter& JsonObjectWriter::Str(std::string_view key,
                                        std::string_view value) {
  Key(key);
  body_ += '"';
  AppendJsonEscaped(body_, value);
  body_ += '"';
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Num(std::string_view key, double value) {
  Key(key);
  AppendJsonDouble(body_, value);
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

bool FlatJsonScanner::Fail(std::string_view what, std::size_t pos) {
  status_ = Status::InvalidArgument("ParseFlatJson: " + std::string(what) +
                                    " at offset " + std::to_string(pos));
  state_ = State::kDone;
  return false;
}

void FlatJsonScanner::SkipSpace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
    ++pos_;
  }
}

// After the object's '}': only whitespace may follow.
bool FlatJsonScanner::End() {
  SkipSpace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters", pos_);
  }
  state_ = State::kDone;
  return false;
}

// Reads a string at pos_, checking every escape where it stands; `*raw`
// is the bytes between the quotes.
bool FlatJsonScanner::ScanString(std::string_view* raw, bool* escaped) {
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected '\"'", pos_);
  }
  const std::size_t start = ++pos_;
  *escaped = false;
  for (;;) {
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string", pos_);
    }
    if (text_[pos_] == '"') {
      break;
    }
    if (pos_ + 1 >= text_.size()) {
      return Fail("dangling escape", pos_);
    }
    ++pos_;
    *escaped = true;
    switch (text_[pos_]) {
      case '"':
      case '\\':
      case '/':
      case 'n':
      case 't':
      case 'r':
        break;
      case 'u': {
        if (pos_ + 4 >= text_.size()) {
          return Fail("truncated \\u escape", pos_);
        }
        unsigned code = 0;
        for (std::size_t i = 1; i <= 4; ++i) {
          const char h = text_[pos_ + i];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Fail("bad \\u digit", pos_ + i);
          }
        }
        pos_ += 4;
        if (code > 0x7f) {
          return Fail("non-ASCII \\u escape unsupported", pos_);
        }
        break;
      }
      default:
        return Fail("unknown escape", pos_);
    }
    ++pos_;
  }
  *raw = text_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  return true;
}

bool FlatJsonScanner::ScanValue(JsonField* field) {
  SkipSpace();
  if (pos_ >= text_.size()) {
    return Fail("expected value", pos_);
  }
  const std::string_view rest = text_.substr(pos_);
  if (rest[0] == '"') {
    field->kind = JsonValue::Kind::kString;
    return ScanString(&field->text, &field->escaped);
  }
  if (rest.starts_with("true") || rest.starts_with("false")) {
    field->kind = JsonValue::Kind::kBool;
    field->bool_value = rest[0] == 't';
    pos_ += field->bool_value ? 4 : 5;
    return true;
  }
  if (rest.starts_with("null")) {
    field->kind = JsonValue::Kind::kNull;
    pos_ += 4;
    return true;
  }
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  if (pos_ == start) {
    return Fail("expected value", pos_);
  }
  // std::from_chars, not strtod: strtod is locale-dependent, and under a
  // comma-decimal locale it would stop at the '.' in "0.5" and mis-parse
  // bench-JSON round-trips. from_chars always uses the C-locale grammar.
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto [end, ec] = std::from_chars(first, last, field->number_value);
  if (ec != std::errc{} || end != last) {
    return Fail("bad number", start);
  }
  field->kind = JsonValue::Kind::kNumber;
  return true;
}

bool FlatJsonScanner::Next(JsonField* field) {
  switch (state_) {
    case State::kStart:
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '{') {
        return Fail("expected '{'", pos_);
      }
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return End();
      }
      state_ = State::kFields;
      break;
    case State::kFields:
      // The separator after the previous field's value.
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object", pos_);
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return End();
      }
      if (text_[pos_] != ',') {
        return Fail("expected ',' or '}'", pos_);
      }
      ++pos_;
      break;
    case State::kDone:
      return false;
  }
  SkipSpace();
  if (!ScanString(&field->key, &field->key_escaped)) {
    return false;
  }
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Fail("expected ':'", pos_);
  }
  ++pos_;
  return ScanValue(field);
}

void AppendJsonUnescaped(std::string& out, std::string_view raw) {
  std::size_t pos = 0;
  for (;;) {
    const std::size_t slash = raw.find('\\', pos);
    out.append(raw, pos,
               slash == std::string_view::npos ? std::string_view::npos
                                               : slash - pos);
    if (slash == std::string_view::npos) {
      return;
    }
    // The scanner checked this escape, so it is complete and known.
    const char kind = raw[slash + 1];
    pos = slash + 2;
    switch (kind) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u': {
        unsigned code = 0;
        for (std::size_t i = 0; i < 4; ++i) {
          const char h = raw[pos + i];
          code = code * 16 + static_cast<unsigned>(
                                 h <= '9'   ? h - '0'
                                 : h <= 'F' ? h - 'A' + 10
                                            : h - 'a' + 10);
        }
        pos += 4;
        out += static_cast<char>(code);
        break;
      }
      default:  // '"', '\\', '/'
        out += kind;
    }
  }
}

Result<JsonObject> ParseFlatJson(std::string_view line) {
  FlatJsonScanner scanner(line);
  JsonObject object;
  JsonField field;
  std::string key;
  while (scanner.Next(&field)) {
    key.clear();
    AppendJsonUnescaped(key, field.key);
    JsonValue value;
    value.kind = field.kind;
    if (field.kind == JsonValue::Kind::kString) {
      AppendJsonUnescaped(value.string_value, field.text);
    } else if (field.kind == JsonValue::Kind::kNumber) {
      value.number_value = field.number_value;
    } else if (field.kind == JsonValue::Kind::kBool) {
      value.bool_value = field.bool_value;
    }
    object[key] = std::move(value);  // a key given twice keeps the last
  }
  if (!scanner.status().ok()) {
    return scanner.status();
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
