#include "dphist/common/csv_text.h"

#include <charconv>
#include <ostream>
#include <system_error>

namespace dphist {

namespace {

bool IsCsvSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string Where(std::string_view what, std::string_view problem,
                  std::size_t line_no) {
  return std::string(what) + " " + std::string(problem) + " on line " +
         std::to_string(line_no);
}

}  // namespace

std::string_view TrimCsvField(std::string_view field) {
  while (!field.empty() && IsCsvSpace(field.front())) {
    field.remove_prefix(1);
  }
  while (!field.empty() && IsCsvSpace(field.back())) {
    field.remove_suffix(1);
  }
  return field;
}

void WriteCsvRow(std::uint64_t index, double count, std::ostream& out) {
  // "18446744073709551615," and "-2.2250738585072014e-308\n" fit with
  // room to spare.
  char buffer[64];
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), index).ptr;
  *end++ = ',';
  end = std::to_chars(end, buffer + sizeof(buffer), count,
                      std::chars_format::general, 17)
            .ptr;
  *end++ = '\n';
  out.write(buffer, end - buffer);
}

Status ParseCsvIndex(std::string_view field, std::string_view what,
                     std::size_t line_no, std::uint64_t* value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(Where(what, "overflows uint64", line_no));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError(
        Where(what, "is not a non-negative integer", line_no));
  }
  return Status::Ok();
}

Status ParseCsvCount(std::string_view field, std::string_view what,
                     std::size_t line_no, double* value) {
  // from_chars takes no '+'; one is accepted ahead of the digits, as
  // strtod accepts it.
  if (field.size() > 1 && field[0] == '+' && field[1] != '+' &&
      field[1] != '-') {
    field.remove_prefix(1);
  }
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError(
        Where(what, "is outside the range of a double", line_no));
  }
  if (ec != std::errc()) {
    return Status::ParseError(Where(what, "is not a number", line_no));
  }
  if (ptr != end) {
    return Status::ParseError(
        Where(what, "has trailing characters", line_no));
  }
  return Status::Ok();
}

}  // namespace dphist
