#ifndef DPHIST_COMMON_CSV_TEXT_H_
#define DPHIST_COMMON_CSV_TEXT_H_

/// \file
/// \brief The text of dphist's histogram CSV files, shared by the dense
/// (`data/csv`) and sparse (`sparse/sparse_csv`) loaders and savers.
///
/// A row is "index,count". The count is written with 17 significant digits
/// by `std::to_chars` in its general format, so it reads back as the same
/// double, bit for bit: subnormals, -0 and integers past 2^53 included.
/// NaN and the infinities are written "nan", "inf" and "-inf". A count is
/// read with `std::from_chars` over the whole field, after one optional
/// leading '+'. Both directions follow the C locale whatever the process
/// locale is.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "dphist/common/status.h"

namespace dphist {

/// `field` without the ASCII spaces, tabs, CRs and LFs at either end.
std::string_view TrimCsvField(std::string_view field);

/// Writes the row "`index`,`count`\n" to `out`, formatted in a stack
/// buffer, so a saver streams rows and holds no copy of the file.
void WriteCsvRow(std::uint64_t index, double count, std::ostream& out);

/// Parses a whole trimmed field as an exact unsigned 64-bit integer (never
/// through double, which rounds above 2^53) into `*value`. Fails with
/// ParseError for anything but decimal digits, and with InvalidArgument
/// for digits past the uint64 range, so callers can tell corrupt files
/// from out-of-range ones. Messages name the field `what` and its line.
Status ParseCsvIndex(std::string_view field, std::string_view what,
                     std::size_t line_no, std::uint64_t* value);

/// Parses a whole trimmed field as a count into `*value`. Fails with
/// ParseError when the field is not a number, when characters follow one,
/// or when it lies outside the range of a double. Messages name the field
/// `what` and its line.
Status ParseCsvCount(std::string_view field, std::string_view what,
                     std::size_t line_no, double* value);

}  // namespace dphist

#endif  // DPHIST_COMMON_CSV_TEXT_H_
