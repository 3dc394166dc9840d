#include "dphist/data/csv.h"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/common/csv_text.h"
#include "dphist/testing/failpoint.h"

namespace dphist {

Result<Histogram> LoadHistogramCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::vector<double> counts;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Chaos hook: a read failing mid-file (truncated/yanked input). With
    // an every-Nth trigger the loader dies partway through, which must
    // surface as a typed error, never a silently short histogram.
    DPHIST_FAILPOINT_RETURN_IF_SET("data/csv/read_line");
    const std::string_view trimmed = TrimCsvField(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const std::size_t comma = trimmed.find(',');
    std::string_view count_field = trimmed;
    if (comma != std::string_view::npos) {
      std::uint64_t index = 0;
      DPHIST_RETURN_IF_ERROR(ParseCsvIndex(
          TrimCsvField(trimmed.substr(0, comma)), "index", line_no, &index));
      if (index != counts.size()) {
        return Status::ParseError("indices must be dense and in order (line " +
                                  std::to_string(line_no) + ")");
      }
      count_field = TrimCsvField(trimmed.substr(comma + 1));
    }
    double count = 0.0;
    DPHIST_RETURN_IF_ERROR(
        ParseCsvCount(count_field, "count", line_no, &count));
    counts.push_back(count);
  }
  if (counts.empty()) {
    return Status::ParseError("no counts found in " + path);
  }
  return Histogram(std::move(counts));
}

Status SaveHistogramCsv(const Histogram& histogram, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    WriteCsvRow(i, histogram.count(i), out);
  }
  if (!out) {
    return Status::Internal("write to " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace dphist
