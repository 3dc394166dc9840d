#include "dphist/sparse/sparse_csv.h"

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dphist/common/csv_text.h"

namespace dphist {
namespace sparse {
Result<SparseHistogram> LoadSparseHistogramCsv(const std::string& path,
                                               std::uint64_t domain_size) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::vector<SparseEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = TrimCsvField(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const std::size_t comma = trimmed.find(',');
    if (comma == std::string_view::npos) {
      return Status::ParseError("sparse csv: expected 'key,count' on line " +
                                std::to_string(line_no));
    }
    SparseEntry entry;
    DPHIST_RETURN_IF_ERROR(ParseCsvIndex(TrimCsvField(trimmed.substr(0, comma)),
                                         "sparse csv: key", line_no,
                                         &entry.key));
    DPHIST_RETURN_IF_ERROR(
        ParseCsvCount(TrimCsvField(trimmed.substr(comma + 1)),
                      "sparse csv: count", line_no, &entry.count));
    entries.push_back(entry);
  }
  return SparseHistogram::Create(domain_size, std::move(entries));
}

Status SaveSparseHistogramCsv(const SparseHistogram& histogram,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  for (const SparseEntry& entry : histogram.entries()) {
    WriteCsvRow(entry.key, entry.count, out);
  }
  if (!out) {
    return Status::Internal("write to " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace sparse
}  // namespace dphist
