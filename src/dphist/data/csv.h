#ifndef DPHIST_DATA_CSV_H_
#define DPHIST_DATA_CSV_H_

#include <string>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/hist/histogram.h"

namespace dphist {

/// \brief Minimal CSV I/O so users can run the algorithms on their own
/// histograms.
///
/// Format: one line per unit bin. A line is either a bare count
/// ("42") or an "index,count" pair; in the latter case indices must be
/// 0-based, dense and in order. Blank lines and lines starting with '#'
/// are skipped. Counts are written and read exactly, bit for bit (see
/// common/csv_text.h).

/// Loads a histogram from `path`. Returns NotFound if the file cannot be
/// opened and ParseError on malformed content.
Result<Histogram> LoadHistogramCsv(const std::string& path);

/// Writes `histogram` to `path` as "index,count" lines.
Status SaveHistogramCsv(const Histogram& histogram, const std::string& path);

}  // namespace dphist

#endif  // DPHIST_DATA_CSV_H_
