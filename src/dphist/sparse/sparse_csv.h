#ifndef DPHIST_SPARSE_SPARSE_CSV_H_
#define DPHIST_SPARSE_SPARSE_CSV_H_

/// \file
/// \brief CSV I/O for sparse histograms: one `key,count` line per stored
/// key, keys strictly increasing. Blank lines and `#` comments are
/// ignored, mirroring `data/csv`. Keys are parsed as exact unsigned 64-bit
/// integers (never through double, which rounds above 2^53); a key that
/// overflows uint64 is a typed `kInvalidArgument`. Counts are written and
/// read exactly, bit for bit (see common/csv_text.h).

#include <cstdint>
#include <string>

#include "dphist/common/result.h"
#include "dphist/common/status.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace sparse {

/// Loads `key,count` lines into a SparseHistogram over `domain_size` keys.
Result<SparseHistogram> LoadSparseHistogramCsv(const std::string& path,
                                               std::uint64_t domain_size);

/// Writes one `key,count` line per stored key.
Status SaveSparseHistogramCsv(const SparseHistogram& histogram,
                              const std::string& path);

}  // namespace sparse
}  // namespace dphist

#endif  // DPHIST_SPARSE_SPARSE_CSV_H_
