#include "dphist/hist/fenwick.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dphist {

RankedFenwick::RankedFenwick(std::size_t num_ranks)
    : size_(num_ranks), count_(num_ranks + 1, 0), sum_(num_ranks + 1, 0.0) {}

void RankedFenwick::RankOutOfRange(const char* op, std::size_t rank) const {
  // Not an assert(): an out-of-range update silently corrupts every
  // downstream absolute cost, so the check must survive NDEBUG builds.
  std::fprintf(stderr,
               "RankedFenwick::%s: rank %zu out of range (num_ranks %zu)\n",
               op, rank, size_);
  std::abort();
}

void RankedFenwick::Clear() {
  std::fill(count_.begin(), count_.end(), 0);
  std::fill(sum_.begin(), sum_.end(), 0.0);
}

}  // namespace dphist
