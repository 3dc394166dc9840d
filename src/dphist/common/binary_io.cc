#include "dphist/common/binary_io.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DPHIST_CRC32_PCLMUL 1
#define DPHIST_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))
#endif

namespace dphist {
namespace binio {
namespace {

using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables MakeSliceTables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kSliceTables = MakeSliceTables();

// Advances the running CRC register `crc` (the value before the final
// inversion) over `n` bytes at `p`, eight bytes per step.
std::uint32_t SliceBy8(std::uint32_t crc, const unsigned char* p,
                       std::size_t n) {
  const SliceTables& t = kSliceTables;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    lo = __builtin_bswap32(lo);
    hi = __builtin_bswap32(hi);
#endif
    crc ^= lo;
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
          t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

#ifdef DPHIST_CRC32_PCLMUL

// The fold needs four 16-byte lanes to start; shorter input stays on the
// tables, where the fixed cost of the final reduction would dominate.
constexpr std::size_t kMinFoldBytes = 64;

bool CpuHasPclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

// Folds the 128-bit remainder `x` over the next 16-byte block `next`.
DPHIST_CRC32_TARGET
inline __m128i Fold16(__m128i x, __m128i k3k4, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k3k4, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k3k4, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the running CRC register `crc` over `n` bytes at `p`, where
// n >= 64 and n is a multiple of 16 — zlib's crc32_simd fold. Four 128-bit
// lanes each multiply by x^544 and x^480 mod P (k1, k2) to step 64 bytes;
// the lanes then merge with x^160 / x^96 (k3, k4), any further 16-byte
// block folds the same way, and the 128-bit remainder is reduced to 64
// bits (k4, then k5 = x^64 mod P) and Barrett-reduced to 32 with
// mu = x^64 / P and P itself. All constants are bit-reflected, as the
// CRC is.
DPHIST_CRC32_TARGET
std::uint32_t FoldPclmul(std::uint32_t crc, const unsigned char* p,
                         std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto* in = reinterpret_cast<const __m128i*>(p);

  __m128i x1 = _mm_loadu_si128(in);
  __m128i x2 = _mm_loadu_si128(in + 1);
  __m128i x3 = _mm_loadu_si128(in + 2);
  __m128i x4 = _mm_loadu_si128(in + 3);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  in += 4;
  n -= 64;

  while (n >= 64) {
    const __m128i y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i y4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y1), _mm_loadu_si128(in));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, y2), _mm_loadu_si128(in + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, y3), _mm_loadu_si128(in + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, y4), _mm_loadu_si128(in + 3));
    in += 4;
    n -= 64;
  }

  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  for (; n >= 16; n -= 16) {
    x1 = Fold16(x1, k3k4, _mm_loadu_si128(in++));
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction, 64 -> 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // DPHIST_CRC32_PCLMUL

const unsigned char* Bytes(std::string_view bytes) {
  return reinterpret_cast<const unsigned char*>(bytes.data());
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  const unsigned char* p = Bytes(bytes);
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
#ifdef DPHIST_CRC32_PCLMUL
  static const bool pclmul = CpuHasPclmul();
  if (pclmul && n >= kMinFoldBytes) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = FoldPclmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return SliceBy8(crc, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Portable(std::string_view bytes) {
  return SliceBy8(0xFFFFFFFFu, Bytes(bytes), bytes.size()) ^ 0xFFFFFFFFu;
}

}  // namespace binio
}  // namespace dphist
