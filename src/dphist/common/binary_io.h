#ifndef DPHIST_COMMON_BINARY_IO_H_
#define DPHIST_COMMON_BINARY_IO_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace dphist {
namespace binio {

/// \brief Shared little-endian byte codec primitives and the IEEE CRC-32,
/// used by every framed on-disk/on-wire format in the tree (the serve
/// journal and the net wire codec). Both formats promise the same
/// properties: integers are little-endian regardless of host endianness,
/// doubles travel as their raw IEEE-754 bits, strings are a u32 length
/// prefix plus bytes, and a frame is valid only when it fits AND its CRC
/// matches. Centralizing the primitives keeps those promises in one place.

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8:
/// table[0] is the classic bytewise table, and table[k][b] extends a CRC
/// whose low byte is b by k more zero bytes, so eight input bytes fold
/// into eight independent lookups per iteration — several times the
/// bytewise throughput, which matters because every serve-path frame
/// (request and response) is CRC'd on the single event-loop thread.
/// Vendored instead of taking a zlib dependency: these codecs are the
/// only CRC users and the container may not ship zlib headers. The
/// produced values are the standard IEEE CRC-32, bit-identical to the
/// bytewise form (wire_codec_test pins known vectors).
inline const std::array<std::array<std::uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
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
  }();
  return tables;
}

/// Bytewise table (kept for single-byte tail processing and any caller
/// that wants the classic form).
inline const std::array<std::uint32_t, 256>& Crc32Table() {
  return Crc32Tables()[0];
}

inline std::uint32_t Crc32(std::string_view bytes) {
  const auto& t = Crc32Tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
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
  const auto& table = t[0];
  while (n-- > 0) {
    crc = (crc >> 8) ^ table[(crc ^ *p++) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- fixed-width little-endian loads and stores at a raw position ---

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

inline std::uint32_t LoadU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return kLittleEndianHost ? v : __builtin_bswap32(v);
}

inline std::uint64_t LoadU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return kLittleEndianHost ? v : __builtin_bswap64(v);
}

inline void StoreU32(char* p, std::uint32_t v) {
  v = kLittleEndianHost ? v : __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof(v));
}

// --- encoding primitives (little-endian, append-to-string) ---

inline void PutU32(std::string& out, std::uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out.append(bytes, sizeof(bytes));
}

inline void PutU64(std::string& out, std::uint64_t v) {
  v = kLittleEndianHost ? v : __builtin_bswap64(v);
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

inline void PutF64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Consecutive PutF64s: one block copy on a little-endian host.
inline void PutF64s(std::string& out, std::span<const double> values) {
  if constexpr (kLittleEndianHost) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size_bytes());
  } else {
    for (const double v : values) {
      PutF64(out, v);
    }
  }
}

inline void PutStr(std::string& out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

// --- decoding primitives: advance a cursor, false on underflow ---

struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;

  bool Remaining(std::size_t n) const { return bytes.size() - pos >= n; }
  const char* here() const { return bytes.data() + pos; }
};

inline bool GetU32(Cursor& in, std::uint32_t* v) {
  if (!in.Remaining(4)) return false;
  *v = LoadU32(in.here());
  in.pos += 4;
  return true;
}

inline bool GetU64(Cursor& in, std::uint64_t* v) {
  if (!in.Remaining(8)) return false;
  *v = LoadU64(in.here());
  in.pos += 8;
  return true;
}

inline bool GetF64(Cursor& in, double* v) {
  std::uint64_t bits = 0;
  if (!GetU64(in, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

/// A length-prefixed string as a view into the cursor's bytes.
inline bool GetStrView(Cursor& in, std::string_view* s) {
  std::uint32_t len = 0;
  if (!GetU32(in, &len) || !in.Remaining(len)) return false;
  *s = in.bytes.substr(in.pos, len);
  in.pos += len;
  return true;
}

inline bool GetStr(Cursor& in, std::string* s) {
  std::string_view view;
  if (!GetStrView(in, &view)) return false;
  s->assign(view);
  return true;
}

}  // namespace binio
}  // namespace dphist

#endif  // DPHIST_COMMON_BINARY_IO_H_
