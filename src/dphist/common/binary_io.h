#ifndef DPHIST_COMMON_BINARY_IO_H_
#define DPHIST_COMMON_BINARY_IO_H_

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

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) of `bytes`: the
/// standard value zlib's crc32 gives, which every journal record and wire
/// frame on disk or in flight already carries, so no implementation may
/// change a single result (wire_codec_test pins known vectors and golden
/// frames). Every serve-path frame, request and response, is CRC'd on the
/// single event-loop thread, so the kernel is chosen for speed:
/// - on an x86-64 CPU with PCLMULQDQ and SSE4.1, input of at least 64
///   bytes folds 16-byte blocks with carry-less multiplies (Gopal et al.,
///   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
///   Instruction", Intel 2009), four lanes at a time, then Barrett-reduces
///   to 32 bits; the CPU is probed once, on first use;
/// - the tail under 16 bytes, input under 64 bytes, and every other CPU
///   take `Crc32Portable`'s slicing-by-8 tables.
/// Vendored instead of taking a zlib dependency: these codecs are the only
/// CRC users and the container may not ship zlib headers.
std::uint32_t Crc32(std::string_view bytes);

/// The same CRC-32 by slicing-by-8 alone, on any CPU: table[0] is the
/// classic bytewise table, and table[k][b] extends a CRC whose low byte is
/// b by k more zero bytes, so eight input bytes fold into eight
/// independent lookups per iteration. The reference `Crc32` is tested
/// against at every length and alignment.
std::uint32_t Crc32Portable(std::string_view bytes);

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
