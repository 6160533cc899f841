#pragma once
/// \file bitops.hpp
/// Bit- and byte-level helpers used by the cipher cores and the simulator.
/// Everything here is constexpr and allocation-free; cipher round functions
/// are built exclusively from these primitives.

#include "common/types.hpp"

#include <bit>
#include <cstddef>
#include <cstring>
#include <span>

namespace buscrypt {

/// Rotate a 32-bit word left by \p n (n in [0,31]).
[[nodiscard]] constexpr u32 rotl32(u32 x, unsigned n) noexcept {
  return std::rotl(x, static_cast<int>(n));
}

/// Rotate a 32-bit word right by \p n (n in [0,31]).
[[nodiscard]] constexpr u32 rotr32(u32 x, unsigned n) noexcept {
  return std::rotr(x, static_cast<int>(n));
}

/// Rotate a 64-bit word left by \p n.
[[nodiscard]] constexpr u64 rotl64(u64 x, unsigned n) noexcept {
  return std::rotl(x, static_cast<int>(n));
}

/// Rotate a 64-bit word right by \p n.
[[nodiscard]] constexpr u64 rotr64(u64 x, unsigned n) noexcept {
  return std::rotr(x, static_cast<int>(n));
}

/// Load a big-endian 32-bit word from 4 bytes.
[[nodiscard]] constexpr u32 load_be32(const u8* p) noexcept {
  return (u32{p[0]} << 24) | (u32{p[1]} << 16) | (u32{p[2]} << 8) | u32{p[3]};
}

/// Store a 32-bit word as 4 big-endian bytes.
constexpr void store_be32(u8* p, u32 v) noexcept {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

/// Load a big-endian 64-bit word from 8 bytes.
[[nodiscard]] constexpr u64 load_be64(const u8* p) noexcept {
  return (u64{load_be32(p)} << 32) | u64{load_be32(p + 4)};
}

/// Store a 64-bit word as 8 big-endian bytes.
constexpr void store_be64(u8* p, u64 v) noexcept {
  store_be32(p, static_cast<u32>(v >> 32));
  store_be32(p + 4, static_cast<u32>(v));
}

/// FNV-1a 64-bit over a byte span: the DRAM-image fingerprint the fleet and
/// lifetime runners compare across serial and parallel runs.
[[nodiscard]] constexpr u64 fnv1a(std::span<const u8> data) noexcept {
  u64 h = 0xCBF29CE484222325ULL;
  for (const u8 b : data) {
    h ^= b;
    h *= 0x00000100000001B3ULL;
  }
  return h;
}

/// Load a little-endian 32-bit word from 4 bytes.
[[nodiscard]] constexpr u32 load_le32(const u8* p) noexcept {
  return u32{p[0]} | (u32{p[1]} << 8) | (u32{p[2]} << 16) | (u32{p[3]} << 24);
}

/// Store a 32-bit word as 4 little-endian bytes.
constexpr void store_le32(u8* p, u32 v) noexcept {
  p[0] = static_cast<u8>(v);
  p[1] = static_cast<u8>(v >> 8);
  p[2] = static_cast<u8>(v >> 16);
  p[3] = static_cast<u8>(v >> 24);
}

/// Load a little-endian 64-bit word from 8 bytes.
[[nodiscard]] constexpr u64 load_le64(const u8* p) noexcept {
  return u64{load_le32(p)} | (u64{load_le32(p + 4)} << 32);
}

/// Store a 64-bit word as 8 little-endian bytes.
constexpr void store_le64(u8* p, u64 v) noexcept {
  store_le32(p, static_cast<u32>(v));
  store_le32(p + 4, static_cast<u32>(v >> 32));
}

/// XOR \p src into \p dst element-wise; buffers must be the same length.
/// Runs u64-at-a-time over the aligned body (memcpy keeps it well-defined
/// for any alignment and lets the compiler emit vector loads) with a byte
/// tail, so pad/payload XORs are not byte loops.
inline void xor_bytes(std::span<u8> dst, std::span<const u8> src) noexcept {
  const std::size_t n = dst.size() < src.size() ? dst.size() : src.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 a, b;
    std::memcpy(&a, dst.data() + i, 8);
    std::memcpy(&b, src.data() + i, 8);
    a ^= b;
    std::memcpy(dst.data() + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// dst = a ^ b element-wise over min of the three lengths; dst may alias
/// either input. Same u64-wide body as xor_bytes.
inline void xor_bytes(std::span<u8> dst, std::span<const u8> a,
                      std::span<const u8> b) noexcept {
  std::size_t n = dst.size() < a.size() ? dst.size() : a.size();
  n = n < b.size() ? n : b.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 x, y;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    x ^= y;
    std::memcpy(dst.data() + i, &x, 8);
  }
  for (; i < n; ++i) dst[i] = static_cast<u8>(a[i] ^ b[i]);
}

/// Number of set bits across a byte buffer (used by avalanche tests).
[[nodiscard]] inline std::size_t popcount_bytes(std::span<const u8> s) noexcept {
  std::size_t n = 0;
  for (u8 b : s) n += static_cast<std::size_t>(std::popcount(b));
  return n;
}

/// Hamming distance in bits between two equal-length buffers.
[[nodiscard]] inline std::size_t hamming_bits(std::span<const u8> a,
                                              std::span<const u8> b) noexcept {
  std::size_t n = 0;
  const std::size_t len = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < len; ++i)
    n += static_cast<std::size_t>(std::popcount(static_cast<u8>(a[i] ^ b[i])));
  return n;
}

/// True when \p x is a power of two (and non-zero). Cache geometry checks.
[[nodiscard]] constexpr bool is_pow2(u64 x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// log2 of a power of two.
[[nodiscard]] constexpr unsigned log2_pow2(u64 x) noexcept {
  return static_cast<unsigned>(std::countr_zero(x));
}

} // namespace buscrypt
