#pragma once
/// \file sha256.hpp
/// SHA-256 (FIPS 180-4). Substrate for the keyed-hash authentication the
/// General Instrument patent attaches to fetched data (Fig. 5), and for
/// HMAC in the key-exchange example.
///
/// The compression function has two kernels: the portable scalar rounds
/// and, on x86 hosts whose CPU reports the SHA extensions, a SHA-NI kernel
/// from a separately flagged translation unit. The choice is made once per
/// process from the CPU; both produce the same bytes (tests/hash_test.cpp
/// pins them against each other).

#include "common/types.hpp"

#include <array>
#include <cstddef>
#include <span>

namespace buscrypt::crypto {

namespace detail {

/// Run \p blocks consecutive 64-byte blocks at \p data through the
/// compression function, updating the eight-word chaining \p state.
using sha256_compress_fn = void (*)(u32* state, const u8* data, std::size_t blocks) noexcept;

/// The 64 FIPS 180-4 round constants, shared by both kernels.
extern const u32 sha256_round_constants[64];

/// The portable FIPS 180-4 rounds; every host can run it.
void sha256_compress_scalar(u32* state, const u8* data, std::size_t blocks) noexcept;

/// The SHA-NI kernel, or nullptr when this build has no SHA-NI translation
/// unit or the CPU lacks the `sha` (or `sse4.1`) feature.
[[nodiscard]] sha256_compress_fn sha256_shani_kernel() noexcept;

} // namespace detail

/// Incremental SHA-256. update() any number of times, then digest().
/// Copyable: a copy taken after absorbing a prefix is a midstate that can
/// finish many messages sharing that prefix (crypto::hmac_key does this).
class sha256 {
 public:
  static constexpr std::size_t digest_size = 32;
  static constexpr std::size_t block_size = 64;

  sha256() noexcept { reset(); }

  /// Restart for a fresh message.
  void reset() noexcept;

  /// Absorb message bytes.
  void update(std::span<const u8> data) noexcept;

  /// Finalize and return the 32-byte digest. The object must be reset()
  /// before further use.
  [[nodiscard]] std::array<u8, digest_size> digest() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static std::array<u8, digest_size> hash(std::span<const u8> data) noexcept;

 private:
  /// Compress a run of whole blocks with the host's kernel.
  void compress(const u8* data, std::size_t blocks) noexcept;

  std::array<u32, 8> h_{};
  std::array<u8, block_size> buf_{};
  std::size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

} // namespace buscrypt::crypto
