#pragma once
/// \file des.hpp
/// DES and Triple-DES (EDE) per FIPS 46-3. These are the cores of the
/// General Instrument patent engine (Fig. 5, 3-DES in CBC), the Dallas
/// DS5240 (Fig. 6, "true DES or 3-DES"), and the Gilmont pipelined 3-DES
/// prefetch engine surveyed in Section 3.
///
/// Two host datapaths back the same FIPS semantics (see
/// docs/architecture.md, "Two-tier DES datapath"):
///   - a scalar fast path using eight fused SP tables (S-box + P permutation
///     precomputed at compile time, the E expansion folded into the table
///     indexing) with Hoey delta-swap IP/FP, and
///   - a bitsliced wide path (des_bitslice.hpp) that transposes up to 64
///     blocks into lanes and evaluates all 16 rounds as boolean circuits,
///     reached through the encrypt_blocks/decrypt_blocks overrides.
/// Both are pinned bit-identical to the retained reference implementation
/// (des_reference below) by the known-answer and equivalence tests.

#include "crypto/block_cipher.hpp"

#include <array>

namespace buscrypt::crypto {

/// Precomputed DES key schedule in S-box-chunk form: 16 rounds x 8 chunks
/// of 6 bits each, right-aligned in a byte. Chunk b of a round is bits
/// [6b+1, 6b+6] of the FIPS 48-bit round key — exactly the bits XORed into
/// S-box b's input. 128 bytes total, the same footprint as the packed
/// 16 x u64 48-bit schedule it replaces, so the expanded key every
/// programmed keyslot owns does not grow.
struct des_schedule {
  std::array<std::array<u8, 8>, 16> k6{};
};

/// Single DES, 64-bit block, 56-bit effective key (8 key bytes, parity
/// bits ignored as in real hardware). Scalar path: SP tables; bulk path:
/// bitsliced once a run is wide enough to amortize the transpose.
class des final : public block_cipher {
 public:
  /// \param key 8 bytes; bit 0 of each byte is the (ignored) parity bit.
  explicit des(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 8; }
  [[nodiscard]] std::string_view name() const noexcept override { return "DES"; }

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void encrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;

  /// Raw 64-bit single-block primitives used by triple_des to avoid
  /// byte-span repacking between stages.
  [[nodiscard]] u64 encrypt_u64(u64 block) const noexcept;
  [[nodiscard]] u64 decrypt_u64(u64 block) const noexcept;

  /// The chunked schedule, shared verbatim with the bitsliced path.
  [[nodiscard]] const des_schedule& schedule() const noexcept { return schedule_; }

 private:
  des_schedule schedule_;
};

/// Triple DES in EDE configuration. Supports 2-key (K1,K2,K1) and 3-key
/// bundles. With K1 == K2 == K3 it degenerates to single DES, which the
/// test-suite uses as a cross-check. The bulk overrides run all 48 rounds
/// in one bitsliced pass sequence (one transpose in, one out).
class triple_des final : public block_cipher {
 public:
  /// \param key 16 bytes (2-key EDE) or 24 bytes (3-key EDE).
  explicit triple_des(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 8; }
  [[nodiscard]] std::string_view name() const noexcept override { return "3DES"; }

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void encrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;

 private:
  des k1_, k2_, k3_;
};

/// Retained straight-from-the-standard implementation: table-driven
/// per-bit permute everywhere, no fused tables, no delta swaps. This is
/// the oracle the equivalence tests pin the fast paths against and the
/// "reference" row of tab2_cipher_cores; it is not used by any engine.
class des_reference final : public block_cipher {
 public:
  explicit des_reference(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 8; }
  [[nodiscard]] std::string_view name() const noexcept override { return "DES-ref"; }

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;

  [[nodiscard]] u64 encrypt_u64(u64 block) const noexcept;
  [[nodiscard]] u64 decrypt_u64(u64 block) const noexcept;

 private:
  std::array<u64, 16> subkeys_{}; // 48-bit round keys, right-aligned
};

/// Reference EDE composition over des_reference; same role as above.
class triple_des_reference final : public block_cipher {
 public:
  explicit triple_des_reference(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 8; }
  [[nodiscard]] std::string_view name() const noexcept override { return "3DES-ref"; }

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;

 private:
  des_reference k1_, k2_, k3_;
};

} // namespace buscrypt::crypto
