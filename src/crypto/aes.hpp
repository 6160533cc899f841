#pragma once
/// \file aes.hpp
/// AES-128/192/256 per FIPS-197. This is the cipher the XOM [13] and
/// AEGIS [14] engines surveyed in Section 3 pipeline in hardware; here it is
/// a software model (T-table rounds, or the host's AES instructions where
/// the CPU has them) whose hardware cost is attached separately via
/// edu::pipeline_model.
///
/// The S-box is computed at compile time from the GF(2^8) inverse plus the
/// affine map, eliminating the possibility of a mistyped table.

#include "crypto/block_cipher.hpp"

#include <array>
#include <cstddef>

namespace buscrypt::crypto {

/// Supported AES key widths.
enum class aes_bits { k128 = 128, k192 = 192, k256 = 256 };

namespace detail {

/// Run \p blocks 16-byte blocks from \p in to \p out (which may alias
/// exactly) through one direction of an expanded schedule: \p rk holds
/// 4*(nr+1) big-endian column words, either the encrypt schedule or the
/// equivalent-inverse decrypt schedule (aes::schedule).
using aes_blocks_fn = void (*)(const u32* rk, int nr, const u8* in, u8* out,
                               std::size_t blocks) noexcept;

/// One block kernel per direction.
struct aes_kernels {
  aes_blocks_fn encrypt = nullptr;
  aes_blocks_fn decrypt = nullptr;
};

/// The T-table rounds; every host can run them.
[[nodiscard]] aes_kernels aes_ttable_kernels() noexcept;

/// The AES-NI kernels (four blocks interleaved per loop), or nulls when
/// this build has no AES-NI translation unit or the CPU lacks `aes` or
/// `ssse3`.
[[nodiscard]] aes_kernels aes_ni_kernels() noexcept;

} // namespace detail

/// FIPS-197 AES. Immutable after construction; safe to share across threads.
///
/// The portable data path uses T-table rounds: SubBytes, ShiftRows and
/// MixColumns fuse into four table lookups plus XORs per column — the
/// software equivalent of the fused round logic the surveyed hardware
/// cores pipeline, and the hot loop of every simulator run (each EDU pad
/// block, IV derivation and keyslot unit lands here). Decryption runs the
/// equivalent inverse cipher over InvMixColumns-transformed round keys, so
/// both directions are loop-free per byte. On x86 hosts whose CPU reports
/// AES-NI, the same schedules drive `aesenc`/`aesdec` instead (byte-swapped
/// at call time; the decrypt schedule is already the layout `aesdec`
/// expects). The choice is made once per process from the CPU. Output is
/// bit-identical to the byte-oriented FIPS-197 reference either way (the
/// NIST vectors and the kernel-equivalence tests in tests/ pin it).
class aes final : public block_cipher {
 public:
  /// \param key  16/24/32 bytes matching \p bits.
  /// \throws std::invalid_argument when the key length disagrees with bits.
  aes(std::span<const u8> key, aes_bits bits);

  /// Convenience: deduce width from the key length (16/24/32 bytes).
  explicit aes(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 16; }
  [[nodiscard]] std::string_view name() const noexcept override;

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void encrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;

  /// Number of rounds (10/12/14) — the figure hardware pipelines expose.
  [[nodiscard]] int rounds() const noexcept { return nr_; }

  /// The expanded schedule for one direction, 4*(rounds()+1) big-endian
  /// words — the input of the detail:: block kernels.
  [[nodiscard]] std::span<const u32> schedule(bool decrypt) const noexcept {
    return std::span<const u32>(decrypt ? dec_round_keys_ : round_keys_)
        .first(static_cast<std::size_t>(4 * (nr_ + 1)));
  }

 private:
  int nk_ = 0; // key words
  int nr_ = 0; // rounds
  std::array<u32, 60> round_keys_{};     // 4*(nr+1) words max (AES-256)
  std::array<u32, 60> dec_round_keys_{}; // equivalent-inverse-cipher schedule
};

} // namespace buscrypt::crypto
