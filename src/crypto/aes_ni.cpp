// AES block kernels on the x86 AES instructions. Built with -maes -mssse3
// and only reached through detail::aes_ni_kernels(), which checks the CPU
// first. Raw pointers and intrinsics only: no inline library code is
// instantiated here, so no ISA-flagged copy of it can leak into the rest
// of the program.
//
// The round keys arrive as aes keeps them, big-endian column words; one
// pshufb per round key turns them into the byte order aesenc wants. The
// decrypt schedule is the equivalent-inverse one (InvMixColumns already
// applied to the inner keys), which is exactly what aesdec consumes.

#include "crypto/aes.hpp"

#include <immintrin.h>

namespace buscrypt::crypto::detail {

namespace {

constexpr int k_max_rounds = 14;

// Load the nr+1 round keys, each word byte-swapped into FIPS byte order.
void load_round_keys(const u32* rk, int nr, __m128i* k) noexcept {
  const __m128i bswap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  for (int r = 0; r <= nr; ++r)
    k[r] = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 4 * r)),
                            bswap);
}

__m128i load_block(const u8* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void store_block(u8* p, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

} // namespace

void aes_ni_encrypt(const u32* rk, int nr, const u8* in, u8* out, std::size_t blocks) noexcept {
  __m128i k[k_max_rounds + 1];
  load_round_keys(rk, nr, k);
  // Four independent blocks in flight hide the aesenc latency; every
  // block is loaded before any is stored, so in == out is safe.
  for (; blocks >= 4; blocks -= 4, in += 64, out += 64) {
    __m128i x0 = _mm_xor_si128(load_block(in), k[0]);
    __m128i x1 = _mm_xor_si128(load_block(in + 16), k[0]);
    __m128i x2 = _mm_xor_si128(load_block(in + 32), k[0]);
    __m128i x3 = _mm_xor_si128(load_block(in + 48), k[0]);
    for (int r = 1; r < nr; ++r) {
      x0 = _mm_aesenc_si128(x0, k[r]);
      x1 = _mm_aesenc_si128(x1, k[r]);
      x2 = _mm_aesenc_si128(x2, k[r]);
      x3 = _mm_aesenc_si128(x3, k[r]);
    }
    store_block(out, _mm_aesenclast_si128(x0, k[nr]));
    store_block(out + 16, _mm_aesenclast_si128(x1, k[nr]));
    store_block(out + 32, _mm_aesenclast_si128(x2, k[nr]));
    store_block(out + 48, _mm_aesenclast_si128(x3, k[nr]));
  }
  for (; blocks != 0; --blocks, in += 16, out += 16) {
    __m128i x = _mm_xor_si128(load_block(in), k[0]);
    for (int r = 1; r < nr; ++r) x = _mm_aesenc_si128(x, k[r]);
    store_block(out, _mm_aesenclast_si128(x, k[nr]));
  }
}

void aes_ni_decrypt(const u32* rk, int nr, const u8* in, u8* out, std::size_t blocks) noexcept {
  __m128i k[k_max_rounds + 1];
  load_round_keys(rk, nr, k);
  for (; blocks >= 4; blocks -= 4, in += 64, out += 64) {
    __m128i x0 = _mm_xor_si128(load_block(in), k[0]);
    __m128i x1 = _mm_xor_si128(load_block(in + 16), k[0]);
    __m128i x2 = _mm_xor_si128(load_block(in + 32), k[0]);
    __m128i x3 = _mm_xor_si128(load_block(in + 48), k[0]);
    for (int r = 1; r < nr; ++r) {
      x0 = _mm_aesdec_si128(x0, k[r]);
      x1 = _mm_aesdec_si128(x1, k[r]);
      x2 = _mm_aesdec_si128(x2, k[r]);
      x3 = _mm_aesdec_si128(x3, k[r]);
    }
    store_block(out, _mm_aesdeclast_si128(x0, k[nr]));
    store_block(out + 16, _mm_aesdeclast_si128(x1, k[nr]));
    store_block(out + 32, _mm_aesdeclast_si128(x2, k[nr]));
    store_block(out + 48, _mm_aesdeclast_si128(x3, k[nr]));
  }
  for (; blocks != 0; --blocks, in += 16, out += 16) {
    __m128i x = _mm_xor_si128(load_block(in), k[0]);
    for (int r = 1; r < nr; ++r) x = _mm_aesdec_si128(x, k[r]);
    store_block(out, _mm_aesdeclast_si128(x, k[nr]));
  }
}

} // namespace buscrypt::crypto::detail
