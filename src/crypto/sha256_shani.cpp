// SHA-256 compression on the x86 SHA extensions. Built with -msha -msse4.1
// and only reached through detail::sha256_shani_kernel(), which checks the
// CPU first. Raw pointers and intrinsics only: no inline library code is
// instantiated here, so no ISA-flagged copy of it can leak into the rest
// of the program.

#include "crypto/sha256.hpp"

#include <immintrin.h>

namespace buscrypt::crypto::detail {

namespace {

// Four rounds on the message quad w0 = W[4g..4g+3] with k = K[4g..4g+3].
// When \p refill, w0 is then replaced by W[4g+16..4g+19] from the next
// three quads: msg1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies
// W[t-7], msg2 adds sigma1(W[t-2]).
inline void quad(__m128i& abef, __m128i& cdgh, __m128i& w0, __m128i w1, __m128i w2,
                 __m128i w3, __m128i k, bool refill) noexcept {
  __m128i msg = _mm_add_epi32(w0, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
  if (refill)
    w0 = _mm_sha256msg2_epu32(
        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)), w3);
}

} // namespace

void sha256_compress_shani(u32* state, const u8* data, std::size_t blocks) noexcept {
  // Big-endian message words into little-endian lanes.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i* k = reinterpret_cast<const __m128i*>(sha256_round_constants);
  const __m128i* in = reinterpret_cast<const __m128i*>(data);

  // sha256rnds2 wants the state as {A,B,E,F} and {C,D,G,H}.
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);

  for (; blocks != 0; --blocks, in += 4) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    // Sixteen quads; the four message registers rotate roles, and the
    // last four quads need no refill (W only runs to 63).
    for (int g = 0; g < 16; g += 4) {
      quad(abef, cdgh, m0, m1, m2, m3, _mm_loadu_si128(k + g), g < 12);
      quad(abef, cdgh, m1, m2, m3, m0, _mm_loadu_si128(k + g + 1), g < 12);
      quad(abef, cdgh, m2, m3, m0, m1, _mm_loadu_si128(k + g + 2), g < 12);
      quad(abef, cdgh, m3, m0, m1, m2, _mm_loadu_si128(k + g + 3), g < 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  t = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(t, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(cdgh, t, 8));
}

} // namespace buscrypt::crypto::detail
