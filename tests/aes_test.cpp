// AES known-answer tests (FIPS-197 appendix C, NIST SP 800-38A) plus
// structural and property tests and the AES-NI-vs-T-table kernel check.

#include "common/bitops.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/modes.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace buscrypt::crypto {
namespace {

bytes H(std::string_view s) { return from_hex(s); }

// --- FIPS-197 Appendix C example vectors ----------------------------------

TEST(Aes, Fips197Aes128) {
  const aes c(H("000102030405060708090a0b0c0d0e0f"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
  bytes back(16);
  c.decrypt_block(ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Fips197Aes192) {
  const aes c(H("000102030405060708090a0b0c0d0e0f1011121314151617"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const aes c(H("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089");
}

// --- NIST SP 800-38A mode vectors (AES-128) --------------------------------

const char* k_sp800_key = "2b7e151628aed2a6abf7158809cf4f3c";
const char* k_sp800_pt =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

TEST(Aes, Sp800_38A_Ecb) {
  const aes c(H(k_sp800_key));
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  ecb_encrypt(c, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4");
  bytes back(pt.size());
  ecb_decrypt(c, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Cbc) {
  const aes c(H(k_sp800_key));
  const bytes iv = H("000102030405060708090a0b0c0d0e0f");
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  cbc_encrypt(c, iv, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7");
  bytes back(pt.size());
  cbc_decrypt(c, iv, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Ctr) {
  const aes c(H(k_sp800_key));
  const bytes pt = H(k_sp800_pt);
  // SP 800-38A uses counter block f0f1...ff incrementing in the low bits;
  // reproduce it via nonce = top half, initial counter = bottom half.
  bytes ct(pt.size());
  ctr_crypt(c, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
  bytes back(pt.size());
  ctr_crypt(c, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Cfb128) {
  const aes c(H(k_sp800_key));
  const bytes iv = H("000102030405060708090a0b0c0d0e0f");
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  cfb_encrypt(c, iv, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "3b3fd92eb72dad20333449f8e83cfb4a"
            "c8a64537a0b3a93fcde3cdad9f1ce58b"
            "26751f67a3cbb140b1808cf187a4f4df"
            "c04b05357c5d1c0eeac4c66f9ff7f2e6");
  bytes back(pt.size());
  cfb_decrypt(c, iv, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Ofb) {
  const aes c(H(k_sp800_key));
  const bytes iv = H("000102030405060708090a0b0c0d0e0f");
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  ofb_crypt(c, iv, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "3b3fd92eb72dad20333449f8e83cfb4a"
            "7789508d16918f03f53c52dac54ed825"
            "9740051e9c5fecf64344f7a82260edcc"
            "304c6528f659c77866a510d9c1d6ae5e");
  bytes back(pt.size());
  ofb_crypt(c, iv, ct, back);
  EXPECT_EQ(back, pt);
}

// --- structure -------------------------------------------------------------

TEST(Aes, RoundCounts) {
  rng r(1);
  EXPECT_EQ(aes(r.random_bytes(16)).rounds(), 10);
  EXPECT_EQ(aes(r.random_bytes(24)).rounds(), 12);
  EXPECT_EQ(aes(r.random_bytes(32)).rounds(), 14);
}

TEST(Aes, RejectsBadKeyLengths) {
  rng r(2);
  EXPECT_THROW(aes(r.random_bytes(15)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(17)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(0)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(16), aes_bits::k256), std::invalid_argument);
}

TEST(Aes, RejectsBadBlockLengths) {
  rng r(3);
  const aes c(r.random_bytes(16));
  bytes small(8), out(16);
  EXPECT_THROW(c.encrypt_block(small, out), std::invalid_argument);
  EXPECT_THROW(c.decrypt_block(out, small), std::invalid_argument);
}

TEST(Aes, InPlaceOperation) {
  rng r(4);
  const aes c(r.random_bytes(16));
  bytes buf = r.random_bytes(16);
  const bytes orig = buf;
  c.encrypt_block(buf, buf);
  EXPECT_NE(buf, orig);
  c.decrypt_block(buf, buf);
  EXPECT_EQ(buf, orig);
}

// --- properties across key widths ------------------------------------------

class AesProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesProperty, EncryptDecryptRoundTrip) {
  rng r(GetParam());
  const aes c(r.random_bytes(GetParam()));
  for (int i = 0; i < 64; ++i) {
    const bytes pt = r.random_bytes(16);
    bytes ct(16), back(16);
    c.encrypt_block(pt, ct);
    c.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
    EXPECT_NE(ct, pt);
  }
}

// The FIPS-197 vectors pin one key per width; every decrypt round key
// passes through the schedule's InvMixColumns, so sweep many keys.
TEST_P(AesProperty, RandomKeysRoundTripAndBulkMatchesSingleBlock) {
  rng r(GetParam() + 300);
  constexpr std::size_t k_blocks = 4;
  for (int k = 0; k < 256; ++k) {
    const aes c(r.random_bytes(GetParam()));
    const bytes pt = r.random_bytes(16 * k_blocks);
    bytes ct(pt.size()), back(pt.size()), one(16);
    c.encrypt_blocks(pt, ct);
    c.decrypt_blocks(ct, back);
    ASSERT_EQ(back, pt) << "key " << k;
    for (std::size_t b = 0; b < k_blocks; ++b) {
      const auto blk = [b](const bytes& v) { return std::span<const u8>(v).subspan(16 * b, 16); };
      c.encrypt_block(blk(pt), one);
      ASSERT_TRUE(std::ranges::equal(one, blk(ct))) << "key " << k << " block " << b;
      c.decrypt_block(blk(ct), one);
      ASSERT_TRUE(std::ranges::equal(one, blk(pt))) << "key " << k << " block " << b;
    }
  }
}

TEST_P(AesProperty, AvalancheNearHalfTheBits) {
  rng r(GetParam() + 100);
  const aes c(r.random_bytes(GetParam()));
  double total_flipped = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    bytes pt = r.random_bytes(16);
    bytes ct_a(16), ct_b(16);
    c.encrypt_block(pt, ct_a);
    pt[r.below(16)] ^= static_cast<u8>(1u << r.below(8));
    c.encrypt_block(pt, ct_b);
    total_flipped += static_cast<double>(hamming_bits(ct_a, ct_b));
  }
  const double mean = total_flipped / trials;
  EXPECT_NEAR(mean, 64.0, 6.0); // half of 128 bits
}

TEST_P(AesProperty, KeySensitivity) {
  rng r(GetParam() + 200);
  bytes key = r.random_bytes(GetParam());
  const bytes pt = r.random_bytes(16);
  bytes ct_a(16), ct_b(16);
  aes(key).encrypt_block(pt, ct_a);
  key[0] ^= 1;
  aes(key).encrypt_block(pt, ct_b);
  EXPECT_GE(hamming_bits(ct_a, ct_b), 40u);
}

// The AES-NI kernels against the T-table ones on the same schedules: every
// key width, both directions, 1..9 blocks (the 4-way body, its 1..3-block
// tail and both together), out-of-place and in place.
TEST_P(AesProperty, AesNiKernelsMatchTTable) {
  const detail::aes_kernels ni = detail::aes_ni_kernels();
  if (ni.encrypt == nullptr) GTEST_SKIP() << "no AES-NI kernel in this build or on this CPU";
  const detail::aes_kernels tt = detail::aes_ttable_kernels();
  rng r(GetParam() + 400);
  for (int k = 0; k < 16; ++k) {
    const aes c(r.random_bytes(GetParam()));
    for (const bool dec : {false, true}) {
      const u32* rk = c.schedule(dec).data();
      const detail::aes_blocks_fn slow = dec ? tt.decrypt : tt.encrypt;
      const detail::aes_blocks_fn fast = dec ? ni.decrypt : ni.encrypt;
      for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
        const bytes in = r.random_bytes(16 * blocks);
        bytes want(in.size()), got(in.size());
        slow(rk, c.rounds(), in.data(), want.data(), blocks);
        fast(rk, c.rounds(), in.data(), got.data(), blocks);
        ASSERT_EQ(got, want) << "key " << k << (dec ? " dec " : " enc ") << blocks;
        bytes inplace = in;
        fast(rk, c.rounds(), inplace.data(), inplace.data(), blocks);
        ASSERT_EQ(inplace, want) << "in place, key " << k << (dec ? " dec " : " enc ")
                                 << blocks;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKeyWidths, AesProperty,
                         ::testing::Values(std::size_t{16}, std::size_t{24},
                                           std::size_t{32}));

} // namespace
} // namespace buscrypt::crypto
