// SHA-256 (FIPS 180-4), HMAC-SHA256 (RFC 4231) and CBC-MAC tests, plus
// the SHA-NI-vs-scalar compress and hmac_key midstate equivalences.

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include <array>
#include <tuple>

namespace buscrypt::crypto {
namespace {

bytes text(std::string_view s) { return bytes(s.begin(), s.end()); }

// Byte i of a deterministic pattern: (mul * i + add) mod 256.
bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(mul * i + add);
  return out;
}

std::string hash_hex(std::string_view msg) {
  const auto d = sha256::hash(
      std::span<const u8>(reinterpret_cast<const u8*>(msg.data()), msg.size()));
  return to_hex(d);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  sha256 ctx;
  const bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  rng r(1);
  const bytes msg = r.random_bytes(10'000);
  sha256 ctx;
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t n = std::min<std::size_t>(1 + r.below(257), msg.size() - off);
    ctx.update(std::span<const u8>(msg).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(ctx.digest(), sha256::hash(msg));
}

TEST(Sha256, PaddingBoundaries) {
  // Message lengths straddling the 55/56/64-byte padding edges: the length
  // field fits in the last data block (55), spills into a new one (56, 63,
  // 119, 120) or the message is block-aligned (64). Known answers are
  // SHA-256 of bytes 7i+1; byte-wise updates must agree with one-shot.
  const std::pair<std::size_t, std::string_view> known[] = {
      {55, "16fa57a0a3423a715d594516339f36189d6b5f93754a9714fef202616a9fabfe"},
      {56, "c37b44e5f1b18554b36966f4f8e08bfbf3164c4b6c10374d12d89850892073c5"},
      {63, "bbba992d2c85af960fb2987a1fd05e0aa82a3db3c740dd8982a9e273b75e36a3"},
      {64, "66bd4633ed6f71c4ecfa4763bf7ba1c8ec7612de9aa6c0578a7b675207c71e0b"},
      {119, "a3ed307b730fa77c07531300c6e4a282330011d4d4caf6bb7b63ae05950f4b66"},
      {120, "8e3b15d9fea7472655aa069620b7f8c2e55ee1499f763200a7515fe826e99d20"},
  };
  for (const auto& [len, hex] : known) {
    const bytes msg = pattern(len, 7, 1);
    EXPECT_EQ(to_hex(sha256::hash(msg)), hex) << len;
    sha256 ctx;
    for (const u8 b : msg) ctx.update(std::span<const u8>(&b, 1));
    EXPECT_EQ(to_hex(ctx.digest()), hex) << len << " byte-wise";
  }
  for (std::size_t len : {57u, 65u}) {
    const bytes msg(len, 0x5A);
    sha256 a;
    a.update(msg);
    EXPECT_EQ(a.digest(), sha256::hash(msg)) << len;
  }
}

TEST(Sha256Kernels, ShaNiMatchesScalarCompress) {
  const detail::sha256_compress_fn ni = detail::sha256_shani_kernel();
  if (ni == nullptr) GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU";
  rng r(15);
  for (int trial = 0; trial < 32; ++trial)
    for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
      std::array<u32, 8> scalar{};
      for (u32& w : scalar) w = r.next_u32();
      std::array<u32, 8> fast = scalar;
      const bytes data = r.random_bytes(blocks * sha256::block_size);
      detail::sha256_compress_scalar(scalar.data(), data.data(), blocks);
      ni(fast.data(), data.data(), blocks);
      ASSERT_EQ(fast, scalar) << "trial " << trial << ", " << blocks << " blocks";
    }
}

TEST(Hmac, Rfc4231Case1) {
  const bytes key(20, 0x0b);
  const char* data = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span<const u8>(reinterpret_cast<const u8*>(data), 8));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const char* key = "Jefe";
  const char* data = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span<const u8>(reinterpret_cast<const u8*>(key), 4),
      std::span<const u8>(reinterpret_cast<const u8*>(data), 28));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const bytes key(20, 0xaa);
  const bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const bytes key(131, 0xaa);
  const char* data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, std::span<const u8>(reinterpret_cast<const u8*>(data), 54));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, TruncatedTags) {
  rng r(2);
  const bytes key = r.random_bytes(16);
  const bytes msg = r.random_bytes(100);
  const auto full = hmac_sha256(key, msg);
  const bytes tag8 = hmac_sha256_tag(key, msg, 8);
  ASSERT_EQ(tag8.size(), 8u);
  EXPECT_TRUE(std::equal(tag8.begin(), tag8.end(), full.begin()));
  EXPECT_THROW((void)hmac_sha256_tag(key, msg, 0), std::invalid_argument);
  EXPECT_THROW((void)hmac_sha256_tag(key, msg, 33), std::invalid_argument);
}

TEST(HmacKey, Rfc4231Cases4And7) {
  // Cases 1-3 and 6 are pinned through hmac_sha256 above; these two add a
  // 25-byte key and a longer-than-a-block key over a longer-than-a-block
  // message, and check a truncated tag is a prefix of the full one.
  const std::tuple<bytes, bytes, std::string_view> cases[] = {
      {pattern(25, 1, 1), bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {bytes(131, 0xaa),
       text("This is a test using a larger than block-size key and a larger "
            "than block-size data. The key needs to be hashed before being "
            "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& [key, data, want] : cases) {
    const hmac_key k(key);
    std::array<u8, 32> mac{};
    k.tag_into({data}, mac);
    EXPECT_EQ(to_hex(mac), want) << "key length " << key.size();
    std::array<u8, 16> half{};
    k.tag_into({data}, half);
    EXPECT_TRUE(std::equal(half.begin(), half.end(), mac.begin()));
  }
}

TEST(HmacKey, KeyLengthsAroundTheBlockSize) {
  // Known answers (Python hmac/hashlib) for keys of bytes 0xA0+i over a
  // 100-byte message: empty, one byte, exactly one block (used as is),
  // one byte over (hashed first) and RFC 4231's 131.
  const std::pair<std::size_t, std::string_view> known[] = {
      {0, "fe56ae2b71b986ca32499e94a6c01ee433ec3d1e25dd277ed2269ef98bf7725d"},
      {1, "957677088a1ce1b76f8f75812e428b52aed56dbb1ac9eb7c63d4210b641805bf"},
      {64, "668aa7ff984b87de451da0163cbe588e5060f1812a90e45512b8020ae45dce8d"},
      {65, "b7f02c650291494a2fb6c6576c4a72b37bd9a32277bdffff912e191a6e1bef06"},
      {131, "89e313c157018b769fe2ae0afd16e853aea5ad1a8d567a0be38a52538136e115"},
  };
  const bytes msg = pattern(100, 13, 5);
  for (const auto& [len, hex] : known) {
    const bytes key = pattern(len, 1, 0xA0);
    std::array<u8, 32> mac{};
    hmac_key(key).tag_into({msg}, mac);
    EXPECT_EQ(to_hex(mac), hex) << "key length " << len;
    EXPECT_EQ(to_hex(hmac_sha256(key, msg)), hex) << "key length " << len;
  }
}

TEST(HmacKey, EveryTwoPartSplitMatchesOneShot) {
  // The parts are hashed in place, so every split point of every message
  // length 0..200 (both sides of each block edge) must give the bytes of
  // the unsplit message.
  rng r(16);
  const bytes msg = r.random_bytes(200);
  for (const std::size_t key_len : {0u, 1u, 64u, 65u, 131u}) {
    const bytes key = r.random_bytes(key_len);
    const hmac_key k(key);
    for (std::size_t len = 0; len <= msg.size(); ++len) {
      const std::span<const u8> m = std::span<const u8>(msg).first(len);
      const auto whole = hmac_sha256(key, m);
      for (std::size_t cut = 0; cut <= len; ++cut) {
        std::array<u8, 32> split{};
        k.tag_into({m.first(cut), m.subspan(cut)}, split);
        ASSERT_EQ(split, whole) << "key " << key_len << ", length " << len << ", cut " << cut;
      }
    }
  }
}

TEST(CbcMac, DetectsAnyFlippedBit) {
  rng r(3);
  const aes c(r.random_bytes(16));
  bytes msg = r.random_bytes(64);
  const bytes tag = cbc_mac(c, msg);
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    msg[i] ^= 0x40;
    EXPECT_NE(cbc_mac(c, msg), tag) << i;
    msg[i] ^= 0x40;
  }
  EXPECT_EQ(cbc_mac(c, msg), tag);
}

TEST(CbcMac, RequiresBlockMultiple) {
  rng r(4);
  const aes c(r.random_bytes(16));
  EXPECT_THROW((void)cbc_mac(c, r.random_bytes(15)), std::invalid_argument);
}

TEST(TagEqual, ConstantTimeSemantics) {
  const bytes a = {1, 2, 3, 4};
  const bytes b = {1, 2, 3, 4};
  const bytes c = {1, 2, 3, 5};
  const bytes d = {1, 2, 3};
  EXPECT_TRUE(tag_equal(a, b));
  EXPECT_FALSE(tag_equal(a, c));
  EXPECT_FALSE(tag_equal(a, d));
}

} // namespace
} // namespace buscrypt::crypto
