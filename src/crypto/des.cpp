#include "crypto/des.hpp"

#include "common/bitops.hpp"
#include "crypto/des_bitslice.hpp"
#include "crypto/des_tables.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::crypto {

namespace {

using namespace des_detail;

// ---------------------------------------------------------------------------
// Scalar fast path: fused SP tables + Hoey delta-swap IP/FP.
//
// SP[b][six] is S-box b applied to the six-bit input, its 4-bit output
// placed into its field of the 32-bit S-box word, then run through the P
// permutation — so the round function is eight table lookups XORed
// together, with no per-bit permute left anywhere on the hot path. The E
// expansion is folded into the indexing: with w = rotr32(R, 1), S-box b
// reads the six consecutive bits (w >> (26 - 4b)) & 0x3F (box 7 wraps via
// a rotate), because E's input groups are R bits [4b .. 4b+5] mod 32.
// ---------------------------------------------------------------------------

constexpr std::array<std::array<u32, 64>, 8> make_sp() noexcept {
  std::array<std::array<u32, 64>, 8> sp{};
  for (int box = 0; box < 8; ++box)
    for (u32 six = 0; six < 64; ++six) {
      const u64 placed = u64{k_sbox6[static_cast<std::size_t>(box)][six]} << (28 - 4 * box);
      sp[static_cast<std::size_t>(box)][six] = static_cast<u32>(permute(placed, k_p, 32));
    }
  return sp;
}
constexpr std::array<std::array<u32, 64>, 8> k_sp = make_sp();

struct halves {
  u32 l, r;
};

// IP as five delta swaps (Hoey's network) instead of 64 table-driven
// single-bit moves. Validated at compile time against the FIPS table below.
constexpr halves ip_split(u64 x) noexcept {
  u32 l = static_cast<u32>(x >> 32);
  u32 r = static_cast<u32>(x);
  u32 t = ((l >> 4) ^ r) & 0x0F0F0F0F;
  r ^= t;
  l ^= t << 4;
  t = ((l >> 16) ^ r) & 0x0000FFFF;
  r ^= t;
  l ^= t << 16;
  t = ((r >> 2) ^ l) & 0x33333333;
  l ^= t;
  r ^= t << 2;
  t = ((r >> 8) ^ l) & 0x00FF00FF;
  l ^= t;
  r ^= t << 8;
  t = ((l >> 1) ^ r) & 0x55555555;
  r ^= t;
  l ^= t << 1;
  return {l, r};
}

// FP is the exact inverse: the same involutive swap steps in reverse order.
constexpr u64 fp_join(u32 l, u32 r) noexcept {
  u32 t = ((l >> 1) ^ r) & 0x55555555;
  r ^= t;
  l ^= t << 1;
  t = ((r >> 8) ^ l) & 0x00FF00FF;
  l ^= t;
  r ^= t << 8;
  t = ((r >> 2) ^ l) & 0x33333333;
  l ^= t;
  r ^= t << 2;
  t = ((l >> 16) ^ r) & 0x0000FFFF;
  r ^= t;
  l ^= t << 16;
  t = ((l >> 4) ^ r) & 0x0F0F0F0F;
  r ^= t;
  l ^= t << 4;
  return (u64{l} << 32) | u64{r};
}

constexpr u64 ip_as_u64(u64 x) noexcept {
  const halves h = ip_split(x);
  return (u64{h.l} << 32) | u64{h.r};
}
static_assert(ip_as_u64(0x0123456789ABCDEFULL) == permute(0x0123456789ABCDEFULL, k_ip, 64));
static_assert(ip_as_u64(0xFEDCBA9876543210ULL) == permute(0xFEDCBA9876543210ULL, k_ip, 64));
static_assert(fp_join(static_cast<u32>(permute(0x13570246ACE8BDF9ULL, k_ip, 64) >> 32),
                      static_cast<u32>(permute(0x13570246ACE8BDF9ULL, k_ip, 64))) ==
              0x13570246ACE8BDF9ULL);
static_assert(fp_join(0x89ABCDEFu, 0x01234567u) ==
              permute(0x89ABCDEF01234567ULL, k_fp, 64));

inline u32 feistel_sp(u32 r, const std::array<u8, 8>& k) noexcept {
  const u32 w = rotr32(r, 1);
  u32 f = k_sp[0][((w >> 26) & 0x3F) ^ k[0]];
  f ^= k_sp[1][((w >> 22) & 0x3F) ^ k[1]];
  f ^= k_sp[2][((w >> 18) & 0x3F) ^ k[2]];
  f ^= k_sp[3][((w >> 14) & 0x3F) ^ k[3]];
  f ^= k_sp[4][((w >> 10) & 0x3F) ^ k[4]];
  f ^= k_sp[5][((w >> 6) & 0x3F) ^ k[5]];
  f ^= k_sp[6][((w >> 2) & 0x3F) ^ k[6]];
  f ^= k_sp[7][(rotl32(w, 2) & 0x3F) ^ k[7]];
  return f;
}

u64 crypt_fast(u64 block, const des_schedule& s, bool decrypt) noexcept {
  halves h = ip_split(block);
  for (int round = 0; round < 16; ++round) {
    const auto& k = s.k6[static_cast<std::size_t>(decrypt ? 15 - round : round)];
    const u32 next_r = h.l ^ feistel_sp(h.r, k);
    h.l = h.r;
    h.r = next_r;
  }
  // Final swap: the standard applies FP to (R16, L16).
  return fp_join(h.r, h.l);
}

// Two-tier split for a bulk block run: the leading wide_prefix() blocks go
// through the bitsliced lane groups (only groups wide enough to beat the
// scalar SP tables on this host — see k_min_wide_blocks), the tail runs
// scalar. Tuned with tab2_cipher_cores' host-MB/s table; DES and 3DES
// share the crossover because the wide path amortizes its transposes over
// 16 and 48 rounds alike while both tiers scale with the round count.
template <typename Scalar>
void crypt_blocks_tiered(std::span<const bitslice::des_pass> passes, std::span<const u8> in,
                         std::span<u8> out, Scalar&& scalar_one) {
  std::size_t off = bitslice::wide_prefix(in.size() / 8) * 8;
  if (off != 0) bitslice::des_crypt_wide(passes, in.first(off), out.first(off));
  for (; off < in.size(); off += 8)
    store_be64(out.data() + off, scalar_one(load_be64(in.data() + off)));
}

std::span<const u8> subkey_bytes(std::span<const u8> key, std::size_t index) {
  return key.subspan(index * 8, 8);
}

} // namespace

des::des(std::span<const u8> key) {
  if (key.size() != 8) throw std::invalid_argument("des: key must be 8 bytes");
  schedule_ = make_schedule(load_be64(key.data()));
}

u64 des::encrypt_u64(u64 block) const noexcept { return crypt_fast(block, schedule_, false); }
u64 des::decrypt_u64(u64 block) const noexcept { return crypt_fast(block, schedule_, true); }

void des::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  store_be64(out.data(), encrypt_u64(load_be64(in.data())));
}

void des::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  store_be64(out.data(), decrypt_u64(load_be64(in.data())));
}

void des::encrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  const bitslice::des_pass pass{&schedule_, false};
  crypt_blocks_tiered({&pass, 1}, in, out,
                      [this](u64 x) { return encrypt_u64(x); });
}

void des::decrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  const bitslice::des_pass pass{&schedule_, true};
  crypt_blocks_tiered({&pass, 1}, in, out,
                      [this](u64 x) { return decrypt_u64(x); });
}

triple_des::triple_des(std::span<const u8> key)
    : k1_(key.size() == 16 || key.size() == 24
              ? subkey_bytes(key, 0)
              : throw std::invalid_argument("3des: key must be 16 or 24 bytes")),
      k2_(subkey_bytes(key, 1)),
      k3_(subkey_bytes(key, key.size() == 24 ? 2 : 0)) {}

void triple_des::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  const u64 x = load_be64(in.data());
  store_be64(out.data(), k3_.encrypt_u64(k2_.decrypt_u64(k1_.encrypt_u64(x))));
}

void triple_des::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  const u64 x = load_be64(in.data());
  store_be64(out.data(), k1_.decrypt_u64(k2_.encrypt_u64(k3_.decrypt_u64(x))));
}

void triple_des::encrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  const bitslice::des_pass passes[3] = {{&k1_.schedule(), false},
                                        {&k2_.schedule(), true},
                                        {&k3_.schedule(), false}};
  crypt_blocks_tiered(passes, in, out, [this](u64 x) {
    return k3_.encrypt_u64(k2_.decrypt_u64(k1_.encrypt_u64(x)));
  });
}

void triple_des::decrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  const bitslice::des_pass passes[3] = {{&k3_.schedule(), true},
                                        {&k2_.schedule(), false},
                                        {&k1_.schedule(), true}};
  crypt_blocks_tiered(passes, in, out, [this](u64 x) {
    return k1_.decrypt_u64(k2_.encrypt_u64(k3_.decrypt_u64(x)));
  });
}

// ---------------------------------------------------------------------------
// Retained reference implementation (oracle for the fast paths).
// ---------------------------------------------------------------------------

namespace {

// The Feistel f-function exactly as printed: expand R to 48 bits, XOR the
// round key, run the 8 S-boxes, then the P permutation.
u32 feistel_reference(u32 r, u64 subkey) noexcept {
  const u64 expanded = permute(u64{r}, k_e, 32) ^ subkey;
  u32 sboxed = 0;
  for (int box = 0; box < 8; ++box) {
    const auto six = static_cast<u32>((expanded >> (42 - 6 * box)) & 0x3F);
    sboxed = (sboxed << 4) | sbox_at(box, six);
  }
  return static_cast<u32>(permute(u64{sboxed}, k_p, 32));
}

u64 crypt_reference(u64 block, const std::array<u64, 16>& subkeys, bool decrypt) noexcept {
  const u64 permuted = permute(block, k_ip, 64);
  u32 l = static_cast<u32>(permuted >> 32);
  u32 r = static_cast<u32>(permuted);
  for (int round = 0; round < 16; ++round) {
    const u64 k = subkeys[static_cast<std::size_t>(decrypt ? 15 - round : round)];
    const u32 next_r = l ^ feistel_reference(r, k);
    l = r;
    r = next_r;
  }
  const u64 preoutput = (u64{r} << 32) | u64{l};
  return permute(preoutput, k_fp, 64);
}

} // namespace

des_reference::des_reference(std::span<const u8> key) {
  if (key.size() != 8) throw std::invalid_argument("des: key must be 8 bytes");
  const u64 k = load_be64(key.data());
  u64 cd = permute(k, k_pc1, 64); // 56 bits: C (28) || D (28)
  u32 c = static_cast<u32>(cd >> 28) & 0x0FFFFFFF;
  u32 d = static_cast<u32>(cd) & 0x0FFFFFFF;
  for (int round = 0; round < 16; ++round) {
    const unsigned s = k_shifts[static_cast<std::size_t>(round)];
    c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
    d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
    const u64 merged = (u64{c} << 28) | u64{d};
    subkeys_[static_cast<std::size_t>(round)] = permute(merged, k_pc2, 56);
  }
}

u64 des_reference::encrypt_u64(u64 block) const noexcept {
  return crypt_reference(block, subkeys_, false);
}
u64 des_reference::decrypt_u64(u64 block) const noexcept {
  return crypt_reference(block, subkeys_, true);
}

void des_reference::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  store_be64(out.data(), encrypt_u64(load_be64(in.data())));
}

void des_reference::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  store_be64(out.data(), decrypt_u64(load_be64(in.data())));
}

triple_des_reference::triple_des_reference(std::span<const u8> key)
    : k1_(key.size() == 16 || key.size() == 24
              ? subkey_bytes(key, 0)
              : throw std::invalid_argument("3des: key must be 16 or 24 bytes")),
      k2_(subkey_bytes(key, 1)),
      k3_(subkey_bytes(key, key.size() == 24 ? 2 : 0)) {}

void triple_des_reference::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  const u64 x = load_be64(in.data());
  store_be64(out.data(), k3_.encrypt_u64(k2_.decrypt_u64(k1_.encrypt_u64(x))));
}

void triple_des_reference::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  const u64 x = load_be64(in.data());
  store_be64(out.data(), k1_.decrypt_u64(k2_.encrypt_u64(k3_.decrypt_u64(x))));
}

} // namespace buscrypt::crypto
