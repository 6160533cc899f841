#include "crypto/aes.hpp"

#include "common/bitops.hpp"

#include <stdexcept>

namespace buscrypt::crypto {

namespace {

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1.
// ---------------------------------------------------------------------------

constexpr u8 xtime(u8 x) noexcept {
  return static_cast<u8>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

constexpr u8 gmul(u8 a, u8 b) noexcept {
  u8 p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// Multiplicative inverse via a^254 (Fermat in GF(2^8)); inv(0) := 0.
constexpr u8 ginv(u8 a) noexcept {
  u8 r = 1;
  for (int i = 0; i < 254; ++i) r = gmul(r, a);
  return r;
}

constexpr std::array<u8, 256> make_sbox() noexcept {
  std::array<u8, 256> s{};
  for (int i = 0; i < 256; ++i) {
    const u8 x = ginv(static_cast<u8>(i));
    // Affine transform: b ^ rotl(b,1..4) ^ 0x63 over GF(2) bit vectors.
    u8 y = static_cast<u8>(x ^ ((x << 1) | (x >> 7)) ^ ((x << 2) | (x >> 6)) ^
                           ((x << 3) | (x >> 5)) ^ ((x << 4) | (x >> 4)) ^ 0x63);
    s[static_cast<std::size_t>(i)] = y;
  }
  return s;
}

constexpr std::array<u8, 256> k_sbox = make_sbox();

constexpr std::array<u8, 256> make_inv_sbox() noexcept {
  std::array<u8, 256> inv{};
  for (int i = 0; i < 256; ++i) inv[k_sbox[static_cast<std::size_t>(i)]] = static_cast<u8>(i);
  return inv;
}

constexpr std::array<u8, 256> k_inv_sbox = make_inv_sbox();

static_assert(k_sbox[0x00] == 0x63, "AES S-box sanity");
static_assert(k_sbox[0x53] == 0xED, "AES S-box sanity");
static_assert(k_inv_sbox[0x63] == 0x00, "AES inverse S-box sanity");

constexpr u32 sub_word(u32 w) noexcept {
  return (u32{k_sbox[(w >> 24) & 0xFF]} << 24) | (u32{k_sbox[(w >> 16) & 0xFF]} << 16) |
         (u32{k_sbox[(w >> 8) & 0xFF]} << 8) | u32{k_sbox[w & 0xFF]};
}

constexpr u32 rot_word(u32 w) noexcept { return rotl32(w, 8); }

// ---------------------------------------------------------------------------
// T-tables: SubBytes + ShiftRows' byte routing + MixColumns fused into one
// lookup per input byte. Table for row r is rotr(T0, 8r), computed at the
// lookup, so only the two 1 KiB base tables live in the binary. Derived at
// compile time from the same S-box/GF helpers as the reference rounds.
// ---------------------------------------------------------------------------

// Encrypt base table: MixColumns column 0 = (2, 1, 1, 3) of S[x].
constexpr std::array<u32, 256> make_te0() noexcept {
  std::array<u32, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const u8 s = k_sbox[static_cast<std::size_t>(i)];
    t[static_cast<std::size_t>(i)] = (u32{gmul(s, 2)} << 24) | (u32{s} << 16) |
                                     (u32{s} << 8) | u32{gmul(s, 3)};
  }
  return t;
}

// Decrypt base table: InvMixColumns column 0 = (14, 9, 13, 11) of InvS[x].
constexpr std::array<u32, 256> make_td0() noexcept {
  std::array<u32, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const u8 s = k_inv_sbox[static_cast<std::size_t>(i)];
    t[static_cast<std::size_t>(i)] = (u32{gmul(s, 14)} << 24) | (u32{gmul(s, 9)} << 16) |
                                     (u32{gmul(s, 13)} << 8) | u32{gmul(s, 11)};
  }
  return t;
}

constexpr std::array<u32, 256> k_te0 = make_te0();
constexpr std::array<u32, 256> k_td0 = make_td0();

constexpr u32 rotr32c(u32 x, unsigned n) noexcept { return (x >> n) | (x << (32 - n)); }

// One fused encrypt-round column: inputs are the state columns holding this
// output column's row-0..3 bytes after ShiftRows.
inline u32 te_col(u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
  return k_te0[(r0 >> 24) & 0xFF] ^ rotr32c(k_te0[(r1 >> 16) & 0xFF], 8) ^
         rotr32c(k_te0[(r2 >> 8) & 0xFF], 16) ^ rotr32c(k_te0[r3 & 0xFF], 24);
}

inline u32 td_col(u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
  return k_td0[(r0 >> 24) & 0xFF] ^ rotr32c(k_td0[(r1 >> 16) & 0xFF], 8) ^
         rotr32c(k_td0[(r2 >> 8) & 0xFF], 16) ^ rotr32c(k_td0[r3 & 0xFF], 24);
}

// InvMixColumns over one packed big-endian column word — used to derive the
// equivalent-inverse-cipher round keys at schedule time. Td0[S[x]] is the
// (14, 9, 13, 11)·x column, so four lookups replace the GF multiplies.
constexpr u32 inv_mix_word(u32 w) noexcept {
  return k_td0[k_sbox[(w >> 24) & 0xFF]] ^ rotr32c(k_td0[k_sbox[(w >> 16) & 0xFF]], 8) ^
         rotr32c(k_td0[k_sbox[(w >> 8) & 0xFF]], 16) ^ rotr32c(k_td0[k_sbox[w & 0xFF]], 24);
}

static_assert(inv_mix_word(0x01000000u) == 0x0E090D0Bu, "InvMixColumns unit column");
static_assert(inv_mix_word(0x8E4DA1BCu) == 0xDB135345u, "InvMixColumns inverts MixColumns");

aes_bits bits_from_key_len(std::size_t n) {
  switch (n) {
    case 16: return aes_bits::k128;
    case 24: return aes_bits::k192;
    case 32: return aes_bits::k256;
    default: throw std::invalid_argument("aes: key must be 16, 24 or 32 bytes");
  }
}

} // namespace

aes::aes(std::span<const u8> key) : aes(key, bits_from_key_len(key.size())) {}

aes::aes(std::span<const u8> key, aes_bits bits) {
  nk_ = static_cast<int>(bits) / 32;
  nr_ = nk_ + 6;
  if (key.size() != static_cast<std::size_t>(nk_) * 4)
    throw std::invalid_argument("aes: key length disagrees with requested width");

  const int total = 4 * (nr_ + 1);
  for (int i = 0; i < nk_; ++i)
    round_keys_[static_cast<std::size_t>(i)] = load_be32(&key[static_cast<std::size_t>(4 * i)]);

  u32 rcon = 0x01;
  for (int i = nk_; i < total; ++i) {
    u32 temp = round_keys_[static_cast<std::size_t>(i - 1)];
    if (i % nk_ == 0) {
      temp = sub_word(rot_word(temp)) ^ (rcon << 24);
      rcon = gmul(static_cast<u8>(rcon), 2);
    } else if (nk_ > 6 && i % nk_ == 4) {
      temp = sub_word(temp);
    }
    round_keys_[static_cast<std::size_t>(i)] =
        round_keys_[static_cast<std::size_t>(i - nk_)] ^ temp;
  }

  // Equivalent inverse cipher: decryption consumes the schedule backwards
  // with InvMixColumns applied to the inner round keys, so the T-table
  // rounds serve both directions.
  for (int j = 0; j < 4; ++j)
    dec_round_keys_[static_cast<std::size_t>(j)] =
        round_keys_[static_cast<std::size_t>(4 * nr_ + j)];
  for (int round = 1; round < nr_; ++round)
    for (int j = 0; j < 4; ++j)
      dec_round_keys_[static_cast<std::size_t>(4 * round + j)] =
          inv_mix_word(round_keys_[static_cast<std::size_t>(4 * (nr_ - round) + j)]);
  for (int j = 0; j < 4; ++j)
    dec_round_keys_[static_cast<std::size_t>(4 * nr_ + j)] =
        round_keys_[static_cast<std::size_t>(j)];
}

std::string_view aes::name() const noexcept {
  switch (nr_) {
    case 10: return "AES-128";
    case 12: return "AES-192";
    default: return "AES-256";
  }
}

// ---------------------------------------------------------------------------
// T-table block kernels.
// ---------------------------------------------------------------------------

namespace {

void encrypt_ttable(const u32* schedule, int nr, const u8* in, u8* out,
                    std::size_t blocks) noexcept {
  // Final round: SubBytes + ShiftRows only (no MixColumns).
  auto last = [](u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
    return (u32{k_sbox[(r0 >> 24) & 0xFF]} << 24) |
           (u32{k_sbox[(r1 >> 16) & 0xFF]} << 16) |
           (u32{k_sbox[(r2 >> 8) & 0xFF]} << 8) | u32{k_sbox[r3 & 0xFF]};
  };
  for (; blocks != 0; --blocks, in += 16, out += 16) {
    const u32* rk = schedule;
    u32 c0 = load_be32(in) ^ rk[0];
    u32 c1 = load_be32(in + 4) ^ rk[1];
    u32 c2 = load_be32(in + 8) ^ rk[2];
    u32 c3 = load_be32(in + 12) ^ rk[3];

    for (int round = 1; round < nr; ++round) {
      rk += 4;
      const u32 t0 = te_col(c0, c1, c2, c3) ^ rk[0];
      const u32 t1 = te_col(c1, c2, c3, c0) ^ rk[1];
      const u32 t2 = te_col(c2, c3, c0, c1) ^ rk[2];
      const u32 t3 = te_col(c3, c0, c1, c2) ^ rk[3];
      c0 = t0;
      c1 = t1;
      c2 = t2;
      c3 = t3;
    }
    rk += 4;
    store_be32(out, last(c0, c1, c2, c3) ^ rk[0]);
    store_be32(out + 4, last(c1, c2, c3, c0) ^ rk[1]);
    store_be32(out + 8, last(c2, c3, c0, c1) ^ rk[2]);
    store_be32(out + 12, last(c3, c0, c1, c2) ^ rk[3]);
  }
}

void decrypt_ttable(const u32* schedule, int nr, const u8* in, u8* out,
                    std::size_t blocks) noexcept {
  auto last = [](u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
    return (u32{k_inv_sbox[(r0 >> 24) & 0xFF]} << 24) |
           (u32{k_inv_sbox[(r1 >> 16) & 0xFF]} << 16) |
           (u32{k_inv_sbox[(r2 >> 8) & 0xFF]} << 8) | u32{k_inv_sbox[r3 & 0xFF]};
  };
  for (; blocks != 0; --blocks, in += 16, out += 16) {
    const u32* rk = schedule;
    u32 c0 = load_be32(in) ^ rk[0];
    u32 c1 = load_be32(in + 4) ^ rk[1];
    u32 c2 = load_be32(in + 8) ^ rk[2];
    u32 c3 = load_be32(in + 12) ^ rk[3];

    // InvShiftRows routes row r of output column j from column (j - r) mod 4.
    for (int round = 1; round < nr; ++round) {
      rk += 4;
      const u32 t0 = td_col(c0, c3, c2, c1) ^ rk[0];
      const u32 t1 = td_col(c1, c0, c3, c2) ^ rk[1];
      const u32 t2 = td_col(c2, c1, c0, c3) ^ rk[2];
      const u32 t3 = td_col(c3, c2, c1, c0) ^ rk[3];
      c0 = t0;
      c1 = t1;
      c2 = t2;
      c3 = t3;
    }
    rk += 4;
    store_be32(out, last(c0, c3, c2, c1) ^ rk[0]);
    store_be32(out + 4, last(c1, c0, c3, c2) ^ rk[1]);
    store_be32(out + 8, last(c2, c1, c0, c3) ^ rk[2]);
    store_be32(out + 12, last(c3, c2, c1, c0) ^ rk[3]);
  }
}

// The host's kernels, chosen once: AES-NI when the build and CPU have it.
const detail::aes_kernels& host_kernels() noexcept {
  static const detail::aes_kernels k = [] {
    const detail::aes_kernels ni = detail::aes_ni_kernels();
    return ni.encrypt != nullptr ? ni : detail::aes_ttable_kernels();
  }();
  return k;
}

} // namespace

namespace detail {

#if defined(BUSCRYPT_AES_NI)
void aes_ni_encrypt(const u32* rk, int nr, const u8* in, u8* out, std::size_t blocks) noexcept;
void aes_ni_decrypt(const u32* rk, int nr, const u8* in, u8* out, std::size_t blocks) noexcept;
#endif

aes_kernels aes_ttable_kernels() noexcept { return {&encrypt_ttable, &decrypt_ttable}; }

aes_kernels aes_ni_kernels() noexcept {
#if defined(BUSCRYPT_AES_NI) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3"))
    return {&aes_ni_encrypt, &aes_ni_decrypt};
#endif
  return {};
}

} // namespace detail

void aes::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  host_kernels().encrypt(round_keys_.data(), nr_, in.data(), out.data(), 1);
}

void aes::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  host_kernels().decrypt(dec_round_keys_.data(), nr_, in.data(), out.data(), 1);
}

void aes::encrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  host_kernels().encrypt(round_keys_.data(), nr_, in.data(), out.data(), in.size() / 16);
}

void aes::decrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  host_kernels().decrypt(dec_round_keys_.data(), nr_, in.data(), out.data(), in.size() / 16);
}

} // namespace buscrypt::crypto
