#include "crypto/sha256.hpp"

#include "common/bitops.hpp"

#include <algorithm>

namespace buscrypt::crypto {

namespace detail {

const u32 sha256_round_constants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

#if defined(BUSCRYPT_SHA_NI)
void sha256_compress_shani(u32* state, const u8* data, std::size_t blocks) noexcept;
#endif

void sha256_compress_scalar(u32* state, const u8* data, std::size_t blocks) noexcept {
  for (; blocks != 0; --blocks, data += sha256::block_size) {
    u32 w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const u32 s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const u32 s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    u32 a = state[0], b = state[1], c = state[2], d = state[3];
    u32 e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const u32 s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const u32 ch = (e & f) ^ (~e & g);
      const u32 t1 = h + s1 + ch + sha256_round_constants[i] + w[i];
      const u32 s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const u32 maj = (a & b) ^ (a & c) ^ (b & c);
      const u32 t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

sha256_compress_fn sha256_shani_kernel() noexcept {
#if defined(BUSCRYPT_SHA_NI) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return &sha256_compress_shani;
#endif
  return nullptr;
}

} // namespace detail

namespace {

detail::sha256_compress_fn host_compress() noexcept {
  static const detail::sha256_compress_fn fn = [] {
    const detail::sha256_compress_fn ni = detail::sha256_shani_kernel();
    return ni != nullptr ? ni : &detail::sha256_compress_scalar;
  }();
  return fn;
}

} // namespace

void sha256::reset() noexcept {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void sha256::compress(const u8* data, std::size_t blocks) noexcept {
  host_compress()(h_.data(), data, blocks);
}

void sha256::update(std::span<const u8> data) noexcept {
  total_len_ += data.size();
  const u8* p = data.data();
  std::size_t n = data.size();
  if (buf_len_ != 0) {
    const std::size_t take = std::min(n, block_size - buf_len_);
    std::copy_n(p, take, buf_.data() + buf_len_);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < block_size) return;
    compress(buf_.data(), 1);
    buf_len_ = 0;
  }
  if (const std::size_t whole = n / block_size; whole != 0) {
    compress(p, whole);
    p += whole * block_size;
    n -= whole * block_size;
  }
  std::copy_n(p, n, buf_.data());
  buf_len_ = n;
}

std::array<u8, sha256::digest_size> sha256::digest() noexcept {
  // Pad in place: 0x80, zeros up to byte 56 of a block, the 64-bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > block_size - 8) {
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end(), u8{0});
    compress(buf_.data(), 1);
    buf_len_ = 0;
  }
  std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end() - 8, u8{0});
  store_be64(buf_.data() + block_size - 8, total_len_ * 8);
  compress(buf_.data(), 1);

  std::array<u8, digest_size> out{};
  for (int i = 0; i < 8; ++i) store_be32(&out[static_cast<std::size_t>(4 * i)], h_[static_cast<std::size_t>(i)]);
  return out;
}

std::array<u8, sha256::digest_size> sha256::hash(std::span<const u8> data) noexcept {
  sha256 ctx;
  ctx.update(data);
  return ctx.digest();
}

} // namespace buscrypt::crypto
