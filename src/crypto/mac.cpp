#include "crypto/mac.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::crypto {

hmac_key::hmac_key(std::span<const u8> key) noexcept {
  std::array<u8, sha256::block_size> k_block{};
  if (key.size() > k_block.size()) {
    const auto digest = sha256::hash(key);
    std::copy(digest.begin(), digest.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }

  std::array<u8, sha256::block_size> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = static_cast<u8>(k_block[i] ^ 0x36);
  inner_.update(pad);
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = static_cast<u8>(k_block[i] ^ 0x5c);
  outer_.update(pad);
}

void hmac_key::tag_into(std::initializer_list<std::span<const u8>> parts,
                        std::span<u8> out) const {
  if (out.empty() || out.size() > sha256::digest_size)
    throw std::invalid_argument("hmac tag length must be 1..32");
  sha256 inner = inner_;
  for (const std::span<const u8> p : parts) inner.update(p);
  const auto inner_digest = inner.digest();
  sha256 outer = outer_;
  outer.update(inner_digest);
  const auto full = outer.digest();
  std::copy_n(full.begin(), out.size(), out.begin());
}

bytes hmac_key::tag(std::initializer_list<std::span<const u8>> parts, std::size_t len) const {
  bytes out(len);
  tag_into(parts, out);
  return out;
}

std::array<u8, 32> hmac_sha256(std::span<const u8> key, std::span<const u8> data) {
  std::array<u8, 32> out{};
  hmac_key(key).tag_into({data}, out);
  return out;
}

bytes hmac_sha256_tag(std::span<const u8> key, std::span<const u8> data,
                      std::size_t tag_len) {
  return hmac_key(key).tag({data}, tag_len);
}

bytes cbc_mac(const block_cipher& c, std::span<const u8> data) {
  const std::size_t bs = c.block_size();
  if (data.size() % bs != 0)
    throw std::invalid_argument("cbc_mac: message must be block-multiple");
  bytes state(bs, 0);
  bytes scratch(bs);
  for (std::size_t off = 0; off < data.size(); off += bs) {
    for (std::size_t i = 0; i < bs; ++i) scratch[i] = static_cast<u8>(state[i] ^ data[off + i]);
    c.encrypt_block(scratch, state);
  }
  return state;
}

bool tag_equal(std::span<const u8> a, std::span<const u8> b) noexcept {
  if (a.size() != b.size()) return false;
  u8 acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<u8>(a[i] ^ b[i]);
  return acc == 0;
}

} // namespace buscrypt::crypto
