#pragma once
/// \file mac.hpp
/// Message authentication: HMAC-SHA256 (RFC 2104) and block-cipher CBC-MAC.
/// The General Instrument engine (Fig. 5) "offer[s] the possibility to
/// authenticate the data coming from external memory thanks to a keyed hash
/// algorithm" — gi_edu uses these as that keyed hash.

#include "crypto/block_cipher.hpp"
#include "crypto/sha256.hpp"

#include <array>
#include <initializer_list>

namespace buscrypt::crypto {

/// A prepared HMAC-SHA256 key (RFC 2104): the inner and outer SHA-256
/// midstates after absorbing key^ipad and key^opad. Build one per keyed
/// owner and reuse it: every tag then costs the message blocks plus one
/// outer block, with no per-call key padding and no allocation. Immutable
/// after construction, so one instance may be shared across threads.
class hmac_key {
 public:
  /// \param key any length; keys longer than a block are hashed first.
  explicit hmac_key(std::span<const u8> key) noexcept;

  /// Write the first out.size() bytes of HMAC(key, parts[0] || parts[1] ||
  /// ...) to \p out — the message is hashed part by part, never copied.
  /// \throws std::invalid_argument unless 1 <= out.size() <= 32.
  void tag_into(std::initializer_list<std::span<const u8>> parts, std::span<u8> out) const;

  /// tag_into() a fresh \p len-byte buffer (for owners that store tags).
  [[nodiscard]] bytes tag(std::initializer_list<std::span<const u8>> parts,
                          std::size_t len) const;

 private:
  sha256 inner_;
  sha256 outer_;
};

/// HMAC-SHA256 over \p data with \p key (any length).
[[nodiscard]] std::array<u8, 32> hmac_sha256(std::span<const u8> key,
                                             std::span<const u8> data);

/// Truncated HMAC tag of \p tag_len bytes (hardware engines store short
/// per-line tags; 4-8 bytes is typical).
[[nodiscard]] bytes hmac_sha256_tag(std::span<const u8> key,
                                    std::span<const u8> data,
                                    std::size_t tag_len);

/// Classic CBC-MAC with zero IV over a block-multiple message. Only safe
/// for fixed-length messages — which per-cache-line tags are.
[[nodiscard]] bytes cbc_mac(const block_cipher& c, std::span<const u8> data);

/// Constant-time tag comparison.
[[nodiscard]] bool tag_equal(std::span<const u8> a, std::span<const u8> b) noexcept;

} // namespace buscrypt::crypto
