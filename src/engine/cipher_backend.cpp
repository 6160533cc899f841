#include "engine/cipher_backend.hpp"

#include "common/bitops.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "crypto/lfsr.hpp"
#include "crypto/modes.hpp"
#include "crypto/rc4.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace buscrypt::engine {

namespace {

/// Constant nonce folded into every CTR counter block; the uniqueness of
/// the keystream comes from the globally-unique counter, not the nonce.
constexpr u64 k_ctr_tweak = 0x42E5'C0DE'0D1E'5EEDULL;

void check_unit(std::size_t granule, std::span<const u8> in, std::span<const u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("keyed_cipher: in/out size mismatch");
  if (granule != 0 && in.size() % granule != 0)
    throw std::invalid_argument("keyed_cipher: unit not a multiple of the cipher granule");
}

void check_units(std::size_t unit_len, std::span<const u8> in, std::span<const u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("keyed_cipher: in/out size mismatch");
  if (unit_len == 0 || in.size() % unit_len != 0)
    throw std::invalid_argument("keyed_cipher: run must be whole units");
}

/// Keyed block cipher + mode over data units. Owns its expanded core: a
/// programmed keyslot *is* the expanded key, so nothing else shares it.
class block_keyed final : public keyed_cipher {
 public:
  block_keyed(std::string name, unit_mode mode, backend_cost cost,
              std::unique_ptr<const crypto::block_cipher> cipher)
      : name_(std::move(name)), mode_(mode), cost_(cost), cipher_(std::move(cipher)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t granule() const noexcept override {
    // CTR is a stream mode: any byte length goes.
    return mode_ == unit_mode::ctr ? 1 : cipher_->block_size();
  }

  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    crypt(dun, in, out, /*encrypt=*/true);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    crypt(dun, in, out, /*encrypt=*/false);
  }

  void encrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    check_units(unit_len, in, out);
    switch (mode_) {
      case unit_mode::ecb:
        // Unit boundaries don't matter without an IV: one bulk pass.
        check_unit(granule(), in, out);
        cipher_->encrypt_blocks(in, out);
        break;
      case unit_mode::ctr:
        ctr_units(first_dun, unit_len, in, out);
        break;
      case unit_mode::cbc:
        // Encryption chains serially within each unit; nothing to widen.
        keyed_cipher::encrypt_units(first_dun, unit_len, in, out);
        break;
    }
  }

  void decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    check_units(unit_len, in, out);
    switch (mode_) {
      case unit_mode::ecb:
        check_unit(granule(), in, out);
        cipher_->decrypt_blocks(in, out);
        break;
      case unit_mode::ctr:
        ctr_units(first_dun, unit_len, in, out); // XOR pad: decrypt == encrypt
        break;
      case unit_mode::cbc:
        cbc_decrypt_units(first_dun, unit_len, in, out);
        break;
    }
  }

  [[nodiscard]] cycles unit_cost(std::size_t nbytes, bool encrypt) const noexcept override {
    return cost_.time(nbytes, encrypt);
  }

  [[nodiscard]] bool pad_precomputable() const noexcept override {
    return mode_ == unit_mode::ctr;
  }

  void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) override {
    if (mode_ != unit_mode::ctr) { // fall back to the zero-encipher default
      keyed_cipher::generate_pads(first_dun, unit_len, out);
      return;
    }
    if (unit_len == 0 || out.size() % unit_len != 0)
      throw std::invalid_argument("generate_pads: out must be whole units");
    fill_ctr_pads(first_dun, unit_len, out);
  }

 private:
  /// CTR pad fill for a run of units: build every counter block of the run,
  /// encrypt them all in one bulk call (a whole bitsliced batch for the DES
  /// cores), then lay the pads out per unit. Same bytes ctr_crypt produces.
  void fill_ctr_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) {
    const std::size_t bs = cipher_->block_size();
    const std::size_t nunits = out.size() / unit_len;
    const std::size_t bpu = (unit_len + bs - 1) / bs; // counter blocks per unit
    const bool aligned = unit_len % bs == 0;
    bytes scratch;
    std::span<u8> work = out;
    if (!aligned) {
      scratch.resize(nunits * bpu * bs);
      work = scratch;
    }
    std::size_t w = 0;
    for (std::size_t u = 0; u < nunits; ++u) {
      u64 ctr = (first_dun + u) << 16;
      for (std::size_t b = 0; b < bpu; ++b, ++ctr, w += bs) {
        u8* cb = work.data() + w;
        std::fill(cb, cb + bs, u8{0});
        if (bs >= 16) {
          store_be64(cb, k_ctr_tweak);
          store_be64(cb + bs - 8, ctr);
        } else {
          store_be64(cb, k_ctr_tweak ^ ctr);
        }
      }
    }
    cipher_->encrypt_blocks(work, work);
    if (!aligned)
      for (std::size_t u = 0; u < nunits; ++u)
        std::copy_n(work.begin() + static_cast<std::ptrdiff_t>(u * bpu * bs), unit_len,
                    out.begin() + static_cast<std::ptrdiff_t>(u * unit_len));
  }

  /// CTR unit run: one bulk pad fill for the whole window, then a u64-wide
  /// XOR against the payload (encrypt and decrypt are the same operation).
  void ctr_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                 std::span<u8> out) {
    bytes pads(in.size());
    fill_ctr_pads(first_dun, unit_len, pads);
    xor_bytes(out, in, pads);
  }

  /// CBC decryption over a unit run: ESSIV IVs for every unit derived in
  /// one bulk encrypt, the whole window block-decrypted in one bulk call
  /// (where the bitsliced DES path lives), then the per-unit chain applied
  /// u64-wide. Byte-identical to per-unit cbc_decrypt.
  void cbc_decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                         std::span<u8> out) {
    const std::size_t bs = cipher_->block_size();
    if (unit_len % bs != 0)
      throw std::invalid_argument("keyed_cipher: unit not a multiple of the cipher granule");
    if (in.empty()) return;
    const std::size_t nunits = in.size() / unit_len;
    bytes ivs(nunits * bs, 0);
    for (std::size_t u = 0; u < nunits; ++u)
      store_le64(ivs.data() + u * bs, first_dun + u);
    cipher_->encrypt_blocks(ivs, ivs);
    const bytes ct(in.begin(), in.end()); // in/out may alias; chain needs ct
    cipher_->decrypt_blocks(ct, out);
    for (std::size_t u = 0; u < nunits; ++u) {
      const std::size_t base = u * unit_len;
      xor_bytes(out.subspan(base, bs), std::span<const u8>(ivs).subspan(u * bs, bs));
      if (unit_len > bs)
        xor_bytes(out.subspan(base + bs, unit_len - bs),
                  std::span<const u8>(ct).subspan(base, unit_len - bs));
    }
  }

  void crypt(u64 dun, std::span<const u8> in, std::span<u8> out, bool encrypt) {
    check_unit(granule(), in, out);
    switch (mode_) {
      case unit_mode::ecb:
        encrypt ? crypto::ecb_encrypt(*cipher_, in, out)
                : crypto::ecb_decrypt(*cipher_, in, out);
        break;
      case unit_mode::cbc: {
        // ESSIV-style address IV: IV = E_K(DUN), so equal plaintext units
        // at different addresses produce unrelated ciphertext.
        bytes iv(cipher_->block_size(), 0);
        store_le64(iv.data(), dun);
        cipher_->encrypt_block(iv, iv);
        encrypt ? crypto::cbc_encrypt(*cipher_, iv, in, out)
                : crypto::cbc_decrypt(*cipher_, iv, in, out);
        break;
      }
      case unit_mode::ctr: {
        // A globally-unique counter per cipher block: units may be any
        // size up to 2^16 blocks without keystream reuse.
        const u64 ctr0 = dun << 16;
        crypto::ctr_crypt(*cipher_, k_ctr_tweak, ctr0, in, out);
        break;
      }
    }
  }

  std::string name_; // owned: keyed instances outlive their backend in keyslots
  unit_mode mode_;
  backend_cost cost_;
  std::unique_ptr<const crypto::block_cipher> cipher_;
};

/// Keyed stream cipher: reseed(key, DUN-iv) per unit.
class stream_keyed final : public keyed_cipher {
 public:
  stream_keyed(std::string name, backend_cost cost, bytes key, stream_backend::factory make)
      : name_(std::move(name)), cost_(cost), key_(std::move(key)), make_(std::move(make)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t granule() const noexcept override { return 1; }

  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    crypt(dun, in, out);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    crypt(dun, in, out);
  }

  [[nodiscard]] cycles unit_cost(std::size_t nbytes, bool encrypt) const noexcept override {
    return cost_.time(nbytes, encrypt);
  }

  [[nodiscard]] bool pad_precomputable() const noexcept override { return true; }

  void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) override {
    // Bulk keystream: one reseed per unit, generated straight into the
    // batch pad buffer — no per-unit copy + XOR round trip.
    u8 iv[8];
    for (std::size_t uoff = 0; uoff < out.size(); uoff += unit_len) {
      store_le64(iv, first_dun + uoff / unit_len);
      if (!gen_) gen_ = make_(key_, iv);
      else gen_->reseed(key_, iv);
      gen_->keystream(out.subspan(uoff, unit_len));
    }
  }

 private:
  void crypt(u64 dun, std::span<const u8> in, std::span<u8> out) {
    check_unit(1, in, out);
    u8 iv[8];
    store_le64(iv, dun);
    if (!gen_) gen_ = make_(key_, iv);
    else gen_->reseed(key_, iv);
    std::copy(in.begin(), in.end(), out.begin());
    gen_->apply(out);
  }

  std::string name_; // owned: see block_keyed
  backend_cost cost_;
  bytes key_;
  stream_backend::factory make_;
  std::unique_ptr<crypto::stream_cipher> gen_;
};

} // namespace

// --- keyed_cipher -----------------------------------------------------------

void keyed_cipher::encrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                                 std::span<u8> out) {
  check_units(unit_len, in, out);
  for (std::size_t off = 0; off < in.size(); off += unit_len)
    encrypt_unit(first_dun + off / unit_len, in.subspan(off, unit_len),
                 out.subspan(off, unit_len));
}

void keyed_cipher::decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                                 std::span<u8> out) {
  check_units(unit_len, in, out);
  for (std::size_t off = 0; off < in.size(); off += unit_len)
    decrypt_unit(first_dun + off / unit_len, in.subspan(off, unit_len),
                 out.subspan(off, unit_len));
}

void keyed_cipher::generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) {
  // Exact for any XOR-pad cipher: pad == E(0). Non-pad modes never call
  // this (pad_precomputable() is the caller's gate).
  if (unit_len == 0 || out.size() % unit_len != 0)
    throw std::invalid_argument("generate_pads: out must be whole units");
  const bytes zeros(unit_len, 0);
  for (std::size_t off = 0; off < out.size(); off += unit_len)
    encrypt_unit(first_dun + off / unit_len, zeros, out.subspan(off, unit_len));
}

// --- block_backend ----------------------------------------------------------

block_backend::block_backend(std::string name, unit_mode mode, backend_cost cost,
                             std::vector<std::size_t> key_lens, factory make)
    : name_(std::move(name)), mode_(mode), cost_(cost),
      key_lens_(std::move(key_lens)), make_(std::move(make)) {}

bool block_backend::key_len_ok(std::size_t len) const noexcept {
  return std::find(key_lens_.begin(), key_lens_.end(), len) != key_lens_.end();
}

std::size_t block_backend::max_data_unit_size() const noexcept {
  // CTR reserves 2^16 counter values per DUN; a larger unit would reuse
  // keystream across adjacent units (the pad_reuse break).
  return mode_ == unit_mode::ctr ? (std::size_t{1} << 16) * cost_.block_bytes
                                 : std::numeric_limits<std::size_t>::max();
}

std::unique_ptr<keyed_cipher> block_backend::make_keyed(std::span<const u8> key) const {
  if (!key_len_ok(key.size()))
    throw std::invalid_argument("backend " + name_ + ": unsupported key length");
  return std::make_unique<block_keyed>(name_, mode_, cost_, make_(key));
}

// --- stream_backend ---------------------------------------------------------

stream_backend::stream_backend(std::string name, backend_cost cost,
                               std::vector<std::size_t> key_lens, factory make)
    : name_(std::move(name)), cost_(cost), key_lens_(std::move(key_lens)),
      make_(std::move(make)) {}

bool stream_backend::key_len_ok(std::size_t len) const noexcept {
  return std::find(key_lens_.begin(), key_lens_.end(), len) != key_lens_.end();
}

std::unique_ptr<keyed_cipher> stream_backend::make_keyed(std::span<const u8> key) const {
  if (!key_len_ok(key.size()))
    throw std::invalid_argument("backend " + name_ + ": unsupported key length");
  return std::make_unique<stream_keyed>(name_, cost_, bytes(key.begin(), key.end()), make_);
}

// --- backend_registry -------------------------------------------------------

void backend_registry::add(std::unique_ptr<cipher_backend> backend) {
  for (auto& b : backends_) {
    if (b->name() == backend->name()) {
      b = std::move(backend);
      return;
    }
  }
  backends_.push_back(std::move(backend));
}

const cipher_backend* backend_registry::find(std::string_view name) const noexcept {
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  return nullptr;
}

const cipher_backend& backend_registry::at(std::string_view name) const {
  const cipher_backend* b = find(name);
  if (!b) throw std::out_of_range("backend_registry: no backend named '" + std::string(name) + "'");
  return *b;
}

std::vector<std::string_view> backend_registry::names() const {
  std::vector<std::string_view> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  return out;
}

namespace {

std::unique_ptr<crypto::block_cipher> make_aes(std::span<const u8> key) {
  return std::make_unique<crypto::aes>(key);
}

// Cost figures follow edu/timing.hpp's surveyed cores.
constexpr backend_cost aes_cost{11, 11, 16, false};
constexpr backend_cost aes_cbc_cost{11, 11, 16, true};
constexpr backend_cost des_cost{16, 16, 8, true};
constexpr backend_cost tdes_cost{48, 48, 8, true};
constexpr backend_cost tdes_ctr_cost{48, 48, 8, false};
constexpr backend_cost best_cost{2, 1, 8, false};
constexpr backend_cost stream_cost{4, 1, 8, false};

backend_registry make_builtin() {
  backend_registry reg;
  const std::vector<std::size_t> aes_keys{16, 24, 32};

  reg.add(std::make_unique<block_backend>("aes-ecb", unit_mode::ecb, aes_cost, aes_keys, make_aes));
  reg.add(std::make_unique<block_backend>("aes-cbc", unit_mode::cbc, aes_cbc_cost, aes_keys, make_aes));
  reg.add(std::make_unique<block_backend>("aes-ctr", unit_mode::ctr, aes_cost, aes_keys, make_aes));

  reg.add(std::make_unique<block_backend>(
      "des-cbc", unit_mode::cbc, des_cost, std::vector<std::size_t>{8},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "3des-cbc", unit_mode::cbc, tdes_cost, std::vector<std::size_t>{16, 24},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::triple_des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "3des-ctr", unit_mode::ctr, tdes_ctr_cost, std::vector<std::size_t>{16, 24},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::triple_des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "best-ecb", unit_mode::ecb, best_cost, std::vector<std::size_t>{16},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::best_cipher>(key);
      }));

  reg.add(std::make_unique<stream_backend>(
      "rc4-stream", stream_cost, std::vector<std::size_t>{8, 16, 32},
      [](std::span<const u8> key, std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        auto g = std::make_unique<crypto::rc4>(key);
        g->reseed(key, iv);
        return g;
      }));
  reg.add(std::make_unique<stream_backend>(
      "lfsr-stream", stream_cost, std::vector<std::size_t>{8, 16},
      [](std::span<const u8> key, std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        return std::make_unique<crypto::galois_lfsr>(key, iv);
      }));
  reg.add(std::make_unique<stream_backend>(
      "trivium-stream", stream_cost, std::vector<std::size_t>{8, 10},
      [](std::span<const u8> key, std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        return std::make_unique<crypto::trivium>(key, iv);
      }));
  return reg;
}

} // namespace

const backend_registry& backend_registry::builtin() {
  static const backend_registry reg = make_builtin();
  return reg;
}

} // namespace buscrypt::engine
