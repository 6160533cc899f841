#pragma once
/// \file cipher_backend.hpp
/// Pluggable cipher backends for the keyslot-based bus-encryption engine.
///
/// The survey's Section 2 taxonomy — block vs stream cipher, mode of
/// operation, per-address IV — becomes a single runtime contract here: a
/// `cipher_backend` describes an algorithm+mode pair ("aes-ctr",
/// "3des-cbc", "rc4-stream", ...) and mints `keyed_cipher` instances that
/// transform whole *data units* (the engine's granule, typically one cache
/// line) addressed by a *data-unit number* (DUN). The DUN is derived from
/// the bus address, which is what gives every memory location a distinct
/// ciphertext stream — the fix for the ECB weakness of Section 2.2.
///
/// The shape mirrors the Linux block-layer inline-encryption model
/// (Documentation/block/inline-encryption.rst): hardware advertises a set
/// of (algorithm, data-unit-size) capabilities; upper layers pick one and
/// program keys into slots.

#include "common/types.hpp"
#include "crypto/block_cipher.hpp"
#include "crypto/stream_cipher.hpp"

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace buscrypt::engine {

/// Hardware cost model for one backend (cycles charged by the simulator —
/// same role as edu::pipeline_model, kept independent so engine does not
/// depend on the edu layer).
struct backend_cost {
  cycles latency = 11;        ///< cycles for the first block through the core
  cycles interval = 11;       ///< initiation interval between blocks
  std::size_t block_bytes = 16;
  bool chained_encrypt = false; ///< CBC-style dependency: no pipelining on encrypt

  [[nodiscard]] std::size_t blocks_for(std::size_t nbytes) const noexcept {
    return (nbytes + block_bytes - 1) / block_bytes;
  }
  [[nodiscard]] cycles time(std::size_t nbytes, bool encrypt) const noexcept {
    const std::size_t n = blocks_for(nbytes);
    if (n == 0) return 0;
    if (encrypt && chained_encrypt) return static_cast<cycles>(n) * latency;
    return latency + (static_cast<cycles>(n) - 1) * interval;
  }
};

/// A cipher keyed and ready to transform data units. One of these lives in
/// each programmed keyslot; the fallback path constructs throw-away ones.
///
/// Contract: in.size() == out.size(); the unit length must be a multiple
/// of granule(); decrypt_unit(dun, encrypt_unit(dun, x)) == x, and the
/// transform for a given (dun, data) is deterministic, so write-back
/// re-encryption reproduces the stored ciphertext.
class keyed_cipher {
 public:
  virtual ~keyed_cipher() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Smallest unit-length quantum (cipher block size; 1 for stream ciphers).
  [[nodiscard]] virtual std::size_t granule() const noexcept = 0;

  /// Transform one data unit numbered \p dun (address-derived IV input).
  virtual void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) = 0;
  virtual void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) = 0;

  /// Transform a run of consecutive whole data units in one call: unit u of
  /// the run is numbered first_dun + u and occupies bytes
  /// [u*unit_len, (u+1)*unit_len). in.size() == out.size(), a multiple of
  /// unit_len; in/out may alias exactly. Byte-identical to calling the
  /// per-unit transforms in a loop — the defaults below do exactly that —
  /// but overridable so wide cores (bitsliced DES, bulk CTR pads) see the
  /// whole batch window at once instead of one unit at a time.
  virtual void encrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                             std::span<u8> out);
  virtual void decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                             std::span<u8> out);

  /// Cycles the hardware model charges for \p nbytes on this path.
  [[nodiscard]] virtual cycles unit_cost(std::size_t nbytes, bool encrypt) const noexcept = 0;

  /// True when the keystream depends only on the data-unit number, never on
  /// the data (CTR mode, stream generators): the engine can generate the pad
  /// in parallel with the external fetch — the survey's Fig. 2a overlap.
  /// False for ECB/CBC, whose decrypt causally needs the fetched ciphertext.
  [[nodiscard]] virtual bool pad_precomputable() const noexcept { return false; }

  /// Bulk keystream: fill \p out with the pads of consecutive data units
  /// starting at \p first_dun (\p unit_len bytes each; out.size() must be
  /// a multiple), in one call — the whole batch's pad in one pass, no
  /// per-unit buffers. Only meaningful when pad_precomputable(); the
  /// default derives each pad by enciphering zeros, which is exact for any
  /// XOR-pad cipher (pad == E(0)). Overridden by the CTR and stream
  /// backends to write the keystream straight into \p out.
  virtual void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out);
};

/// An algorithm+mode the engine can be programmed with. Immutable:
/// make_keyed() for a given key always mints the same transform, and no
/// backend keeps an internal cache or any other mutable state. The
/// registry owns one instance per capability. Thread-safety contract (the
/// fleet runner shares builtin() across SoC worker threads): const member
/// functions, make_keyed() included, must be safe to call concurrently
/// without locking — which holds as long as a backend stays immutable.
/// The keyed_cipher instances minted are NOT shared — each caller owns its
/// own and runs it single-threaded.
class cipher_backend {
 public:
  virtual ~cipher_backend() = default;

  /// Registry key, e.g. "aes-ctr".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Accepted key length(s) in bytes.
  [[nodiscard]] virtual bool key_len_ok(std::size_t len) const noexcept = 0;

  /// Mint a keyed instance for keyslot programming (or the fallback path).
  /// \throws std::invalid_argument when key_len_ok(key.size()) is false.
  [[nodiscard]] virtual std::unique_ptr<keyed_cipher>
  make_keyed(std::span<const u8> key) const = 0;

  /// Largest data-unit size whose IV scheme stays sound (CTR backends bound
  /// this by their per-unit counter space; everything else is unbounded).
  [[nodiscard]] virtual std::size_t max_data_unit_size() const noexcept {
    return static_cast<std::size_t>(-1);
  }

  /// Cost model, for sizing decisions without minting an instance.
  [[nodiscard]] virtual backend_cost cost() const noexcept = 0;
};

/// Block-cipher modes a block_backend can wrap a core in.
enum class unit_mode {
  ecb, ///< deterministic per block — kept for the Section 2.2 weakness demos
  cbc, ///< chained within the unit, IV = E_K(DUN) (ESSIV-style)
  ctr, ///< seekable; counter = DUN * blocks_per_unit + i, tweak nonce
};

/// Backend adapting any crypto::block_cipher factory to the unit contract.
///
/// Every make_keyed() runs key expansion afresh into a core the minted
/// instance owns — the keyslot holds the expanded key, as in the Linux
/// inline-encryption model, so no second copy is cached here and the
/// backend stays immutable. Simulated slot-program cycles are charged by
/// the engine, not here.
class block_backend final : public cipher_backend {
 public:
  using factory = std::function<std::unique_ptr<crypto::block_cipher>(std::span<const u8>)>;

  /// \param key_lens accepted key lengths in bytes.
  block_backend(std::string name, unit_mode mode, backend_cost cost,
                std::vector<std::size_t> key_lens, factory make);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] bool key_len_ok(std::size_t len) const noexcept override;
  [[nodiscard]] std::unique_ptr<keyed_cipher> make_keyed(std::span<const u8> key) const override;
  [[nodiscard]] backend_cost cost() const noexcept override { return cost_; }
  [[nodiscard]] std::size_t max_data_unit_size() const noexcept override;

 private:
  std::string name_;
  unit_mode mode_;
  backend_cost cost_;
  std::vector<std::size_t> key_lens_;
  factory make_;
};

/// Backend adapting any crypto::stream_cipher factory: the generator is
/// reseeded per data unit with an IV encoding the DUN, so every unit gets
/// an independent keystream (the pad-reuse attack otherwise applies).
class stream_backend final : public cipher_backend {
 public:
  using factory = std::function<std::unique_ptr<crypto::stream_cipher>(
      std::span<const u8> key, std::span<const u8> iv)>;

  stream_backend(std::string name, backend_cost cost,
                 std::vector<std::size_t> key_lens, factory make);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] bool key_len_ok(std::size_t len) const noexcept override;
  [[nodiscard]] std::unique_ptr<keyed_cipher> make_keyed(std::span<const u8> key) const override;
  [[nodiscard]] backend_cost cost() const noexcept override { return cost_; }

 private:
  std::string name_;
  backend_cost cost_;
  std::vector<std::size_t> key_lens_;
  factory make_;
};

/// Name -> backend table. The engine and the keyslot manager resolve
/// algorithms through one of these; builtin() carries every cipher the
/// repo's crypto/ layer provides.
class backend_registry {
 public:
  /// Register a backend; replaces any existing entry with the same name.
  void add(std::unique_ptr<cipher_backend> backend);

  /// Look up by name; nullptr when absent.
  [[nodiscard]] const cipher_backend* find(std::string_view name) const noexcept;

  /// find() that throws std::out_of_range with a helpful message.
  [[nodiscard]] const cipher_backend& at(std::string_view name) const;

  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string_view> names() const;

  [[nodiscard]] std::size_t size() const noexcept { return backends_.size(); }

  /// Process-wide registry preloaded with the crypto/ primitives:
  /// aes-ecb/cbc/ctr (16/24/32-byte keys), des-cbc, 3des-cbc/ctr, best-ecb,
  /// rc4/lfsr/trivium stream backends. Immutable after first use: the
  /// returned reference is const, construction is the C++11 thread-safe
  /// magic-static, and nothing in the repo mutates it afterwards — so
  /// concurrent SoCs (the fleet runner's worker threads) may resolve and
  /// mint backends through it freely. Code that wants a *mutable* registry
  /// (tests registering toy backends) builds its own instance; those are
  /// single-threaded like the rest of the simulator.
  [[nodiscard]] static const backend_registry& builtin();

 private:
  std::vector<std::unique_ptr<cipher_backend>> backends_;
};

} // namespace buscrypt::engine
