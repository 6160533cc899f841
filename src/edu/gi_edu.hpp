#pragma once
/// \file gi_edu.hpp
/// The General Instrument patent engine (Fig. 5): memory encrypted with
/// 3-DES in CBC, plus "the possibility to authenticate the data coming
/// from external memory thanks to a keyed hash algorithm". The survey's
/// verdict — "cipher block chaining technique is very robust but implies
/// unacceptable CPU performance degradation for random accesses" — falls
/// out of the model: CBC chains span whole segments, and the keyed hash
/// forces every random touch to fetch and verify its entire segment.

#include "crypto/block_cipher.hpp"
#include "crypto/mac.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

#include <unordered_map>

namespace buscrypt::edu {

struct gi_edu_config {
  std::size_t segment_bytes = 1024; ///< one CBC chain + one MAC per segment
  std::size_t tag_bytes = 8;
  bool authenticate = true;         ///< verify the keyed hash on fetch
  unsigned verified_cache_entries = 4; ///< recently-verified segments
  pipeline_model core = tdes_pipelined(); ///< the patent assumes HW 3-DES
  cycles hash_startup = 20;
  double hash_cycles_per_byte = 1.0;
  u64 iv_tweak = 0x61C0DEULL;
};

/// Whole-segment CBC + keyed-hash EDU.
class gi_edu final : public edu {
 public:
  /// \param cipher the 3-DES core; \param mac_key keyed-hash key.
  gi_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
         std::span<const u8> mac_key, gi_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override { return "GI-3DES-CBC+MAC"; }

  /// Native batch path for reads: every touched segment's whole-chain
  /// fetch rides one lower window (multi-bank overlap across segments),
  /// with the pipelined 3-DES decipher and the keyed-hash verification
  /// chained on the serial units after each segment's own data arrival —
  /// the MAC unit streams one segment while the bus fetches the next.
  /// The recently-verified window advances in submission order at staging,
  /// so hash charges match a run of one-transaction windows exactly.
  /// Writes are whole-segment read-modify-write (ciphertext depends on
  /// fetched data), so they detour in order through write_segments().
  void submit(std::span<sim::mem_txn> batch) override;

  /// Count of authentication failures detected (tampering).
  [[nodiscard]] u64 auth_failures() const noexcept { return auth_failures_; }

  /// Storage overhead of the tags, in bytes, for a memory of \p mem_bytes.
  [[nodiscard]] std::size_t tag_overhead(std::size_t mem_bytes) const noexcept {
    return (mem_bytes / cfg_.segment_bytes) * cfg_.tag_bytes;
  }

  /// Segment-sized installs avoid spurious read-modify-writes.
  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.segment_bytes;
  }

 private:
  /// The blocking write datapath: whole segments stored, partial ones RMW'd.
  [[nodiscard]] cycles write_segments(addr_t addr, std::span<const u8> in);

  /// A segment fetch's decipher (+ keyed-hash) charge; verifying advances
  /// the verified window, so call it in submission order.
  struct fetch_plan {
    cycles crypt = 0;
    bool verify = false;
  };
  [[nodiscard]] fetch_plan plan_fetch(addr_t seg_base);
  /// Decipher a fetched segment in place; check its tag if \p verify.
  void open_segment(addr_t seg_base, std::span<u8> buf, bool verify);
  /// Encrypt + tag + write back a whole segment.
  [[nodiscard]] cycles store_segment(addr_t seg_base, std::span<const u8> plain);

  void derive_iv(addr_t seg_base, std::span<u8> iv) const;
  [[nodiscard]] bytes compute_tag(addr_t seg_base, std::span<const u8> plain) const;
  [[nodiscard]] cycles hash_time(std::size_t nbytes) const noexcept;
  void touch_verified(addr_t seg_base);
  [[nodiscard]] bool recently_verified(addr_t seg_base) const noexcept;

  const crypto::block_cipher* cipher_;
  crypto::hmac_key mac_key_;
  gi_edu_config cfg_;
  std::unordered_map<addr_t, bytes> tags_; ///< tag store (modelled on-chip/side-band)
  std::vector<addr_t> verified_lru_;
  u64 auth_failures_ = 0;
};

} // namespace buscrypt::edu
