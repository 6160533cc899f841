#pragma once
/// \file gilmont_edu.hpp
/// Gilmont et al. [3] as surveyed: "a fetch prediction unit and pipelined
/// triple-DES block cipher. They assume to keep the deciphering cost under
/// 2,5% in term of performance cost. However, this work only addresses
/// static code ciphering" — so writes (data) bypass the cipher entirely,
/// and a next-line prefetcher hides the 3-DES latency on sequential fetch.

#include "crypto/block_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

namespace buscrypt::edu {

struct gilmont_edu_config {
  std::size_t line_bytes = 32;
  addr_t code_limit = 1 << 20;   ///< addresses below this are (static) code;
                                 ///< a multiple of line_bytes
  bool fetch_prediction = true;  ///< the prefetcher (ablation switch)
  bool encrypt = true;           ///< false = prefetcher only, no cipher —
                                 ///< the baseline the paper's "<2.5%" is
                                 ///< measured against
  pipeline_model core = tdes_pipelined();
  u64 iv_tweak = 0x6117ULL;
};

/// Static-code decryption engine with next-line fetch prediction.
class gilmont_edu final : public edu {
 public:
  gilmont_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
              gilmont_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override { return "Gilmont-3DES"; }

  /// Native batch path. Data-region traffic is clear-form (the surveyed
  /// limitation), so it rides the lower window untouched and gets the full
  /// multi-bank overlap. Line-aligned code fetches keep the fetch
  /// prediction unit in the loop: predicted lines are served from the
  /// prefetch buffer at staging (1 cycle, no bus traffic) and the next
  /// line's background fetch launches immediately — it needs only the
  /// address, and code writes always detour, so no queued window write can
  /// alias it; mispredicted lines ride the window with their pipelined
  /// 3-DES decipher gated on arrival. Code writes and unaligned or
  /// boundary-crossing requests detour in order through serve_detour().
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.line_bytes;
  }

  [[nodiscard]] u64 prefetch_hits() const noexcept { return prefetch_hits_; }
  [[nodiscard]] u64 prefetch_misses() const noexcept { return prefetch_misses_; }
  [[nodiscard]] const gilmont_edu_config& config() const noexcept { return cfg_; }

 private:
  /// Decrypt one line-aligned code region in place (ECB over the line; the
  /// original uses 3-DES per 8-byte block).
  void crypt_line(std::span<u8> buf, bool encrypt);
  /// The blocking datapath of one detoured segment, line by line; a write's
  /// bytes at or above code_limit stay clear form.
  [[nodiscard]] cycles serve_detour(bool write, addr_t addr, std::span<u8> data);
  /// Launch the predicted next-line fetch into the prefetch buffer.
  void prefetch(addr_t line_addr);

  const crypto::block_cipher* cipher_;
  gilmont_edu_config cfg_;

  // One-deep prefetch buffer: (valid, address, decrypted data).
  bool pf_valid_ = false;
  addr_t pf_addr_ = 0;
  bytes pf_data_;
  u64 prefetch_hits_ = 0;
  u64 prefetch_misses_ = 0;
};

} // namespace buscrypt::edu
