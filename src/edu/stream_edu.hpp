#pragma once
/// \file stream_edu.hpp
/// Stream-cipher EDU (Fig. 2a applied at the Fig. 2c location): ciphertext
/// = plaintext XOR pad(address), with the pad produced by a block-cipher
/// PRF over the address (seekable, so random access costs nothing).
///
/// Carries the survey's central performance claim: "the key stream
/// generation can be parallelised with external data fetch", unlike a
/// block cipher that "cannot start until a complete block has been
/// received". The parallel_keystream flag ablates exactly that.

#include "crypto/modes.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

namespace buscrypt::edu {

struct stream_edu_config {
  pipeline_model pad_core = aes_pipelined(); ///< PRF generating the pad
  bool parallel_keystream = true; ///< false = serialize pad after fetch (ablation)
  cycles xor_cycles = 1;          ///< the XOR gate stage
  u64 tweak = 0x57E4EA11C0DE5ULL;
};

/// One-time-pad style EDU; byte-addressable, so it NEVER pays the
/// five-step sub-block write penalty (contrast with block_edu).
class stream_edu final : public edu {
 public:
  stream_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
             stream_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override { return "Stream-OTP"; }

  /// Native batch path: the pad for every transaction is generated once up
  /// front from the addresses alone, so the whole batch's keystream
  /// pipeline runs concurrently with the whole batch's bus schedule —
  /// max(sum mem, sum pad) instead of the scalar sum of per-access maxes.
  /// This is Fig. 2a's "key stream generation can be parallelised with
  /// external data fetch" applied across requests, not just within one.
  /// A scalar access is the one-transaction case: max(mem, pad) + xor.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] const stream_edu_config& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] cycles pad_time(addr_t addr, std::size_t len) const noexcept;
  void apply_pad(addr_t addr, std::span<u8> buf);

  crypto::address_pad pad_;
  stream_edu_config cfg_;

  // Window buffers, grown on demand and kept across submit() calls.
  std::vector<sim::mem_txn> lower_txns_;
  std::vector<bytes> staged_; ///< ciphertext of the window's write segments
  std::vector<cycles> txn_pad_;
  bytes pad_buf_;
};

} // namespace buscrypt::edu
