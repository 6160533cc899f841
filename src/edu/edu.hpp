#pragma once
/// \file edu.hpp
/// The Encryption/Decryption Unit (EDU) base: a memory_port decorator
/// sitting "between the cache and the external memory controller"
/// (Best's rule, Fig. 2c) — everything above it sees plaintext, everything
/// below it (bus, DRAM, probes, attackers) sees ciphertext.

#include "edu/batch.hpp"
#include "sim/memory_port.hpp"

#include <span>
#include <string_view>

namespace buscrypt::edu {

/// Counters every EDU maintains, reported by the benches.
struct edu_stats {
  u64 reads = 0;
  u64 writes = 0;
  u64 cipher_blocks = 0;   ///< block-cipher invocations
  cycles crypto_cycles = 0; ///< cycles charged beyond the raw memory time
  u64 rmw_ops = 0;          ///< sub-block read-modify-write sequences
  u64 batches = 0;          ///< submit() calls served
  u64 batched_txns = 0;     ///< transactions carried by those batches
};

/// Base EDU. Derived classes implement the functional transform and the
/// timing policy; the plaintext baseline is plain_edu.
class edu : public sim::memory_port {
 public:
  explicit edu(sim::memory_port& lower) : lower_(&lower), batcher_(lower) {}

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Install a plaintext image into external memory through the encrypt
  /// path without charging simulation time (the paper's offline "memory
  /// content ciphering can be done offline"). Default: block-sized chunked
  /// writes with timing discarded.
  virtual void install_image(addr_t base, std::span<const u8> plain);

  /// Read back a plaintext view of memory through the decrypt path,
  /// without charging time (verification/test hook).
  virtual void read_image(addr_t base, std::span<u8> plain_out);

  /// A scalar access is a one-transaction window of submit(). EDUs whose
  /// window of one costs different cycles keep their own scalar datapaths
  /// (docs/architecture.md). \throws std::logic_error inside an open window.
  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override {
    return one_txn(sim::txn_op::read, addr, out);
  }
  /// The source span rides the window's mutable segment; no port writes
  /// into a write's source (the \ref txn_contract segment rule).
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override {
    return one_txn(sim::txn_op::write, addr,
                   std::span<u8>(const_cast<u8*>(in.data()), in.size()));
  }

  /// Every EDU serves batches natively (the datapath scalar calls use too).
  void submit(std::span<sim::mem_txn> batch) override = 0;

  [[nodiscard]] const edu_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Preferred transfer granularity for install_image chunking.
  [[nodiscard]] virtual std::size_t preferred_chunk() const noexcept { return 64; }

 protected:
  void note_batch(std::size_t txns) noexcept {
    ++stats_.batches;
    stats_.batched_txns += txns;
  }

  /// The staging engine of a native submit(), re-based on this port's
  /// accumulator; its buffers outlive each call.
  [[nodiscard]] txn_batcher& open_window() {
    batcher_.reset(pending_txn_cycles_);
    return batcher_;
  }

  sim::memory_port* lower_;
  edu_stats stats_;

 private:
  [[nodiscard]] cycles one_txn(sim::txn_op op, addr_t addr, std::span<u8> data);

  txn_batcher batcher_;
  sim::mem_txn scalar_txn_; ///< reused by every scalar call: no allocation
};

} // namespace buscrypt::edu
