#pragma once
/// \file probes.hpp
/// Forwarding decorators on the two virtual seams the simulator already
/// has, used only by the traced run:
///  - traced_backend / the keyed ciphers it mints wrap every
///    engine::cipher_backend and engine::keyed_cipher virtual, bulk paths
///    (encrypt_units, generate_pads, pad_precomputable) included, so the
///    wrapped backend's overrides and its shared schedule cache and lock
///    stay on the path;
///  - timed_port wraps a sim::memory_port (below the engine, or the
///    engine itself seen from its issuer), forwarding read/write/submit/
///    drain one for one.
/// Each call records one span on the thread's active tracer. Nothing here
/// changes a byte or a cycle; the self-tests prove it.

#include "engine/cipher_backend.hpp"
#include "sim/memory_port.hpp"
#include "trace.hpp"

namespace perfbench {

/// A registry holding a traced_backend for each of builtin()'s backends,
/// under the same names. The builtin backends are referenced, not copied.
[[nodiscard]] buscrypt::engine::backend_registry traced_registry();

/// memory_port decorator recording one span of \p kind per call. With
/// \p tag_base set, payload bytes at or above it are counted as tag
/// traffic and the rest as data.
class timed_port final : public buscrypt::sim::memory_port {
 public:
  static constexpr buscrypt::addr_t no_tags = ~buscrypt::addr_t{0};

  timed_port(buscrypt::sim::memory_port& lower, span_kind kind,
             buscrypt::addr_t tag_base = no_tags)
      : lower_(&lower), kind_(kind), tag_base_(tag_base) {}

  [[nodiscard]] buscrypt::cycles read(buscrypt::addr_t addr, std::span<buscrypt::u8> out) override;
  [[nodiscard]] buscrypt::cycles write(buscrypt::addr_t addr,
                                       std::span<const buscrypt::u8> in) override;
  void submit(std::span<buscrypt::sim::mem_txn> batch) override;
  [[nodiscard]] buscrypt::cycles drain() override;

  [[nodiscard]] u64 data_bytes() const noexcept { return data_bytes_; }
  [[nodiscard]] u64 tag_bytes() const noexcept { return tag_bytes_; }

 private:
  void count(buscrypt::addr_t addr, std::size_t n) noexcept {
    (addr >= tag_base_ ? tag_bytes_ : data_bytes_) += n;
  }

  buscrypt::sim::memory_port* lower_;
  span_kind kind_;
  buscrypt::addr_t tag_base_;
  u64 data_bytes_ = 0;
  u64 tag_bytes_ = 0;
};

} // namespace perfbench
