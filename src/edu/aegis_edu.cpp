#include "edu/aegis_edu.hpp"

#include "common/bitops.hpp"
#include "crypto/modes.hpp"
#include "edu/batch.hpp"

#include <stdexcept>

namespace buscrypt::edu {

aegis_edu::aegis_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                     aegis_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg), counter_state_(cfg.seed) {
  if (cfg_.line_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("aegis_edu: line must be a block multiple");
}

void aegis_edu::derive_iv(addr_t line_addr, u64 nonce, std::span<u8> iv) const {
  // IV = E_K(block address || nonce) — unpredictable, per-line, fresh.
  bytes src(cipher_->block_size(), 0);
  store_be64(src.data(), line_addr);
  if (cipher_->block_size() >= 16) store_be64(src.data() + 8, nonce);
  else for (std::size_t i = 0; i < 8; ++i) src[i] ^= static_cast<u8>(nonce >> (8 * i));
  cipher_->encrypt_block(src, iv);
}

u64 aegis_edu::nonce_for(addr_t line_addr) const noexcept {
  const auto it = nonces_.find(line_addr);
  return it == nonces_.end() ? 0 : it->second;
}

u64 aegis_edu::fresh_nonce(addr_t line_addr) {
  if (cfg_.iv_mode == aegis_iv_mode::counter) return ++nonces_[line_addr];
  counter_state_ = counter_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  nonces_[line_addr] = counter_state_;
  return counter_state_;
}

cycles aegis_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  if (addr % cfg_.line_bytes != 0 || out.size() != cfg_.line_bytes) {
    // Non-line requests take the slow path: fetch covering lines.
    const addr_t base = addr - addr % cfg_.line_bytes;
    const addr_t end_addr = addr + out.size();
    const addr_t end = (end_addr % cfg_.line_bytes == 0)
                           ? end_addr
                           : end_addr + cfg_.line_bytes - end_addr % cfg_.line_bytes;
    bytes buf(static_cast<std::size_t>(end - base));
    cycles total = 0;
    for (addr_t a = base; a < end; a += cfg_.line_bytes)
      total += read(a, std::span<u8>(buf).subspan(static_cast<std::size_t>(a - base),
                                                  cfg_.line_bytes));
    const std::size_t head = static_cast<std::size_t>(addr - base);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = buf[head + i];
    return total;
  }

  const cycles mem = lower_->read(addr, out);

  bytes iv(cipher_->block_size());
  derive_iv(addr, nonce_for(addr), iv);
  crypto::cbc_decrypt(*cipher_, iv, out, out);

  const std::size_t nblocks = cfg_.core.blocks_for(cfg_.line_bytes);
  stats_.cipher_blocks += nblocks + 1;
  // IV generation overlaps the fetch (address & nonce known at request);
  // CBC decryption is block-parallel but the whole line must finish before
  // the processor sees anything (no critical-word-first).
  const cycles crypt = cfg_.core.time_parallel(nblocks);
  stats_.crypto_cycles += crypt;
  return mem + crypt;
}

void aegis_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  txn_batcher& b = open_window();
  const std::size_t lb = cfg_.line_bytes;
  const std::size_t nblocks = cfg_.core.blocks_for(lb);
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    bool eligible = !txn.segments.empty();
    for (const sim::txn_segment& seg : txn.segments)
      if (seg.data.empty() || seg.addr % lb != 0 || seg.data.size() % lb != 0) {
        eligible = false;
        break;
      }
    if (!eligible) {
      b.detour_via(txn, scalar_unit(*this));
      continue;
    }
    for (sim::txn_segment& seg : txn.segments) {
      // One count per line, matching scalar issue of the same line ops.
      for (std::size_t off = 0; off < seg.data.size(); off += lb) {
        const addr_t a = seg.addr + off;
        std::span<u8> line = seg.data.subspan(off, lb);
        stats_.cipher_blocks += nblocks + 1;
        if (txn.is_write()) {
          ++stats_.writes;
          // Fresh nonce in submission order, exactly as scalar issue.
          const u64 nonce = fresh_nonce(a);
          bytes& ct = b.scratch_copy(line);
          bytes iv(cipher_->block_size());
          derive_iv(a, nonce, iv);
          crypto::cbc_encrypt(*cipher_, iv, ct, ct);
          const cycles enc = cfg_.core.time_chained(nblocks) + cfg_.core.latency;
          stats_.crypto_cycles += enc;
          b.add_pre(enc);
          (void)b.queue(sim::txn_op::write, txn.master, a, ct);
        } else {
          ++stats_.reads;
          // Snapshot the nonce now: a later in-window write must not
          // change the IV this read's ciphertext was produced under.
          const u64 nonce = nonce_for(a);
          const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
          const cycles dec = cfg_.core.time_parallel(nblocks);
          stats_.crypto_cycles += dec;
          b.add_gated(li, txn_batcher::no_lower, dec, [this, a, nonce, line] {
            bytes iv(cipher_->block_size());
            derive_iv(a, nonce, iv);
            crypto::cbc_decrypt(*cipher_, iv, line, line);
          });
        }
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles aegis_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  if (addr % cfg_.line_bytes != 0 || in.size() != cfg_.line_bytes) {
    // Sub-line store: five-step read-modify-write at line granularity.
    ++stats_.rmw_ops;
    const addr_t base = addr - addr % cfg_.line_bytes;
    const addr_t end_addr = addr + in.size();
    const addr_t end = (end_addr % cfg_.line_bytes == 0)
                           ? end_addr
                           : end_addr + cfg_.line_bytes - end_addr % cfg_.line_bytes;
    bytes buf(static_cast<std::size_t>(end - base));
    cycles total = read(base, buf);
    const std::size_t head = static_cast<std::size_t>(addr - base);
    for (std::size_t i = 0; i < in.size(); ++i) buf[head + i] = in[i];
    for (addr_t a = base; a < end; a += cfg_.line_bytes)
      total += write(a, std::span<const u8>(buf).subspan(
                            static_cast<std::size_t>(a - base), cfg_.line_bytes));
    return total;
  }

  // Fresh nonce per write: random vector or monotonic counter.
  const u64 nonce = fresh_nonce(addr);

  bytes iv(cipher_->block_size());
  derive_iv(addr, nonce, iv);
  bytes ct(in.begin(), in.end());
  crypto::cbc_encrypt(*cipher_, iv, ct, ct);

  const std::size_t nblocks = cfg_.core.blocks_for(cfg_.line_bytes);
  stats_.cipher_blocks += nblocks + 1;
  // CBC encryption is chained across the line; IV generation precedes it.
  const cycles crypt = cfg_.core.time_chained(nblocks) + cfg_.core.latency;
  stats_.crypto_cycles += crypt;
  return crypt + lower_->write(addr, ct);
}

} // namespace buscrypt::edu
