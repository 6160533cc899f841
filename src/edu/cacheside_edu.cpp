#include "edu/cacheside_edu.hpp"

#include "common/bitops.hpp"

#include <algorithm>

namespace buscrypt::edu {

cacheside_edu::cacheside_edu(sim::cache& l1, const crypto::block_cipher& prf,
                             cacheside_edu_config cfg)
    : edu(l1), cache_(&l1), pad_(prf, cfg.tweak), cfg_(cfg) {}

void cacheside_edu::pad_for(addr_t addr, std::span<u8> pad_out) {
  pad_.generate(addr, pad_out);
  stats_.cipher_blocks += pad_.blocks_covering(addr, pad_out.size());
}

cacheside_edu::access_io cacheside_edu::do_access(addr_t addr, std::span<u8> data,
                                                  bool is_write) {
  const bool was_resident = cache_->contains(addr);
  const sim::cache_config& cc = cache_->config();

  access_io io;
  pad_buf_.resize(data.size());
  pad_for(addr, pad_buf_);
  if (is_write) {
    // Encrypt the store data, then let the (ciphertext) cache absorb it.
    ct_buf_.assign(data.begin(), data.end());
    xor_bytes(ct_buf_, pad_buf_);
    io.below = lower_->write(addr, ct_buf_);
    ++stats_.writes;
  } else {
    io.below = lower_->read(addr, data);
    xor_bytes(data, pad_buf_);
    ++stats_.reads;
  }

  // The cipher stage sits on the CPU<->cache path: charged on EVERY access.
  io.below += cfg_.xor_cycles;
  stats_.crypto_cycles += cfg_.xor_cycles;

  if (!was_resident) {
    // A line (re)entered the cache: its keystream must be regenerated into
    // the keystream RAM. Generation runs concurrently with the external
    // fetch; the fetch time is what the cache charged beyond its hit
    // latency (and the XOR stage just added).
    const cycles beyond = cc.hit_latency + cfg_.xor_cycles;
    io.fetch = io.below > beyond ? io.below - beyond : 0;
    const addr_t line_addr = addr - addr % cc.line_size;
    io.ks = cfg_.pad_core.time_parallel(pad_.blocks_covering(line_addr, cc.line_size));
    stats_.cipher_blocks += pad_.blocks_covering(line_addr, cc.line_size);
  }
  return io;
}

void cacheside_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  const cycles base = pending_txn_cycles_;

  cycles served = 0;      ///< cache + XOR time, accumulated in order
  cycles ks_total = 0;    ///< keystream regeneration the window owes
  cycles fetch_total = 0; ///< external-fetch time it can hide behind
  for (sim::mem_txn& txn : batch) {
    for (sim::txn_segment& seg : txn.segments) {
      const access_io io = do_access(seg.addr, seg.data, txn.is_write());
      served += io.below;
      ks_total += io.ks;
      fetch_total += io.fetch;
    }
    txn.complete_cycle = base + served; // in-order: the cache is serial
  }
  const cycles overrun = ks_total > fetch_total ? ks_total - fetch_total : 0;
  overrun_ += overrun;
  stats_.crypto_cycles += overrun;
  pending_txn_cycles_ += served + overrun;
}

} // namespace buscrypt::edu
