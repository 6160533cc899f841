#include "edu/stream_edu.hpp"

#include "common/bitops.hpp"

#include <algorithm>

namespace buscrypt::edu {

stream_edu::stream_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                       stream_edu_config cfg)
    : edu(lower), pad_(prf, cfg.tweak), cfg_(cfg) {}

cycles stream_edu::pad_time(addr_t addr, std::size_t len) const noexcept {
  return cfg_.pad_core.time_parallel(pad_.blocks_covering(addr, len));
}

void stream_edu::apply_pad(addr_t addr, std::span<u8> buf) {
  pad_buf_.resize(buf.size());
  pad_.generate(addr, pad_buf_);
  stats_.cipher_blocks += pad_.blocks_covering(addr, buf.size());
  xor_bytes(buf, pad_buf_);
}

void stream_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());

  // The buffers only grow, so they stop allocating once they fit a window.
  if (lower_txns_.size() < batch.size()) lower_txns_.resize(batch.size());
  const std::span<sim::mem_txn> lower(lower_txns_.data(), batch.size());
  txn_pad_.assign(batch.size(), 0);

  // Stage ciphertext for every write segment up front (the pad needs only
  // the address, so all of it can be generated before any data moves).
  cycles pad_total = 0;
  cycles n_segments = 0; // xor stage runs once per segment, as in scalar issue
  std::size_t staged = 0;
  for (std::size_t ti = 0; ti < batch.size(); ++ti) {
    sim::mem_txn& txn = batch[ti];
    // One count per segment, matching scalar issue of the same ops.
    (txn.is_write() ? stats_.writes : stats_.reads) += txn.segments.size();
    sim::mem_txn& lt = lower[ti];
    lt.id = txn.id;
    lt.op = txn.op;
    lt.master = txn.master; // attribution rides down to the bus beats
    lt.segments.clear();
    for (sim::txn_segment& seg : txn.segments) {
      const cycles p = pad_time(seg.addr, seg.data.size());
      pad_total += p;
      txn_pad_[ti] += p;
      ++n_segments;
      if (txn.is_write()) {
        // Growing staged_ moves its buffers, so earlier spans stay valid.
        if (staged == staged_.size()) staged_.emplace_back();
        bytes& ct = staged_[staged++];
        ct.assign(seg.data.begin(), seg.data.end());
        apply_pad(seg.addr, ct);
        lt.segments.push_back({seg.addr, std::span<u8>(ct)});
      } else {
        lt.segments.push_back(seg);
      }
    }
  }

  lower_->submit(lower);
  const cycles mem = lower_->drain();
  const cycles xr = cfg_.xor_cycles * n_segments;
  const cycles total = cfg_.parallel_keystream ? std::max(mem, pad_total) + xr
                                               : mem + pad_total + xr;
  stats_.crypto_cycles += total - mem;
  // Reads decrypt as their data lands on the internal side of the bus.
  // Per-txn stamps, consistent with the makespan above: with the parallel
  // keystream a txn completes when both its data and its share of the pad
  // (generated in txn order) are in hand; serial hardware instead chains
  // pad work after each arrival. Stamps stay monotone (in-order retire)
  // and never exceed `total`.
  cycles pad_prefix = 0, serial_done = 0, mono = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].is_write())
      for (sim::txn_segment& seg : batch[i].segments) apply_pad(seg.addr, seg.data);
    const cycles arrival = lower[i].complete_cycle;
    const cycles txn_xor = cfg_.xor_cycles * batch[i].segments.size();
    pad_prefix += txn_pad_[i];
    cycles fin;
    if (cfg_.parallel_keystream) {
      fin = std::max(arrival, pad_prefix) + txn_xor;
    } else {
      serial_done = std::max(serial_done, arrival) + txn_pad_[i] + txn_xor;
      fin = serial_done;
    }
    mono = std::max(mono, fin);
    batch[i].complete_cycle = pending_txn_cycles_ + mono;
  }
  pending_txn_cycles_ += total;
}

} // namespace buscrypt::edu
